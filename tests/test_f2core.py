"""Bit-row GF(2) rank and the diagonal-mask sweeps over a graph's rows."""

from __future__ import annotations

import random
import sys

import pytest

from booldim import dims, f2core
from booldim._backend import kernels
from booldim.errors import CapacityError
from booldim.graphs import Graph, complete_graph, cycle_graph, path_graph
from conftest import plus_diagonal, random_graph, random_symmetric_rows


def rank(rows) -> int:
    return kernels.rank(rows, len(rows))


def span_size_rank(rows, n):
    """Independent oracle: |span| = 2^rank, over all 2^n row subsets."""
    span = set()
    for mask in range(1 << n):
        acc = 0
        for i in range(n):
            if (mask >> i) & 1:
                acc ^= rows[i]
        span.add(acc)
    r = len(span).bit_length() - 1
    assert 1 << r == len(span)
    return r


K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestRank:
    def test_zero_matrix(self):
        assert rank((0,) * 4) == 0

    def test_triangle(self):
        assert rank(K3.adj) == 2

    def test_path4_matches_span_oracle(self):
        # Frozen from the subset-span oracle: all 2^4 row XORs span 16 vectors.
        assert span_size_rank(P4.adj, 4) == 4
        assert rank(P4.adj) == 4

    def test_random_against_span_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(0, 8)
            rows = tuple(rng.getrandbits(n) for _ in range(n))
            assert rank(rows) == span_size_rank(rows, n)

    def test_input_not_modified(self):
        rows = list(P4.adj)
        rank(rows)
        assert rows == list(P4.adj)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 9)
            rows = random_symmetric_rows(rng, n, zero_diagonal=False)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [0] * n
            for i in range(n):
                for j in range(n):
                    if (rows[i] >> j) & 1:
                        relabeled[perm[i]] |= 1 << perm[j]
            assert rank(rows) == rank(tuple(relabeled))


class TestAddDiagonal:
    """The bit rows of A + D that the witness checks and witness_family build."""

    def test_zero_to_identity(self):
        out = dims._plus_diagonal(Graph.empty(2), 0b11)
        assert out == [0b01, 0b10]
        assert rank(out) == 2

    def test_complete_graph_to_all_ones(self):
        for n in range(2, 7):
            out = dims._plus_diagonal(complete_graph(n), (1 << n) - 1)
            assert out == [(1 << n) - 1] * n
            assert rank(out) == 1

    def test_zero_mask_is_identity_perturbation(self):
        assert dims._plus_diagonal(K3, 0) == list(K3.adj)

    def test_rank_changes_at_most_popcount(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 10)
            rows = random_symmetric_rows(rng, n, zero_diagonal=False)
            mask = rng.getrandbits(n)
            assert abs(rank(plus_diagonal(rows, mask)) - rank(rows)) <= mask.bit_count()


class TestIsAlternating:
    """Graph rows are the alternating (zero-diagonal) matrices, so the
    diagonal of A + D is the mask; a set diagonal bit is refused at
    construction."""

    def test_adjacency_always_alternating(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(0, 10)
            g = Graph(n, random_symmetric_rows(rng, n))
            mask = rng.getrandbits(n)
            rows = dims._plus_diagonal(g, mask)
            assert sum(row & (1 << v) for v, row in enumerate(rows)) == mask

    def test_identity_not(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(3, (0b001, 0b010, 0b100))

    def test_single_diagonal_bit(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(3, plus_diagonal(K3.adj, 0b001))

    def test_alternating_symmetric_rank_even(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(0, 16)
            rows = random_symmetric_rows(rng, n, zero_diagonal=True)
            assert rank(rows) % 2 == 0


def test_odd_intersection_family_property():
    # Any n+1 distinct odd-weight n-bit vectors contain a pair with odd-weight
    # intersection; equivalently the largest pairwise-even family has size <= n.
    for n in range(1, 7):
        odd = [x for x in range(1, 1 << n) if x.bit_count() % 2 == 1]
        best = 0

        def grow(chosen, start):
            nonlocal best
            best = max(best, len(chosen))
            for idx in range(start, len(odd)):
                v = odd[idx]
                if all((v & w).bit_count() % 2 == 0 for w in chosen):
                    chosen.append(v)
                    grow(chosen, idx + 1)
                    chosen.pop()

        grow([], 0)
        assert best <= n
        # And the bound is tight: the standard basis is pairwise orthogonal.
        assert best == n


def test_capacity_cap():
    with pytest.raises(CapacityError):
        Graph(65, (0,) * 65)


def gray_position(mask: int) -> int:
    """Inverse of pos -> pos ^ (pos >> 1)."""
    pos = 0
    while mask:
        pos ^= mask
        mask >>= 1
    return pos


def naive_capped_scan(rows, n, cap, stop_at):
    """The kernel's contract by a literal Gray-order scan of the nonzero
    masks with full recompute: the first running best below cap, ending at
    the first one at or below stop_at."""
    best, best_mask = cap, -1
    for pos in range(1, 1 << n):
        mask = pos ^ (pos >> 1)
        r = rank(plus_diagonal(rows, mask))
        if r < best:
            best, best_mask = r, mask
            if best <= stop_at:
                break
    return best, best_mask


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def sweep_nodes(g: Graph) -> int:
    """Search nodes of ``f2core.minrank_sweep(g)``, counted as calls of the
    kernel's recursive ``descend`` frame."""
    descend_code = next(
        c for c in kernels.diagonal_sweep.__code__.co_consts
        if getattr(c, "co_name", None) == "descend"
    )
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is descend_code:
            calls += 1

    sys.setprofile(profile)
    try:
        f2core.minrank_sweep(g)
    finally:
        sys.setprofile(None)
    return calls


class TestSweeps:
    def test_minrank_matches_naive(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(0, 7)
            g = Graph(n, random_symmetric_rows(rng, n))
            naive = min(
                rank(plus_diagonal(g.adj, mask)) for mask in range(1 << n)
            ) if n else 0
            sweep = f2core.minrank_sweep(g)
            assert sweep.geometric == (naive if n else 0)
            assert rank(plus_diagonal(g.adj, sweep.geometric_mask)) == sweep.geometric

    def test_witness_is_first_in_gray_order(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = Graph(n, random_symmetric_rows(rng, n))
            sweep = f2core.minrank_sweep(g)
            for pos in range(1 << n):
                mask = pos ^ (pos >> 1)
                got = rank(plus_diagonal(g.adj, mask))
                if got == sweep.geometric:
                    assert mask == sweep.geometric_mask
                    break
                assert got > sweep.geometric

    def test_inner_cost_matches_naive(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = Graph(n, random_symmetric_rows(rng, n))
            costs = []
            for mask in range(1 << n):
                r = rank(plus_diagonal(g.adj, mask))
                if mask == 0:
                    costs.append(0 if r == 0 else r + 1)
                else:
                    costs.append(r)
            sweep = f2core.minrank_sweep(g)
            assert sweep.boolean == min(costs)
            assert f2core.inner_cost_sweep(g) == (sweep.boolean, sweep.boolean_mask)

    def test_sweep_matches_gray_order_naive(self):
        # The one-pass boolean value and witness must equal a literal
        # Gray-order scan with full recompute over the nonzero masks, and
        # (0, 0) for the zero matrix.
        rng = random.Random(104)
        for _ in range(60):
            n = rng.randint(1, 8)
            rows = random_symmetric_rows(rng, n)
            best, best_mask, best_pos = 0, 0, 0
            if any(rows):
                best = None
                for pos in range(1, 1 << n):
                    mask = pos ^ (pos >> 1)
                    r = rank(plus_diagonal(rows, mask))
                    if best is None or r < best:
                        best, best_mask, best_pos = r, mask, pos
            sweep = f2core.minrank_sweep(Graph(n, rows))
            assert (sweep.boolean, sweep.boolean_mask, gray_position(sweep.boolean_mask)) == (
                best, best_mask, best_pos,
            )

    def test_kernel_cap_and_stop_at_match_naive_scan(self):
        # The kernel alone: nonzero masks only, costs below cap, and the scan
        # ends at the first running best at or below stop_at.
        rng = random.Random(105)
        for _ in range(300):
            n = rng.randint(0, 8)
            rows = random_symmetric_rows(rng, n, zero_diagonal=rng.random() < 0.5)
            cap = rng.randint(0, n + 1)
            stop_at = rng.randint(0, 3)
            assert kernels.diagonal_sweep(rows, n, cap, stop_at) == naive_capped_scan(
                rows, n, cap, stop_at
            )

    def test_kernel_matches_naive_scan_where_the_completion_bound_cuts(self):
        # From n = 9 on the completion term cuts often, on sparse rows (many
        # basis vectors lead below the decided columns) and dense ones alike.
        rng = random.Random(106)
        for _ in range(100):
            n = rng.randint(9, 11)
            rows = random_graph(rng, n, rng.choice((0.15, 0.5, 0.85))).adj
            if rng.random() < 0.5:
                rows = plus_diagonal(rows, rng.getrandbits(n))
            cap = rng.randint(n // 2, n + 1)
            stop_at = rng.choice((0, 0, rng.randint(1, n // 2)))
            assert kernels.diagonal_sweep(rows, n, cap, stop_at) == naive_capped_scan(
                rows, n, cap, stop_at
            )

    def test_completion_bound_cuts_nodes(self):
        # Search nodes counted as calls of the kernel's recursive frame.  Each
        # count beside the pin is the count before the completion bound, when
        # only the rank of the decided rows cut.
        cases = [
            (path_graph(16), 27_311, 32_772),
            (cycle_graph(16), 13_660, 16_390),
            (relabeled(path_graph(16), random.Random(1)), 18_741, 35_503),
            (random_graph(random.Random(2), 20, 0.15), 15_356, 22_153),
            (random_graph(random.Random(2), 20, 0.5), 24_391, 35_604),
        ]
        for g, pinned, before in cases:
            assert sweep_nodes(g) == pinned < before

    def test_rejects_bad_budgets(self):
        # Checked before the rank, so a graph without edges is refused too.
        for m in (P4, Graph.empty(3)):
            for budget in (float("nan"), -1.0):
                with pytest.raises(ValueError, match="budget"):
                    f2core.minrank_sweep(m, budget_s=budget)
        assert f2core.minrank_sweep(P4, budget_s=float("inf")).boolean == 3
