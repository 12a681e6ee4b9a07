"""Tournament inversions, index search, generators, and embedding."""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest

from booldim import _kernels_py, dims, tournaments
from booldim.errors import BudgetExceededError, CapacityError, FormatError
from booldim.graphs import Graph
from booldim.tournaments import (
    Tournament,
    apply_inversions,
    canonical_form,
    disagreement_graph,
    embeds,
    enumerate_tournaments,
    gen_antichain_cn,
    gen_c3_sum,
    gen_strong_path,
    inversion_index,
    inversion_index_oracle,
    inversion_table,
    invert,
    is_acyclic,
)
from conftest import (
    all_tournaments_labeled,
    perturbed,
    random_tournament,
    row_tuples,
    three_cycles_through,
)


def three_cycle() -> Tournament:
    return Tournament(3, (0b010, 0b100, 0b001))


def relabel(rows, perm) -> tuple[int, ...]:
    """Rows of the tournament with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        for w in range(len(rows)):
            if (row >> w) & 1:
                out[perm[v]] |= 1 << perm[w]
    return tuple(out)


def induced(rows, keep) -> tuple[int, ...]:
    """Rows of the subtournament on the vertices keep, renumbered in order."""
    return tuple(sum(1 << b for b, w in enumerate(keep) if (rows[v] >> w) & 1) for v in keep)


def extended(t: Tournament, beats_new: int) -> Tournament:
    """t plus a vertex n, beaten by the vertices in the mask beats_new and
    beating the others."""
    rows = [row | ((beats_new >> v) & 1) << t.n for v, row in enumerate(t.arcs)]
    rows.append(((1 << t.n) - 1) & ~beats_new)
    return Tournament(t.n + 1, tuple(rows))


class TestTournamentRows:
    @staticmethod
    def valid(rows) -> bool:
        """Oracle: rows inside the vertex range, no self-arc, and exactly one
        arc between every pair."""
        n = len(rows)
        if not all(0 <= row < 1 << n for row in rows):
            return False
        bit = [[(row >> j) & 1 for j in range(n)] for row in rows]
        return all(bit[i][j] + bit[j][i] == (i != j) for i in range(n) for j in range(n))

    def check(self, rows):
        if self.valid(rows):
            assert Tournament(len(rows), rows).arcs == rows
        else:
            with pytest.raises(ValueError):
                Tournament(len(rows), rows)

    def test_every_row_tuple_to_3(self):
        for n in range(4):
            for rows in row_tuples(n):
                self.check(rows)

    def test_random_perturbed_rows_to_8(self):
        rng = random.Random(8)
        for _ in range(3000):
            rows = random_tournament(rng, rng.randint(1, 8)).arcs
            self.check(perturbed(rng, rows))

    def test_pair_with_two_arcs_or_none_rejected(self):
        with pytest.raises(ValueError, match="exactly one arc"):
            Tournament(2, (0b10, 0b01))
        with pytest.raises(ValueError, match="exactly one arc"):
            Tournament(2, (0b00, 0b00))


class TestInvert:
    def test_full_set_is_dual(self):
        rng = random.Random(0)
        for _ in range(20):
            t = random_tournament(rng, rng.randint(1, 7))
            dual = invert(t, range(t.n))
            for i in range(t.n):
                for j in range(t.n):
                    if i != j:
                        assert dual.has_arc(i, j) == t.has_arc(j, i)

    def test_empty_set_identity(self):
        t = three_cycle()
        assert invert(t, []) == t

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(40):
            t = random_tournament(rng, rng.randint(1, 7))
            xs = [v for v in range(t.n) if rng.random() < 0.5]
            assert invert(invert(t, xs), xs) == t

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            invert(three_cycle(), [3])

    def test_reverses_exactly_the_arcs_inside(self):
        rng = random.Random(12)
        for _ in range(60):
            t = random_tournament(rng, rng.randint(1, 8))
            inside = {v for v in range(t.n) if rng.random() < 0.5}
            flipped = invert(t, sorted(inside))
            for i in range(t.n):
                for j in range(t.n):
                    if i != j:
                        both = i in inside and j in inside
                        assert flipped.has_arc(i, j) == (t.has_arc(i, j) != both)

    def test_masks_match_vertex_lists(self):
        rng = random.Random(13)
        for _ in range(30):
            t = random_tournament(rng, rng.randint(1, 7))
            masks = [rng.randrange(1 << t.n) for _ in range(3)]
            lists = [[v for v in range(t.n) if (m >> v) & 1] for m in masks]
            assert apply_inversions(t, masks) == apply_inversions(t, lists)

    def test_masks_outside_the_vertex_range(self):
        # A mask is not truncated to the vertex set: bit 3 of a 3-vertex
        # tournament and a negative mask are refused like invert(t, [3]).
        for mask in (0b1000, 0b1011, -1):
            with pytest.raises(ValueError):
                apply_inversions(three_cycle(), [mask])


class TestIsAcyclic:
    def test_acyclic_order(self):
        for n in range(1, 8):
            assert is_acyclic(Tournament.acyclic(n)) == tuple(range(n))

    def test_acyclic_refuses_negative_sizes(self):
        assert Tournament.acyclic(0).n == 0
        for n in (-1, -4):
            with pytest.raises(ValueError):
                Tournament.acyclic(n)

    def test_from_order_round_trips(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randint(0, 10)
            order = rng.sample(range(n), n)
            assert is_acyclic(Tournament.from_order(order)) == tuple(order)

    def test_from_order_rejects_non_permutations(self):
        for order in ([0, 0], [0, 2], [1]):
            with pytest.raises(ValueError):
                Tournament.from_order(order)

    def test_three_cycle(self):
        assert is_acyclic(three_cycle()) is None

    def test_c3_block(self):
        assert is_acyclic(gen_c3_sum(1)) is None

    def test_iff_index_zero(self):
        rng = random.Random(2)
        for _ in range(60):
            t = random_tournament(rng, rng.randint(1, 6))
            acyclic = is_acyclic(t) is not None
            assert (inversion_index(t)[0] == 0) == acyclic


class TestDisagreementGraph:
    def test_topological_order_empty(self):
        t = Tournament.acyclic(5)
        assert disagreement_graph(t, range(5)).edge_count() == 0

    def test_three_cycle_single_edge(self):
        # Arcs 0->1->2->0 against order (0,1,2): only 2->0 disagrees.
        g = disagreement_graph(three_cycle(), (0, 1, 2))
        assert g.edges() == [(0, 2)]

    def test_boolean_sum_consistency(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 7)
            t = random_tournament(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            g = disagreement_graph(t, order)
            flipped = apply_inversions(
                t, [[u, v] for u, v in g.edges()]
            )
            assert is_acyclic(flipped) == tuple(order)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            disagreement_graph(three_cycle(), (0, 1, 1))


class TestInversionIndex:
    def test_three_cycle(self):
        value, cert = inversion_index(three_cycle())
        assert value == 1
        assert len(cert.subsets) == 1

    def test_acyclic(self):
        value, cert = inversion_index(Tournament.acyclic(5))
        assert value == 0 and cert.subsets == ()

    def test_c3_sum_2(self):
        assert inversion_index(gen_c3_sum(2))[0] == 2

    def test_certificates_replay(self):
        rng = random.Random(4)
        for _ in range(80):
            t = random_tournament(rng, rng.randint(1, 7))
            value, cert = inversion_index(t)
            assert len(cert.subsets) == value
            final = apply_inversions(t, cert.subsets)
            assert is_acyclic(final) == cert.order

    def test_planted_repeated_clique_raises(self, monkeypatch):
        # One clique appended twice still replays to the order, so only the
        # length check can tell the certificate is not optimal.
        build = dims.witness_family

        def append_twice(g, mask):
            family = build(g, mask)
            extra = family.members[0]
            return type(family)(family.n, family.members + (extra, extra))

        monkeypatch.setattr(dims, "witness_family", append_twice)
        with pytest.raises(AssertionError, match="length"):
            inversion_index(three_cycle())

    def test_capacity(self):
        with pytest.raises(CapacityError):
            inversion_index(Tournament.acyclic(10))

    def test_rejects_bad_budgets(self):
        # The budget is checked before the acyclic shortcut too.
        for t in (Tournament.acyclic(4), three_cycle()):
            for budget in (float("nan"), -1.0):
                with pytest.raises(ValueError, match="budget"):
                    inversion_index(t, budget_s=budget)

    def test_budget_expires_mid_search(self, clock_jump):
        # Every diagonal search polls the deadline at its first node, and the
        # order search on strongpath:8 runs over a thousand of them.
        clock = clock_jump(50)
        with pytest.raises(BudgetExceededError):
            inversion_index(gen_strong_path(8), budget_s=3600)
        assert clock.reads == 51

    def test_budget_holds_without_diagonal_search_polls(self, clock_jump, monkeypatch):
        # With diagonal searches that never poll, the order search's own polls
        # (its first node, then every 1024 nodes) must still end the run.
        sweep = _kernels_py.diagonal_sweep

        def unpolled(rows, n, cap, stop_at=0, deadline=None):
            return sweep(rows, n, cap, stop_at)

        monkeypatch.setattr(_kernels_py, "diagonal_sweep", unpolled)
        clock = clock_jump(1)
        with pytest.raises(BudgetExceededError):
            inversion_index(gen_strong_path(8), budget_s=3600)
        assert clock.reads == 2


def labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pair for t, pair in enumerate(pairs) if (mask >> t) & 1])


def cost_at_most_2(rows) -> bool:
    support = 0
    for v, row in enumerate(rows):
        if row:
            support |= 1 << v
    return not support or _kernels_py._cost_at_most_2(rows, support)


class TestCostAtMostTwo:
    """The order search's exact test for boolean cost <= 2."""

    def test_matches_family_oracle_to_5(self):
        for n in range(6):
            for g in labeled_graphs(n):
                assert cost_at_most_2(g.adj) == (dims.boolean_dim_oracle(g, 2) is not None), g.adj

    def test_matches_diagonal_search_at_6(self):
        for g in labeled_graphs(6):
            expected = _kernels_py.diagonal_sweep(g.adj, 6, 3, 2)[1] >= 0
            assert cost_at_most_2(g.adj) == expected, g.adj

    def test_matches_diagonal_search_on_clique_sums_7_to_10(self):
        # XORs of one to three random cliques: most cost <= 2, the rest 3.
        rng = random.Random(16)
        seen = set()
        for _ in range(3000):
            n = rng.randint(7, 10)
            rows = [0] * n
            for _ in range(rng.randint(1, 3)):
                clique = sum(1 << v for v in range(n) if rng.random() < 0.5)
                for v in range(n):
                    if (clique >> v) & 1:
                        rows[v] ^= clique ^ (1 << v)
            expected = _kernels_py.diagonal_sweep(rows, n, 3, 2)[1] >= 0
            assert cost_at_most_2(rows) == expected, rows
            seen.add(expected)
        assert seen == {True, False}


def brute_index(t: Tournament):
    """Least boolean dimension of the disagreement graph over all n! orders,
    with the lexicographically first order attaining it."""
    best = None
    for order in permutations(range(t.n)):
        value = dims.boolean_dim(disagreement_graph(t, order))[0]
        if best is None or value < best[0]:
            best = (value, order)
    return best


class TestOrderSearch:
    def test_matches_brute_force_over_orders(self):
        rng = random.Random(17)
        cases = [random_tournament(rng, n) for n in range(1, 7) for _ in range(3)]
        cases += [gen_strong_path(n) for n in range(1, 7)]
        cases += [gen_antichain_cn(n) for n in range(3, 7)]
        for t in cases:
            value, cert = inversion_index(t)
            assert (value, cert.order) == brute_index(t), t.arcs

    def test_strong_path_7_needs_few_diagonal_searches(self, monkeypatch):
        # Its index is 3, and the exact cost-<=-2 bound cuts almost every
        # prefix before a leaf; without it all 5,040 orders reach one.
        calls = 0
        sweep = _kernels_py.diagonal_sweep

        def counted(*args):
            nonlocal calls
            calls += 1
            return sweep(*args)

        monkeypatch.setattr(_kernels_py, "diagonal_sweep", counted)
        assert inversion_index(gen_strong_path(7))[0] == 3
        assert calls <= 100


PARITY = json.loads(Path(__file__).with_name("inversion_parity.json").read_text())
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)


class TestSearchParity:
    """(index, order, subsets) pinned from the order search: 20 seeded random
    tournaments for each n = 3..8, the 13 benchmark tournaments (on the
    n = 8 ones the best >= 4 probe cuts prefixes) and the classes of
    inversion_table(1..5).  Any change to a value, the lexicographically
    first optimal order or its clique witness shows here."""

    @staticmethod
    def result(t):
        value, cert = inversion_index(t)
        return [value, list(cert.order), list(cert.subsets)]

    def test_random_tournaments_3_to_8(self):
        rng = random.Random(19)
        for i, (arcs, *pinned) in enumerate(PARITY["random"]):
            t = random_tournament(rng, 3 + i % 6)
            assert list(t.arcs) == arcs
            assert self.result(t) == pinned, arcs

    def test_benchmark_tournaments(self):
        inputs = [
            Tournament.from_text(item["input"])
            for family in ("c3sum", "cn", "strongpath", "tournament")
            for _, pool in sorted(GOLDEN["pools"][family].items())
            for item in pool
        ]
        assert [list(t.arcs) for t in inputs] == [arcs for arcs, *_ in PARITY["golden"]]
        for t, (arcs, *pinned) in zip(inputs, PARITY["golden"]):
            assert self.result(t) == pinned, arcs

    def test_table_1_to_5(self):
        for n, pinned in PARITY["table"].items():
            table = inversion_table(int(n))
            assert [[list(rep.arcs), value] for rep, value in table] == pinned


class TestOracle:
    def test_three_cycle(self):
        assert inversion_index_oracle(three_cycle(), 1) == 1

    def test_acyclic(self):
        assert inversion_index_oracle(Tournament.acyclic(4), 0) == 0

    def test_five_vertex_attaining_two(self):
        attained = [
            t for t in enumerate_tournaments(5) if inversion_index(t)[0] == 2
        ]
        assert attained
        assert inversion_index_oracle(attained[0], 2) == 2

    def test_agreement_exhaustive_n4(self):
        for t in all_tournaments_labeled(4):
            assert inversion_index_oracle(t, 2) == inversion_index(t)[0]

    def test_agreement_all_5_classes(self):
        # i(5) = 2, so the oracle's sequence cap covers every class.
        for t in enumerate_tournaments(5):
            assert inversion_index_oracle(t, 2) == inversion_index(t)[0]

    def test_caps(self):
        with pytest.raises(CapacityError):
            inversion_index_oracle(Tournament.acyclic(6), 1)
        with pytest.raises(CapacityError):
            inversion_index_oracle(three_cycle(), 3)


def test_parity_replay_equivalence():
    # An arc ends up reversed iff it lies inside an odd number of subsets.
    rng = random.Random(6)
    for _ in range(80):
        n = rng.randint(1, 7)
        t = random_tournament(rng, n)
        subsets = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        sequential = apply_inversions(t, subsets)
        arcs = list(t.arcs)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                count = sum(
                    1 for s in subsets if (s >> i) & 1 and (s >> j) & 1
                )
                if t.has_arc(i, j) and count % 2:
                    arcs[i] &= ~(1 << j)
                    arcs[j] |= 1 << i
        assert Tournament(n, tuple(arcs)) == sequential


class TestGenerators:
    def test_c3_sum_1_is_three_cycle(self):
        assert gen_c3_sum(1) == three_cycle()

    def test_c3_sum_2_arc_counts(self):
        t = gen_c3_sum(2)
        assert t.n == 6
        internal = sum(
            1 for i in range(6) for j in range(6)
            if i // 3 == j // 3 and t.has_arc(i, j)
        )
        cross = sum(
            1 for i in range(3) for j in range(3, 6) if t.has_arc(i, j)
        )
        assert internal == 6 and cross == 9

    def test_c3_sum_out_degrees(self):
        for n in range(1, 5):
            t = gen_c3_sum(n)
            for i in range(n):
                for v in (3 * i, 3 * i + 1, 3 * i + 2):
                    assert t.out_degrees()[v] == 1 + 3 * (n - 1 - i)

    def test_block_certificate_bounds_index(self):
        # One 2-subset per block flips each 3-cycle to agree with the stacking
        # order, so n subsets always suffice.
        for n in range(1, 5):
            t = gen_c3_sum(n)
            subsets = [[3 * i, 3 * i + 2] for i in range(n)]
            assert is_acyclic(apply_inversions(t, subsets)) is not None

    def test_strong_path_small(self):
        assert gen_strong_path(2).arcs == (0b10, 0b00)
        assert gen_strong_path(3) == three_cycle()

    def test_strong_path_5_index_frozen(self):
        # Confirmed by the sequence oracle: no single subset works, two do.
        t = gen_strong_path(5)
        assert inversion_index_oracle(t, 2) == 2
        assert inversion_index(t)[0] == 2

    def test_antichain_c3_acyclic(self):
        assert is_acyclic(gen_antichain_cn(3)) is not None

    def test_antichain_cn_three_cycle_profile(self):
        # Frozen from brute-force triangle counting: the end vertices lie in
        # n-3 cycles (one consecutive triple plus the n-4 new triangles through
        # the reversed pair), the vertices next to them in exactly two, every
        # middle vertex in four; 2n-6 cycles in total.  For n >= 8 the ends
        # are therefore the unique maxima, which is what pins an embedding.
        for n in (7, 8, 9):
            t = gen_antichain_cn(n)
            counts = [three_cycles_through(t, v) for v in range(n)]
            assert counts[0] == counts[n - 1] == n - 3
            assert counts[1] == counts[n - 2] == 2
            assert all(counts[v] == 4 for v in range(2, n - 2))
            assert sum(counts) == 3 * (2 * n - 6)


class TestEmbeds:
    def test_reflexive(self):
        rng = random.Random(7)
        for _ in range(20):
            t = random_tournament(rng, rng.randint(1, 7))
            assert embeds(t, t)

    def test_cycle_not_in_acyclic(self):
        assert not embeds(three_cycle(), Tournament.acyclic(4))

    def test_antichain_7_to_9(self):
        cs = {n: gen_antichain_cn(n) for n in (7, 8, 9)}
        for m in (7, 8, 9):
            for n in (7, 8, 9):
                if m != n:
                    assert not embeds(cs[m], cs[n])

    def test_monotone_under_restriction(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 7)
            t = random_tournament(rng, n)
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            sub_arcs = [0] * len(keep)
            for a, u in enumerate(keep):
                for b, v in enumerate(keep):
                    if t.has_arc(u, v):
                        sub_arcs[a] |= 1 << b
            assert embeds(Tournament(len(keep), tuple(sub_arcs)), t)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            embeds(Tournament.acyclic(3), Tournament.acyclic(11))

    def test_matches_induced_class_oracle(self):
        # Oracle: p embeds in h iff some vertex subset of h induces a
        # tournament whose canonical form is p.  Every labeling of a class
        # representative maps to that representative, so the induced rows
        # of a subset look their canonical form up directly.  Hosts on six
        # vertices are the one-vertex extensions of the five-vertex classes
        # (every class restricts to one of them), duplicates included.
        patterns = [t for n in range(1, 6) for t in enumerate_tournaments(n)]
        canon = {}
        for p in patterns:
            for perm in permutations(range(p.n)):
                canon[relabel(p.arcs, perm)] = p
        hosts = patterns + [
            extended(t, beats_new)
            for t in enumerate_tournaments(5)
            for beats_new in range(1 << 5)
        ]
        for h in hosts:
            inside = {
                canon[induced(h.arcs, keep)]
                for k in range(1, min(h.n, 5) + 1)
                for keep in combinations(range(h.n), k)
            }
            for p in patterns:
                assert embeds(p, h) == (p in inside), (p.arcs, h.arcs)


class TestEnumerationAndTable:
    def test_class_counts(self):
        assert [len(enumerate_tournaments(n)) for n in range(1, 7)] == [
            1, 1, 2, 4, 12, 56,
        ]

    def test_matches_label_sweep_dedupe(self):
        for n in range(1, 6):
            brute = {canonical_form(t).arcs for t in all_tournaments_labeled(n)}
            assert sorted(brute) == [t.arcs for t in enumerate_tournaments(n)]

    def test_canonical_form_is_least_row_major_string(self):
        # Oracle: the matrix of every relabeling written out as a '0'/'1'
        # string, row by row with j ascending, and the least one kept.
        def least_string(t):
            return min(
                "".join("1" if (t.arcs[p[i]] >> p[j]) & 1 else "0"
                        for i in range(t.n) for j in range(t.n))
                for p in permutations(range(t.n))
            )

        def as_string(t):
            return "".join(str((row >> j) & 1) for row in t.arcs for j in range(t.n))

        rng = random.Random(15)
        cases = [t for n in range(5) for t in all_tournaments_labeled(n)]
        cases += [random_tournament(rng, n) for n in (5, 6) for _ in range(8)]
        for t in cases:
            assert as_string(canonical_form(t)) == least_string(t)

    def test_canonical_form_is_invariant(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 6)
            t = random_tournament(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(Tournament(n, relabel(t.arcs, perm))) == canonical_form(t)

    def test_table_small(self):
        assert [max(i for _, i in inversion_table(n)) for n in range(1, 6)] == [0, 0, 1, 1, 2]

    def test_table_cache_reused(self):
        cache: dict[str, int] = {}
        assert max(i for _, i in inversion_table(4, index_cache=cache)) == 1
        assert len(cache) == 4
        poisoned = {k: 7 for k in cache}
        assert max(i for _, i in inversion_table(4, index_cache=poisoned)) == 7

    def test_cached_classes_are_not_computed(self, monkeypatch):
        full: dict[str, int] = {}
        table = inversion_table(4, index_cache=full)
        keys = [rep.to_text() for rep, _ in table]
        assert list(full) == keys
        batches, computed = [], []
        run = tournaments.run_tasks
        index = tournaments.inversion_index

        def spy_run(tasks):
            batches.append(len(tasks))
            return run(tasks)

        def spy_index(t, **kwargs):
            computed.append(t.to_text())
            return index(t, **kwargs)

        monkeypatch.setattr(tournaments, "run_tasks", spy_run)
        monkeypatch.setattr(tournaments, "inversion_index", spy_index)
        assert inversion_table(4, index_cache=dict(full)) == table
        assert batches == [0] and computed == []
        half = {key: full[key] for key in keys[::2]}
        assert inversion_table(4, index_cache=half) == table
        assert batches == [0, 2] and computed == keys[1::2]
        assert half == full

    def test_table_capacity(self):
        with pytest.raises(CapacityError):
            max(i for _, i in inversion_table(7))

    def test_table_rejects_bad_budget_on_full_cache(self):
        # The budget is checked before the cache is read, so a cache that
        # holds every class cannot hide a malformed one.
        cache: dict[str, int] = {}
        assert max(i for _, i in inversion_table(3, index_cache=cache)) == 1
        assert len(cache) == 2
        for budget in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="budget"):
                max(i for _, i in inversion_table(3, budget_s=budget, index_cache=cache))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(30):
            t = random_tournament(rng, rng.randint(1, 9))
            assert Tournament.from_text(t.to_text()) == t

    def test_bad_inputs(self):
        with pytest.raises(FormatError):
            Tournament.from_text("")
        with pytest.raises(FormatError):
            Tournament.from_text("x\n")
        with pytest.raises(FormatError):
            Tournament.from_text("2\n01\n")
        with pytest.raises(FormatError):
            Tournament.from_text("2\n01\n01\n")  # self-arc at vertex 1
        with pytest.raises(FormatError):
            Tournament.from_text("2\n0a\n10\n")
