"""Graph model, Boolean sums, generators, duos, and text formats."""

from __future__ import annotations

import random
import time

import networkx as nx
import pytest

from booldim.errors import CapacityError, FormatError
from booldim.graphs import (
    CliqueFamily,
    Graph,
    boolean_sum,
    clique_graph,
    complete_graph,
    cycle_graph,
    find_duo,
    ortho_graph,
    ortho_graph_H,
    parse_edge_list,
    parse_graph6,
    path_graph,
    realize,
    validate_representation,
    write_edge_list,
    write_graph6,
)
from booldim.tournaments import Tournament, gen_antichain_cn, gen_c3_sum, gen_strong_path
from conftest import max_clique_size, perturbed, random_graph, random_symmetric_rows, row_tuples


def graph_of_form(gram) -> Graph:
    """Non-orthogonality graph of the symmetric form with Gram rows ``gram``
    on F2^d: vertex x is the coefficient vector x, and x ~ y iff x^T B y = 1."""
    d = len(gram)

    def form(x: int, y: int) -> int:
        by = 0
        for i in range(d):
            if (y >> i) & 1:
                by ^= gram[i]
        return (x & by).bit_count() & 1

    size = 1 << d
    return Graph.from_edges(
        size, [(x, y) for x in range(size) for y in range(x + 1, size) if form(x, y)]
    )


class TestGraphRows:
    @staticmethod
    def valid(rows) -> bool:
        """Oracle: rows inside the vertex range, no loop, symmetric pairs."""
        n = len(rows)
        if not all(0 <= row < 1 << n for row in rows):
            return False
        bit = [[(row >> j) & 1 for j in range(n)] for row in rows]
        return all(
            bit[i][j] == bit[j][i] and not bit[i][i] for i in range(n) for j in range(n)
        )

    def check(self, rows):
        if self.valid(rows):
            assert Graph(len(rows), rows).adj == rows
        else:
            with pytest.raises(ValueError):
                Graph(len(rows), rows)

    def test_every_row_tuple_to_3(self):
        for n in range(4):
            for rows in row_tuples(n):
                self.check(rows)

    def test_random_perturbed_rows_to_8(self):
        rng = random.Random(8)
        for _ in range(3000):
            rows = random_symmetric_rows(rng, rng.randint(1, 8))
            self.check(perturbed(rng, rows))

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, (0b10, 0b00))


GENERATORS = [path_graph, cycle_graph, complete_graph, Tournament.acyclic,
              gen_strong_path, gen_antichain_cn, gen_c3_sum]


@pytest.mark.parametrize("generate", GENERATORS, ids=lambda f: f.__name__)
def test_generators_check_the_cap_before_building(generate):
    # Rows of 20,000 vertices would take n^2/2 bits and tens of seconds to
    # build; the cap refuses the size first.  gen_c3_sum(k) has 3k vertices.
    blocks = 3 if generate is gen_c3_sum else 1
    for n in (65, 20_000):
        started = time.perf_counter()
        with pytest.raises(CapacityError):
            generate((n + blocks - 1) // blocks)
        assert time.perf_counter() - started < 0.5


class TestInduced:
    def test_out_of_range(self):
        for v in (-1, 3):
            with pytest.raises(ValueError, match="outside"):
                path_graph(3).induced([0, v])


class TestBooleanSum:
    def test_self_inverse(self):
        rng = random.Random(0)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 8))
            assert boolean_sum([g, g]).adj == (0,) * g.n

    def test_star_from_two_cliques(self):
        # Clique on {hub + leaves} XOR clique on {leaves} leaves only the hub edges.
        for m in range(2, 6):
            big = clique_graph(m + 1, range(m + 1))
            small = clique_graph(m + 1, range(1, m + 1))
            star = boolean_sum([big, small])
            assert sorted(star.edges()) == [(0, i) for i in range(1, m + 1)]

    def test_cycle_from_smaller_cycle_and_triangle(self):
        for n in range(4, 9):
            cn_minus = Graph.from_edges(
                n, [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
            )
            triangle = clique_graph(n, [0, n - 2, n - 1])
            assert boolean_sum([cn_minus, triangle]).adj == cycle_graph(n).adj

    def test_commutative_associative(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(1, 7)
            a, b, c = (random_graph(rng, n) for _ in range(3))
            assert boolean_sum([a, b]).adj == boolean_sum([b, a]).adj
            assert (
                boolean_sum([boolean_sum([a, b]), c]).adj
                == boolean_sum([a, boolean_sum([b, c])]).adj
            )

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            boolean_sum([Graph.empty(2), Graph.empty(3)])


class TestCliqueGraph:
    def test_empty_subset(self):
        assert clique_graph(5, []).adj == (0,) * 5

    def test_single_edge(self):
        assert clique_graph(5, [0, 1]).edges() == [(0, 1)]

    def test_complete(self):
        assert clique_graph(4, range(4)).edge_count() == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            clique_graph(3, [3])


class TestRealize:
    def test_empty_family(self):
        assert realize(CliqueFamily(4, ())).adj == (0,) * 4

    def test_star_family(self):
        fam = CliqueFamily(4, (0b1111, 0b1110))
        assert sorted(realize(fam).edges()) == [(0, 1), (0, 2), (0, 3)]

    def test_full_vertex_set(self):
        assert realize(CliqueFamily(5, ((1 << 5) - 1,))).adj == complete_graph(5).adj


class TestFindDuo:
    def test_two_isolated(self):
        assert find_duo(Graph.empty(2)) == (0, 1)

    def test_ortho3_has_none(self):
        assert find_duo(ortho_graph(3)) is None

    def test_degenerate_form_kernel_gives_duo(self):
        # Form with e_0 in the kernel: {zero vector, kernel vector} is a module.
        g = graph_of_form((0b00, 0b10))
        assert find_duo(g) == (0, 1)

    def test_adjacent_duo_found(self):
        assert find_duo(complete_graph(3)) == (0, 1)


class TestOrthoGraphs:
    def test_k1_two_isolated(self):
        g = ortho_graph(1)
        assert g.n == 2 and g.edge_count() == 0

    def test_k2_path_plus_isolated(self):
        g = ortho_graph(2)
        assert g.n == 4
        assert sorted(g.degrees()) == [0, 1, 1, 2]
        assert g.edge_count() == 2

    def test_k0_single_vertex(self):
        g = ortho_graph(0)
        assert g.n == 1 and g.edge_count() == 0

    def test_h2_triangle_plus_isolated(self):
        g = ortho_graph_H(2)
        assert g.n == 4
        assert sorted(g.degrees()) == [0, 2, 2, 2]
        assert g.edge_count() == 3

    def test_h_vertex_count(self):
        for k in (0, 2, 4):
            assert ortho_graph_H(k).n == 1 << k

    def test_h_rejects_odd(self):
        with pytest.raises(ValueError):
            ortho_graph_H(3)

    def test_caps(self):
        with pytest.raises(CapacityError):
            ortho_graph(6)

    def test_edge_counts_differ_from_hyperplane_variant(self):
        for k in (2, 4):
            assert ortho_graph(k).edge_count() != ortho_graph_H(k).edge_count()


class TestValidateRepresentation:
    def test_incident_edge_sets_always_represent(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            f = {v: {e for e in g.edges() if v in e} for v in range(g.n)}
            assert validate_representation(g, f)

    def test_constant_empty_fails_with_edges(self):
        g = path_graph(3)
        assert not validate_representation(g, {v: set() for v in range(3)})

    def test_identity_subsets_represent_ortho_graph(self):
        for k in range(4):
            g = ortho_graph(k)
            f = {v: {i for i in range(k) if (v >> i) & 1} for v in range(g.n)}
            assert validate_representation(g, f)


class TestGraph6:
    def test_empty_one_vertex(self):
        assert write_graph6(Graph.empty(1)) == "@"
        assert parse_graph6("@").n == 1

    def test_round_trip_small(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            s = write_graph6(g)
            assert parse_graph6(s).adj == g.adj
            assert write_graph6(parse_graph6(s)) == s

    def test_cross_check_networkx(self):
        rng = random.Random(4)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 30), rng.random())
            ours = write_graph6(g)
            theirs = nx.to_graph6_bytes(
                nx.from_edgelist(g.edges()) if g.edges() else nx.empty_graph(g.n),
                header=False,
            ).strip().decode()
            if g.edges():
                # networkx relabels nothing here: vertices already 0..n-1, but
                # isolated tail vertices are dropped by from_edgelist; rebuild.
                h = nx.Graph()
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
                theirs = nx.to_graph6_bytes(h, header=False).strip().decode()
            assert ours == theirs
            back = nx.from_graph6_bytes(ours.encode())
            assert set(back.edges()) == set(map(tuple, g.edges()))

    def test_long_form(self):
        g = Graph.empty(63)
        s = write_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s).n == 63

    def test_header_prefix_accepted(self):
        g = path_graph(5)
        assert parse_graph6(">>graph6<<" + write_graph6(g)).adj == g.adj

    def test_malformed_header_offset(self):
        with pytest.raises(FormatError) as err:
            parse_graph6("\x7fabc")
        assert err.value.offset == 0

    def test_truncated_payload_offset(self):
        s = write_graph6(complete_graph(10))
        with pytest.raises(FormatError) as err:
            parse_graph6(s[:-2])
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self):
        s = write_graph6(complete_graph(5))
        with pytest.raises(FormatError):
            parse_graph6(s + "??")


class TestEdgeList:
    def test_round_trip(self):
        g = path_graph(6)
        assert parse_edge_list(write_edge_list(g)).adj == g.adj

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\n0 1\n\n1 2  # tail comment\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_bad_line(self):
        with pytest.raises(FormatError):
            parse_edge_list("0 1 2\n")

    def test_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 3\n")


def test_max_clique_size():
    assert max_clique_size(complete_graph(6)) == 6
    assert max_clique_size(path_graph(5)) == 2
    assert max_clique_size(Graph.empty(4)) == 1
    assert max_clique_size(cycle_graph(5)) == 2
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        # Oracle: check all vertex subsets.
        best = 0
        for mask in range(1 << g.n):
            vs = [v for v in range(g.n) if (mask >> v) & 1]
            if all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]):
                best = max(best, len(vs))
        assert max_clique_size(g) == best
