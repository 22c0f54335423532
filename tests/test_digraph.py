"""Digraph construction, complement, connectivity, walk counts, I/O.

Core claims:
    - build_digraph merges repeated loops into multiplicities and
      rejects parallel non-loop arcs and out-of-range endpoints
    - complement is the loopless complement, an involution on simple
      digraphs, with arc counts summing to n(n-1)
    - strong connectivity and cycle gcd match the worked instances and
      a walk_count reference (reachability, closed-walk lengths up to n)
      on seeded cycles and paths with chords and loops
    - walk_count(d, k) equals A^k exactly, agrees with brute-force
      walk enumeration for small digraphs, and is multiplicative in k
    - the 0-based successor table, the product A v and walk_row agree
      with the adjacency matrix; out-of-range arcs have multiplicity 0
    - text and JSON serializations round-trip
"""

import math
import random

import pytest

from digraph_spectra import (
    Digraph,
    FamilySpec,
    IndexOutOfRange,
    NotSimple,
    NotStronglyConnected,
    ParallelNonLoopArc,
    build_digraph,
    build_family,
    complement,
    cycle_gcd,
    is_strongly_connected,
    walk_count,
)
from digraph_spectra.digraph import (
    from_json,
    from_text,
    to_json,
    to_text,
    walk_row,
)

from conftest import mat_mul


def _cycle(n):
    return build_digraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _random_simple(rng, n, p=0.4):
    arcs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < p
    ]
    return build_digraph(n, arcs)


def _brute_walks(d, i, j, k):
    if k == 0:
        return 1 if i == j else 0
    total = 0
    for head, mult in d.successors(i):
        total += mult * _brute_walks(d, head, j, k - 1)
    return total


# -- construction -----------------------------------------------------


class TestBuild:
    def test_triangle(self):
        d = _cycle(3)
        assert d.n == 3
        assert d.arc_count == 3
        assert d.has_arc(1, 2) and d.has_arc(2, 3) and d.has_arc(3, 1)
        assert not d.has_arc(2, 1)

    def test_loop_multiplicities_merge(self):
        d = build_digraph(1, [(1, 1, 3)])
        assert d.multiplicity(1, 1) == 3
        d2 = build_digraph(2, [(1, 1), (1, 1), (1, 2)])
        assert d2.multiplicity(1, 1) == 2
        assert not d2.is_simple

    def test_parallel_non_loop_rejected(self):
        with pytest.raises(ParallelNonLoopArc):
            build_digraph(2, [(1, 2), (1, 2)])
        with pytest.raises(ParallelNonLoopArc):
            build_digraph(3, [(2, 3, 2)])

    def test_endpoints_in_range(self):
        with pytest.raises(IndexOutOfRange):
            build_digraph(3, [(1, 4)])
        with pytest.raises(IndexOutOfRange):
            build_digraph(3, [(0, 2)])
        with pytest.raises(ValueError):
            build_digraph(0, [])

    def test_adjacency_matrix(self):
        d = build_digraph(2, [(1, 1, 2), (1, 2)])
        assert d.adjacency_matrix() == [[2, 1], [0, 0]]

    def test_successors_sorted(self):
        d = build_digraph(4, [(1, 4), (1, 2), (1, 3)])
        assert d.successors(1) == ((2, 1), (3, 1), (4, 1))
        assert d.successors(2) == ()

    def test_value_equality(self):
        a = build_digraph(3, [(1, 2), (2, 3)])
        b = build_digraph(3, [(2, 3), (1, 2)])
        assert a == b


class TestSuccessorTable:
    """``Digraph.rows`` is 0-based while arcs and vertices are 1-based."""

    def test_out_of_range_endpoints_have_no_arcs(self):
        """Every vertex, the last ones included, has an arc to every
        vertex, so an index that wraps around to the last rows finds one."""
        for n in (1, 2, 5):
            everything = [(i, j, 3 if i == j else 1) for i in range(1, n + 1) for j in range(1, n + 1)]
            d = build_digraph(n, everything)
            for bad in (0, -1, n + 1):
                for v in range(1, n + 1):
                    assert d.multiplicity(bad, v) == 0 and not d.has_arc(bad, v)
                    assert d.multiplicity(v, bad) == 0 and not d.has_arc(v, bad)
                with pytest.raises(IndexOutOfRange):
                    d.successors(bad)
            for bad in (-1, n):
                with pytest.raises(IndexOutOfRange):
                    walk_row(d, bad, 1)

    def test_rows_product_and_walk_rows_match_the_matrix(self):
        """Seeded digraphs with sinks, full rows and loop multiplicities
        up to 4, n = 1 included."""
        rng = random.Random(1111)
        for n in [1] * 5 + [rng.randint(2, 8) for _ in range(60)]:
            density = [rng.choice([0.0, 0.3, 0.7, 1.0]) for _ in range(n)]
            arcs = [
                (i, j, rng.randint(1, 4) if i == j else 1)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if rng.random() < density[i - 1]
            ]
            d = build_digraph(n, arcs)
            a = d.adjacency_matrix()
            assert [list(row) for row in d.rows] == [
                [(j, a[i][j]) for j in range(n) if a[i][j]] for i in range(n)
            ]
            v = [rng.randint(-5, 5) for _ in range(n)]
            assert d.times(v) == [row[0] for row in mat_mul(a, [[x] for x in v])]
            power = [[int(i == j) for j in range(n)] for i in range(n)]
            for k in range(5):
                assert [walk_row(d, i, k) for i in range(n)] == power, (arcs, k)
                power = mat_mul(power, a)


# -- complement -------------------------------------------------------


class TestComplement:
    def test_triangle_reverses(self):
        d = complement(_cycle(3))
        assert d.has_arc(2, 1) and d.has_arc(3, 2) and d.has_arc(1, 3)
        assert d.arc_count == 3

    def test_involution_and_arc_count(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 7)
            d = _random_simple(rng, n)
            c = complement(d)
            assert complement(c) == d
            assert d.arc_count + c.arc_count == n * (n - 1)

    def test_matches_validated_build(self):
        """The complement skips revalidation, so it must be exactly the
        digraph that build_digraph makes from the same arcs."""
        rng = random.Random(2606)
        for _ in range(40):
            n = rng.randint(1, 12)
            d = _random_simple(rng, n, p=rng.random())
            arcs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and not d.has_arc(i, j)
            ]
            c = complement(d)
            assert c == build_digraph(n, arcs)
            assert complement(c) == d

    def test_no_loops_ever(self):
        d = build_digraph(3, [])
        c = complement(d)
        assert all(not c.has_arc(v, v) for v in range(1, 4))
        assert c.arc_count == 6

    def test_requires_simple(self):
        with pytest.raises(NotSimple):
            complement(build_digraph(2, [(1, 1), (1, 2)]))


# -- connectivity and cycle structure ---------------------------------


class TestConnectivity:
    def test_cycle_is_strong(self):
        assert is_strongly_connected(_cycle(8))

    def test_path_is_not(self):
        assert not is_strongly_connected(build_digraph(3, [(1, 2), (2, 3)]))

    def test_even_alternating_fan_is_reducible(self):
        # the even fan's last rim vertex has no out-arc
        d = build_family(FamilySpec("ADF", 6))
        assert not is_strongly_connected(d)

    def test_single_vertex(self):
        assert is_strongly_connected(build_digraph(1, []))

    def test_cycle_gcd_of_pure_cycle(self):
        assert cycle_gcd(_cycle(6)) == 6

    def test_cycle_gcd_of_odd_fan(self):
        # cycle lengths 3 and 5 meet at the hub; gcd(3, 5) = 1
        assert cycle_gcd(build_family(FamilySpec("ADF", 5))) == 1

    def test_cycle_gcd_needs_strong_connectivity(self):
        with pytest.raises(NotStronglyConnected):
            cycle_gcd(build_digraph(3, [(1, 2), (2, 3)]))

    def test_loop_forces_gcd_one(self):
        d = build_digraph(2, [(1, 2), (2, 1), (1, 1)])
        assert cycle_gcd(d) == 1

    def test_matches_walk_count_reference(self):
        """Seeded digraphs (a cycle or path plus random chords and loops):
        strongly connected iff every entry of I + A + ... + A^(n-1) is
        positive, and the cycle gcd is the gcd of the k <= n with a
        closed walk of length k, since every closed walk splits into
        cycles of length at most n."""
        rng = random.Random(4044)
        gcds = []
        for _ in range(150):
            n = rng.randint(1, 9)
            order = rng.sample(range(1, n + 1), n)
            arcs = {(u, v) for u, v in zip(order, order[1:] + order[:1]) if u != v}
            if rng.random() < 0.2:
                arcs.discard((order[-1], order[0]))
            step = rng.randint(1, n)
            chords = rng.sample(range(n), rng.randint(0, min(n, 2)))
            arcs |= {(order[i], order[(i + step) % n]) for i in chords}
            d = build_digraph(n, sorted(arcs))
            powers = [walk_count(d, k) for k in range(1, n + 1)]
            strong = all(
                i == j or any(p.entry(i, j) for p in powers[:-1] or [powers[0]])
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            )
            assert is_strongly_connected(d) is strong, d.arcs
            if not strong:
                continue
            g = 0
            for k, p in enumerate(powers, 1):
                if any(p.entry(i, i) for i in range(1, n + 1)):
                    g = math.gcd(g, k)
            assert cycle_gcd(d) == g, d.arcs
            gcds.append(g)
        assert gcds.count(1) > 20 and sum(g > 1 for g in gcds) > 20 and gcds.count(0) >= 1


# -- walk counts ------------------------------------------------------


class TestWalkCount:
    def test_cycle_closed_walks(self):
        w = walk_count(_cycle(3), 3)
        for i in range(1, 4):
            for j in range(1, 4):
                assert w.entry(i, j) == (1 if i == j else 0)

    def test_zero_power_is_identity(self):
        w = walk_count(_cycle(3), 0)
        assert [list(row) for row in w.entries] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_odd_fan_no_length8_walk_6_to_3(self):
        d = build_family(FamilySpec("ADF", 7))
        assert walk_count(d, 8).entry(6, 3) == 0

    def test_multiplicities_multiply(self):
        d = build_digraph(1, [(1, 1, 3)])
        assert walk_count(d, 4).entry(1, 1) == 81

    def test_power_law(self):
        rng = random.Random(5)
        for _ in range(15):
            d = _random_simple(rng, rng.randint(2, 6))
            k1, k2 = rng.randint(0, 6), rng.randint(0, 6)
            lhs = [list(row) for row in walk_count(d, k1 + k2).entries]
            rhs = mat_mul(
                [list(r) for r in walk_count(d, k1).entries],
                [list(r) for r in walk_count(d, k2).entries],
            )
            assert lhs == rhs

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(2, 7)
            d = _random_simple(rng, n)
            for k in range(0, n + 1):
                w = walk_count(d, k)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        assert w.entry(i, j) == _brute_walks(d, i, j, k)

    def test_entry_bounds_checked(self):
        w = walk_count(_cycle(3), 2)
        with pytest.raises(IndexOutOfRange):
            w.entry(0, 1)
        with pytest.raises(IndexOutOfRange):
            w.entry(1, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            walk_count(_cycle(3), -1)


# -- serialization ----------------------------------------------------


class TestSerialization:
    def test_text_round_trip(self):
        d = build_digraph(3, [(1, 2), (2, 3), (3, 1), (1, 1), (1, 1)])
        t = to_text(d)
        assert t.splitlines()[0] == "3"
        assert from_text(t) == d

    def test_text_loop_multiplicity_field(self):
        d = build_digraph(2, [(1, 1, 2), (1, 2)])
        lines = to_text(d).splitlines()
        assert "1 1 2" in lines

    def test_json_round_trip(self):
        d = build_digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 2)])
        assert from_json(to_json(d)) == d

    def test_json_is_deterministic(self):
        d = build_digraph(3, [(3, 1), (1, 2), (2, 3)])
        assert to_json(d) == to_json(from_json(to_json(d)))

    def test_from_text_bad_header(self):
        with pytest.raises(ValueError):
            from_text("not-a-number\n1 2\n")

    def test_from_text_bad_arc_line(self):
        with pytest.raises(ValueError):
            from_text("3\n1 2 3 4\n")

    def test_digraph_is_hashable(self):
        a = build_digraph(2, [(1, 2)])
        b = build_digraph(2, [(1, 2)])
        assert len({a, b}) == 1
        assert isinstance(a, Digraph)
