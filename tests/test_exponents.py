"""Primitivity, exact exponents, witness pairs, walk checking.

Core claims:
    - primitivity matches the worked instances (cycles are irreducible
      but imprimitive; even fans are reducible; the full fan is
      primitive thanks to the hub loop)
    - exponents match the worked instances, including the extremal
      digraph meeting the Wielandt bound exactly
    - the witness pair is the lexicographically smallest zero of
      A^(e-1), cross-checked with exact integer powers; exponent and
      witness match a walk_count reference on seeded random strongly
      connected digraphs, and on cycles with one to three added arcs or
      weighted loops, where most vertices have one successor
    - the stated no-walk pair of the full-fan row is refuted by direct
      computation: the hub loop supplies a walk of length n-1 from
      vertex n-1 to 2, and the genuinely zero row is row 2
    - walk templates of length 9 cover every vertex pair of the odd
      alternating fan and every template step is a real arc
"""

import random

import pytest

from digraph_spectra import (
    ExponentResult,
    FamilySpec,
    InvalidParameter,
    alternating_fan_walks_length9,
    build_digraph,
    build_family,
    check_walks,
    exponent,
    expected_exponent,
    expected_no_walk_pair,
    is_primitive,
    table_specs,
    verify_walk_list,
    walk_count,
)


def _fam(name, n, **kw):
    return build_family(FamilySpec(name, n, **kw))


def _reference_exponent(d):
    """Exponent and witness from exact matrix powers, up to the
    (n-1)^2 + 1 bound; imprimitive when no power up to it is positive."""
    for k in range(1, (d.n - 1) ** 2 + 2):
        if all(v > 0 for row in walk_count(d, k).entries for v in row):
            if k == 1:
                return ExponentResult(True, 1, None)
            prev = walk_count(d, k - 1)
            witness = min(
                (i, j)
                for i in range(1, d.n + 1)
                for j in range(1, d.n + 1)
                if prev.entry(i, j) == 0
            )
            return ExponentResult(True, k, witness)
    return ExponentResult(False, None, None)


# -- primitivity ------------------------------------------------------


class TestPrimitivity:
    def test_cycle_is_imprimitive(self):
        assert not is_primitive(_fam("DCn", 6))

    def test_even_fan_is_reducible(self):
        assert not is_primitive(_fam("ADF", 6))

    def test_full_fan_is_primitive(self):
        assert is_primitive(_fam("PDF", 5))

    def test_two_cycle(self):
        d = build_digraph(2, [(1, 2), (2, 1)])
        assert not is_primitive(d)
        assert exponent(d) == ExponentResult(False, None, None)

    def test_loop_makes_cycle_primitive(self):
        d = build_digraph(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
        assert is_primitive(d)


# -- exponent values --------------------------------------------------


class TestExponentValues:
    def test_odd_fan_seven(self):
        r = exponent(_fam("ADF", 7))
        assert r.exponent == 9
        assert walk_count(_fam("ADF", 7), 8).entry(6, 3) == 0

    def test_odd_fan_five_is_special(self):
        assert exponent(_fam("ADF", 5)).exponent == 12

    def test_odd_wheel_eleven(self):
        d = _fam("ADW", 11)
        r = exponent(d)
        assert r.exponent == 6
        # the tabulated pair (n-2, 2) is a zero; the lexicographically
        # smallest zero reported as witness is (1, 2)
        assert walk_count(d, 5).entry(9, 2) == 0
        assert r.witness_pair == (1, 2)

    def test_cycle_complement(self):
        assert exponent(_fam("DCc", 5)).exponent == 2

    def test_wielandt_extremal_digraph(self):
        # cycle plus the single arc n -> 2 attains (n-1)^2 + 1
        for n in (4, 5, 6):
            arcs = [(i, i % n + 1) for i in range(1, n + 1)] + [(n, 2)]
            r = exponent(build_digraph(n, arcs))
            assert r.exponent == (n - 1) ** 2 + 1


class TestExponentInvariants:
    def test_positivity_and_witness_on_sweep(self):
        for spec in table_specs("exponents", 10, 12):
            try:
                d = build_family(spec)
            except InvalidParameter:
                continue
            r = exponent(d)
            if not r.primitive:
                continue
            e = r.exponent
            assert e <= (d.n - 1) ** 2 + 1
            full = walk_count(d, e)
            assert all(v > 0 for row in full.entries for v in row), spec.to_text()
            prev = walk_count(d, e - 1)
            assert prev.entry(*r.witness_pair) == 0, spec.to_text()
            after = walk_count(d, e + 1)
            assert all(v > 0 for row in after.entries for v in row), spec.to_text()

    def test_matches_walk_count_reference(self):
        """Seeded random strongly connected digraphs (a Hamiltonian cycle
        plus random arcs and weighted loops, then a cycle plus one to
        three arcs or loops): the exponent is the least k with A^k > 0
        and the witness the smallest zero of A^(k-1)."""
        rng = random.Random(6061)
        primitive = 0
        for _ in range(60):
            n = rng.randint(1, 9)
            order = rng.sample(range(1, n + 1), n)
            arcs = {(u, v) for u, v in zip(order, order[1:] + order[:1]) if u != v}
            p = rng.choice([0.05, 0.15, 0.5])
            arcs |= {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < p}
            d = build_digraph(n, [(i, j, rng.randint(1, 3) if i == j else 1) for i, j in arcs])
            result = exponent(d)
            assert result == _reference_exponent(d)
            primitive += result.primitive
        assert primitive >= 20
        # the paper's shape: a cycle plus one to three arcs or weighted
        # loops, so most vertices have one successor and the powers grow
        # only through the extra arcs
        sparse = 0
        for _ in range(80):
            n = rng.randint(2, 9)
            order = rng.sample(range(1, n + 1), n)
            arcs = {(u, v, 1) for u, v in zip(order, order[1:] + order[:1])}
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randint(1, n), rng.randint(1, n)
                arcs.add((i, j, rng.randint(1, 3) if i == j else 1))
            d = build_digraph(n, list({(i, j): (i, j, w) for i, j, w in arcs}.values()))
            result = exponent(d)
            assert result == _reference_exponent(d), d.arcs
            single = sum(len(row) == 1 for row in d.rows)
            sparse += result.primitive and 2 * single > n and result.exponent > 2
        assert sparse >= 25

    def test_witness_is_lexicographically_smallest(self):
        rng = random.Random(31)
        count = 0
        while count < 12:
            n = rng.randint(2, 6)
            arcs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if rng.random() < 0.5
            ]
            d = build_digraph(n, arcs)
            r = exponent(d)
            if not r.primitive or r.exponent < 2:
                continue
            count += 1
            prev = walk_count(d, r.exponent - 1)
            zeros = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if prev.entry(i, j) == 0
            ]
            assert zeros and min(zeros) == r.witness_pair


# -- the stated full-fan pair is wrong --------------------------------


class TestFullFanWitnessRefutation:
    """The tabulated no-walk pair for the full fan is (n-1, 2).  The hub
    loop refutes it: n-1 -> n -> 1 -> 1 ... 1 -> 2 is a walk of length
    n-1.  These tests pin the computed truth; acceptance criterion 5
    keeps the tabulated pair and asserts this refutation exactly."""

    @pytest.mark.parametrize("n", [5, 10, 15, 20])
    def test_tabulated_pair_has_a_walk(self, n):
        d = _fam("PDF", n)
        assert exponent(d).exponent == n
        assert walk_count(d, n - 1).entry(n - 1, 2) > 0

    def test_refuting_walk_is_explicit(self):
        d = _fam("PDF", 5)
        assert verify_walk_list(d, [(4, 5, 1, 1, 2)])

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_row_two_is_the_genuine_zero_row(self, n):
        d = _fam("PDF", n)
        prev = walk_count(d, n - 1)
        for j in range(2, n + 1):
            assert prev.entry(2, j) == 0
        assert prev.entry(2, 1) > 0
        assert exponent(d).witness_pair == (2, 2)


# -- expected-value helpers -------------------------------------------


class TestExpectedTables:
    def test_expected_exponents(self):
        assert expected_exponent("PDF", 13) == 13
        assert expected_exponent("kDF", 12) == 10
        assert expected_exponent("kDF", 13) == 11
        assert expected_exponent("HDF", 10) == 11
        assert expected_exponent("ADW", 11) == 6
        assert expected_exponent("ADW", 12) == 7
        assert expected_exponent("kDW", 14) == 17
        assert expected_exponent("kDW", 15) == 18
        assert expected_exponent("ADF", 9) == 9
        assert expected_exponent("ADF", 5) == 12
        assert expected_exponent("ADF", 8) is None
        assert expected_exponent("DCc", 10) == 2
        assert expected_exponent("TDF", 10) is None

    def test_expected_pairs(self):
        assert expected_no_walk_pair("ADF", 7) == (6, 3)
        assert expected_no_walk_pair("PDF", 10) == (9, 2)
        assert expected_no_walk_pair("kDF", 12) == (7, 2)
        assert expected_no_walk_pair("HDF", 10) == (2, 10)
        assert expected_no_walk_pair("ADW", 11) == (9, 2)
        assert expected_no_walk_pair("ADW", 12) == (9, 2)
        assert expected_no_walk_pair("kDW", 14) == (8, 9)
        assert expected_no_walk_pair("DCc", 10) is None

    def test_expected_matches_computation_except_full_fan(self):
        for spec in table_specs("exponents", 10, 13):
            try:
                d = build_family(spec)
            except InvalidParameter:
                continue
            want = expected_exponent(spec.family, spec.n)
            if want is None:
                continue
            r = exponent(d)
            assert r.exponent == want, spec.to_text()
            pair = expected_no_walk_pair(spec.family, spec.n)
            if pair is None:
                continue
            zero = walk_count(d, r.exponent - 1).entry(*pair) == 0
            assert zero == (spec.family != "PDF"), spec.to_text()


# -- walk checking ----------------------------------------------------


class TestWalkChecks:
    def test_valid_walk(self):
        d = _fam("ADF", 7)
        assert check_walks(d, [(1, 2, 3, 1, 2, 3, 1, 2, 3, 1)]) == [None]

    def test_missing_arc_reported(self):
        d = _fam("ADF", 7)
        (reason,) = check_walks(d, [(1, 2, 4)])
        assert "missing arc" in reason and "(2, 4)" in reason

    def test_degenerate_walks_reported(self):
        d = _fam("ADF", 7)
        reasons = check_walks(d, [(3,), (0, 1), (9, 1)])
        assert reasons[0] == "walk (3,) has no arcs"
        assert "vertex range" in reasons[1]
        assert "vertex range" in reasons[2]

    def test_verify_walk_list(self):
        d = _fam("ADF", 7)
        assert verify_walk_list(d, [(1, 2, 3, 1), (7, 1, 2, 3)])
        assert not verify_walk_list(d, [(1, 2, 3, 1), (1, 3)])


class TestWalkTemplates:
    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_templates_cover_every_pair_with_real_arcs(self, n):
        d = _fam("ADF", n)
        walks = alternating_fan_walks_length9(n)
        pairs = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        assert set(walks) == pairs
        for (i, j), walk in walks.items():
            assert walk[0] == i and walk[-1] == j
            assert len(walk) == 10
            assert check_walks(d, [walk]) == [None], (i, j)

    def test_templates_need_odd_n_at_least_seven(self):
        with pytest.raises(ValueError):
            alternating_fan_walks_length9(6)
        with pytest.raises(ValueError):
            alternating_fan_walks_length9(5)
