"""Characteristic polynomials by two routes, minimal polynomials,
non-derogatory status and the triangular certificate.

Core claims:
    - the trace-recursion route and the cycle-cover route agree on the
      worked example, on family sweeps, and on seeded random digraphs
      (the full 200-case oracle run lives in the acceptance suite), also
      with the shared product A v and walk push patched to raise
    - the clow-sequence route reproduces the term sum of the listed
      covers (loop multiplicities, sinks, and sparse digraphs where most
      vertices are not re-entered and so are no heads, many re-entered by
      their own loop alone), and the trace recursion on every
      default-table row with n = 13..20, on the 126 exponents rows at
      n = 21..32 and on DCc at n=24
    - its one walk pass, every head in its own bit slot, matches the
      trace recursion on 300 seeded digraphs with n <= 12, loops of
      multiplicity 1..4 and densities up to complete, more than 50 of
      them relabelled to fewer heads, and on the complete digraph with
      loops of multiplicity 3 at n = 8; the default cap is the largest
      n of the default tables, so every default-table row gets both
      routes
    - the packed-row trace recursion matches a matrix-product reference on
      seeded random digraphs with sinks, dense rows, mixed rows and loop
      multiplicities up to 2^62 + 1, on the complete digraph with m
      loops at every vertex at n = 32 and on the 126 exponents rows at
      n = 21..32; on all of them every entry of M_k is at most e_k(rho)
      and every entry of A M_(k-1) at most 2 e_k(rho), rho_v being the
      rounded-up 2-norm of row v, and the code's slot width s has
      2n prod_v (1 + rho_v) < 2^(s-2); 8-bit slots are caught, by an
      explicit ExactnessCheckFailed that also fires under python -O
    - the clow route runs at any n; only verify's DIGRAPH_SPECTRA_CAP
      chooses which report rows get it
    - enumerate_ldsgs lists each cycle cover exactly once with the
      stated component counts, and the signed aggregation of the listed
      covers reproduces every coefficient
    - minimal polynomials are exact, integral, divide the
      characteristic polynomial, and match the worked instances; the
      modular search agrees with the fraction-free elimination and with
      a sympy factor-and-rank oracle, and that elimination with a
      test-local one in exact rationals; inputs whose reduction mod P
      misleads the search are caught by the Z certificate
    - the search joins its start vectors by lcm and stops exactly where
      a test-local Gauss-Jordan rank mod P of their Krylov spaces
      reaches n, one vector fewer staying below n; it ends on A = 0,
      A = I and n = 1, falls through to the unit vectors when the seeded
      ones add nothing, and takes at most two vectors on the derogatory
      default rows
    - the Krylov minimal polynomial read off the recorded multipliers by
      back-substitution is monic, annihilates its vector mod P and has
      the degree of a test-local Krylov rank mod P (n = 1, sinks, loop
      multiplicities, the zero vector)
    - the GF(2) tier's Krylov rank test on e_1 and on each seeded 0/1
      vector it tries agrees with a test-local Gauss-Jordan rank mod 2
      of all n Krylov vectors on the family sweep and on seeded loop
      digraphs with even and odd loop multiplicities (rank n - 1 cases
      included); no start vector passes on a derogatory digraph, and the
      mod-P search runs on exactly 10 of the 458 deep default rows
    - the GF(2) tier tries e_1 and then the n seeded vectors, stops at
      the first one of Gauss-Jordan Krylov rank n mod 2 and says whether
      there is one; it returns False after exactly n + 1 passes on the
      digraphs whose A mod 2 is derogatory by a Gauss-Jordan rank of I,
      A, ..., A^n mod 2 (over 100 of them in the sweeps); on the deep
      default rows it takes one pass on each of the 414 with a cyclic
      e_1, stops at the first passing seeded vector on 34, and takes
      n + 1 passes, 103 in all, on the 10 that reach the mod-P search
    - a cyclic e_1 or seeded vector mod 2 skips the mod-P search and
      returns the characteristic polynomial; a cyclic first start vector
      mod P ends the search after one vector, with no check over Z; the
      derogatory 3-cycle plus looped vertex (e_1 of rank n - 1) still
      gets x^3 - 1 from the certified search, after two vectors
    - a perturbed characteristic polynomial (plus 1, 2 or 2x^k, or the
      x^(n-1) term changed) fails the Z certificate on the processed
      vectors, and the fallback's m(A) = 0 check raises on it, also
      where it agrees with the true one mod 2
    - squarefree characteristic polynomial implies non-derogatory, and
      the non-derogatory verdict never calls the squarefree test; on a
      cyclic e_1 it never forms the characteristic polynomial, and on a
      derogatory digraph it runs the search once
    - Cayley-Hamilton: the characteristic polynomial annihilates A
    - a triangular certificate, when found, is sound by direct check
      and always implies non-derogatory; absence implies nothing
    - the certificate search reports the first staging in search order,
      as a plain depth-first search finds it, and every state its loop
      reaches has at most one qualifying stage
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from digraph_spectra import (
    Digraph,
    ExactnessCheckFailed,
    FamilySpec,
    InvalidParameter,
    IntPolynomial,
    build_digraph,
    build_family,
    charpoly_exact,
    charpoly_ldsg,
    complement,
    enumerate_ldsgs,
    is_non_derogatory,
    is_squarefree,
    minimal_polynomial,
    table_specs,
    triangular_certificate,
)
from digraph_spectra.families import DEFAULT_RANGES, TABLE_NAMES
from digraph_spectra import spectra

from conftest import mat_mul, run_python

P = spectra.MINPOLY_PRIME

WORKED = "x^8 - x^5 - x^3 - x - 1"


def _random_digraph(rng, n, p=0.4):
    arcs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < p
    ]
    return build_digraph(n, arcs)


def _random_loop_digraph(rng, n, p=0.4):
    """Random digraph whose loops carry multiplicities 1..4."""
    arcs = [
        (i, j, rng.randint(1, 4) if i == j else 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < p
    ]
    return build_digraph(n, arcs)


def _family_sweep(hi):
    seen = set()
    for table in ("cdc", "cdf", "cdw", "derived", "complements"):
        for spec in table_specs(table, 3, hi):
            if spec.to_text() in seen:
                continue
            seen.add(spec.to_text())
            try:
                yield spec, build_family(spec)
            except InvalidParameter:
                continue


def _poly_at_matrix(f, a):
    """f(A) by Horner steps acc <- A acc + c I."""
    n = len(a)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(f.coeffs):
        acc = mat_mul(a, acc)
        for i in range(n):
            acc[i][i] += c
    return acc


# -- characteristic polynomial, both routes ---------------------------


class TestCharpolyRoutes:
    def test_routes_share_no_arithmetic_helper(self, monkeypatch):
        """Both routes read the successor table ``Digraph.rows``, which is
        digraph data, but neither calls the product A v or the walk push
        that other kernels share, so their agreement stays a cross-check."""
        def forbidden(*_):
            raise AssertionError("a characteristic-polynomial route called a shared helper")

        monkeypatch.setattr(Digraph, "times", forbidden)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("digraph_spectra"):
                if hasattr(module, "walk_row"):
                    monkeypatch.setattr(module, "walk_row", forbidden)
        for spec, graph in _family_sweep(9):
            assert charpoly_exact(graph) == charpoly_ldsg(graph), spec.to_text()

    def test_worked_example_all_routes(self):
        d = build_family(FamilySpec("DCn_i_nmi", 8))
        exact = charpoly_exact(d)
        assert str(exact) == WORKED
        assert charpoly_ldsg(d) == exact

    def test_empty_digraph(self):
        d = build_digraph(3, [])
        assert str(charpoly_exact(d)) == "x^3"
        assert str(charpoly_ldsg(d)) == "x^3"

    def test_single_vertex_with_loops(self):
        d = build_digraph(1, [(1, 1, 3)])
        assert str(charpoly_exact(d)) == "x - 3"
        assert charpoly_ldsg(d) == charpoly_exact(d)

    def test_loop_on_cycle_degenerate_j(self):
        d = build_family(FamilySpec("Zn_loop", 5, j=2))
        assert str(charpoly_ldsg(d)) == "x^5 - 2x^4"

    def test_routes_agree_on_random_digraphs(self):
        rng = random.Random(424242)
        for _ in range(60):
            d = _random_digraph(rng, rng.randint(1, 7))
            assert charpoly_exact(d) == charpoly_ldsg(d)

    def test_routes_agree_on_family_sweep(self):
        for spec, graph in _family_sweep(9):
            assert charpoly_exact(graph) == charpoly_ldsg(graph), spec.to_text()

    def test_monic_of_degree_n(self):
        rng = random.Random(3)
        for _ in range(20):
            d = _random_digraph(rng, rng.randint(1, 6))
            psi = charpoly_exact(d)
            assert psi.is_monic and psi.degree == d.n

    def test_packed_clow_route_on_seeded_loop_digraphs(self):
        """The one walk pass over all heads against the trace recursion
        on 300 seeded digraphs with n <= 12, loops of multiplicity 1..4
        and densities up to complete, so that many of them are
        relabelled, and on the complete digraph with loops of
        multiplicity 3 at n = 8, whose walks fill the slots most."""
        rng = random.Random(2323)
        relabelled = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            d = _random_loop_digraph(rng, n, rng.choice([0.1, 0.3, 0.6, 0.9, 1.0]))
            given = {v for u, row in enumerate(d.rows) for v, _ in row if u >= v}
            relabelled += len(spectra._fewest_heads(d.rows)[1]) < len(given)
            assert charpoly_ldsg(d) == charpoly_exact(d), d.arcs
        assert relabelled > 50
        d = _complete_with_loops(8, 3)
        assert charpoly_ldsg(d) == charpoly_exact(d)

    def test_clow_route_on_default_rows_from_n13(self):
        """Every default-table row with n = 13..20, which the subset
        convolution this route replaced could not reach."""
        checked = 0
        for table in TABLE_NAMES:
            lo, hi = DEFAULT_RANGES[table]
            for spec in table_specs(table, max(lo, 13), min(hi, 20)):
                try:
                    d = build_family(spec)
                except InvalidParameter:
                    continue
                assert charpoly_ldsg(d) == charpoly_exact(d), spec.to_text()
                checked += 1
        assert checked >= 180

    def test_clow_route_on_exponents_rows_above_the_cap(self):
        """The 126 exponents rows at n = 21..32, which a default verify
        run checks by the trace recursion alone, and where its slots are
        narrowest next to the hub's out-degree."""
        checked = 0
        for spec, d in _exponents_large():
            assert charpoly_ldsg(d) == charpoly_exact(d), spec.to_text()
            checked += 1
        assert checked == 126

    def test_clow_route_on_dense_circulant(self):
        d = build_family(FamilySpec("DCc", 24))
        assert charpoly_ldsg(d) == charpoly_exact(d)


    def test_trace_recursion_matches_sympy_from_n13(self):
        """sympy's charpoly checks the trace recursion on a sample of the
        rows with n = 13..20, a third route besides the clow route."""
        sp = pytest.importorskip("sympy")
        specs = [
            spec
            for table in ("cdc", "cdf", "cdw", "derived", "complements", "exponents")
            for spec in table_specs(table, 13, 20)
        ]
        rng = random.Random(1300)
        checked = 0
        for spec in rng.sample(specs, 40):
            try:
                d = build_family(spec)
            except InvalidParameter:
                continue
            x = sp.Symbol("x")
            oracle = sp.Matrix(d.adjacency_matrix()).charpoly(x).all_coeffs()
            assert charpoly_exact(d) == IntPolynomial(int(c) for c in reversed(oracle)), (
                spec.to_text()
            )
            checked += 1
        assert checked >= 20


def _list_trace_steps(d):
    """Reference for the packed route: the same recursion on lists of
    integer rows, A M being the plain matrix product (summed over the
    nonzero entries of A).  Yields (A M_(k-1), M_k, c_k) for k = 1..n."""
    n = d.n
    nonzero = [[(h, w) for h, w in enumerate(row) if w] for row in d.adjacency_matrix()]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = []
        for row in nonzero:
            terms = [m[h] if w == 1 else [w * y for y in m[h]] for h, w in row]
            am.append(list(map(sum, zip(*terms))) if terms else [0] * n)
        t = sum(am[i][i] for i in range(n))
        assert t % k == 0
        ck = -t // k
        m = [row[:] for row in am]
        for i in range(n):
            m[i][i] += ck
        yield am, m, ck


def _list_trace_recursion(d):
    return IntPolynomial([ck for _, _, ck in reversed(list(_list_trace_steps(d)))] + [1])


def _row_norm_ceilings(d):
    """rho_v = ceil(||row v||_2) over the arc multiplicities of v."""
    rho = []
    for v in range(1, d.n + 1):
        q = sum(w * w for i, _, w in d.arcs if i == v)
        rho.append(0 if q == 0 else math.isqrt(q - 1) + 1)
    return rho


def _assert_adjugate_bound(d):
    """The bound the slot width rests on, checked on the list recursion:
    |M_k[i][j]| <= e_k(rho) and |(A M_(k-1))[i][j]| <= 2 e_k(rho) at
    every step, and 2n prod_v (1 + rho_v) < 2^(s-2) for the code's
    width s.  Returns the characteristic polynomial."""
    n = d.n
    rho = _row_norm_ceilings(d)
    e = [1] + [0] * n  # elementary symmetric polynomials of rho
    for r in rho:
        for k in range(n, 0, -1):
            e[k] += e[k - 1] * r
    coeffs = [1]
    for k, (am, m, ck) in enumerate(_list_trace_steps(d), start=1):
        assert max(map(abs, itertools.chain(*m))) <= e[k], (k, d)
        assert max(map(abs, itertools.chain(*am))) <= 2 * e[k], (k, d)
        coeffs.append(ck)
    assert not any(any(row) for row in m)
    product = 1
    for r in rho:
        product *= 1 + r
    assert 2 * n * product < 2 ** (spectra._slot_bits(d) - 2), d
    return IntPolynomial(reversed(coeffs))


def _seeded_weighted_digraphs():
    """n = 1..24, per-vertex densities from 0 (sinks) to 1, so rows mix
    the two forms, and loop multiplicities up to 2^62 + 1."""
    rng = random.Random(6262)
    weights = [1, 1, 2, 3, 2**31, 2**62 + 1]
    for n in list(range(1, 25)) * 2:
        density = [rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]) for _ in range(n)]
        arcs = [
            (i, j, rng.choice(weights) if i == j else 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < density[i - 1]
        ]
        yield build_digraph(n, arcs)


def _complete_with_loops(n, loops):
    return build_digraph(
        n, [(i, j, loops if i == j else 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    )


def _exponents_large():
    """Every buildable exponents spec at n = 21..32, above the default cap."""
    for spec in table_specs("exponents", 21, 32):
        try:
            yield spec, build_family(spec)
        except InvalidParameter:
            continue


class TestPackedTraceRecursion:
    """charpoly_exact packs each row of M into one int, in slots sized by
    the Hadamard bound on the adjugate's coefficients, and picks, per
    vertex, a sum over successors or the column sums minus the
    non-successors.  Each case also checks that bound on the list
    recursion."""

    def test_matches_list_reference_on_random_digraphs(self):
        """Slots wide enough for loop multiplicities up to 2^62 + 1."""
        for d in _seeded_weighted_digraphs():
            assert charpoly_exact(d) == _assert_adjugate_bound(d), d

    def test_matches_list_reference_on_dense_complements(self):
        """Complements of sparse simple digraphs, alone and with weighted
        loops added, so that dense rows carry a loop excess."""
        rng = random.Random(6263)
        for n in range(2, 21):
            p = rng.choice([0.05, 0.2, 0.5])
            sparse = build_digraph(
                n,
                [
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    if i != j and rng.random() < p
                ],
            )
            d = complement(sparse)
            loops = [(v, v, rng.randint(1, 5)) for v in range(1, n + 1) if rng.random() < 0.5]
            for graph in (d, build_digraph(n, [a[:2] for a in d.arcs] + loops)):
                assert charpoly_exact(graph) == _assert_adjugate_bound(graph), graph

    @pytest.mark.parametrize("loops", [1, 3, 2**40 + 7])
    def test_complete_digraph_with_loops(self, loops):
        """A = J + (m - 1) I at n = 32: (x - m - n + 1)(x - m + 1)^(n-1),
        with large negative coefficients."""
        n = 32
        d = _complete_with_loops(n, loops)
        expected = IntPolynomial([-(loops + n - 1), 1])
        for _ in range(n - 1):
            expected = expected * IntPolynomial([-(loops - 1), 1])
        assert charpoly_exact(d) == expected
        assert _assert_adjugate_bound(d) == expected

    def test_matches_list_reference_above_the_cap(self):
        """The exponents rows at n = 21..32, where a hub row is much wider
        than the others and the slots narrow most."""
        checked = 0
        for spec, d in _exponents_large():
            assert charpoly_exact(d) == _assert_adjugate_bound(d), spec.to_text()
            checked += 1
        assert checked == 126

    def test_too_narrow_slots_are_caught(self, monkeypatch):
        """8-bit slots overflow: the exactness checks or the list
        reference catch it on the sampled digraphs."""
        monkeypatch.setattr(spectra, "_slot_bits", lambda d: 8)
        sample = list(itertools.islice(_seeded_weighted_digraphs(), 0, 48, 6))
        sample += [d for _, d in itertools.islice(_exponents_large(), 0, 126, 25)]
        sample.append(_complete_with_loops(12, 3))
        caught = 0
        for d in sample:
            try:
                caught += charpoly_exact(d) != _list_trace_recursion(d)
            except ExactnessCheckFailed:
                caught += 1
        assert caught > 0

    def test_too_narrow_slots_raise_under_optimize(self):
        """The exactness checks are explicit raises, so ``python -O``
        keeps them: 8-bit slots on the complete digraph with triple
        loops at n = 12 raise instead of returning a wrong polynomial."""
        code = (
            "from digraph_spectra import build_digraph, spectra\n"
            "print(__debug__)\n"
            "spectra._slot_bits = lambda d: 8\n"
            "n = 12\n"
            "arcs = [(i, j, 3 if i == j else 1) for i in range(1, n + 1) for j in range(1, n + 1)]\n"
            "print(spectra.charpoly_exact(build_digraph(n, arcs)))\n"
        )
        proc = run_python("-O", "-c", code)
        assert proc.returncode == 1 and proc.stdout == "False\n", proc.stdout
        assert "ExactnessCheckFailed: trace recursion" in proc.stderr


# -- explicit cycle-cover listing -------------------------------------


class TestEnumerateLdsgs:
    def test_sole_three_cover_of_worked_example(self):
        d = build_family(FamilySpec("DCn_i_nmi", 8))
        covers = enumerate_ldsgs(d, 3)
        assert len(covers) == 1
        assert covers[0].cycles == ((1, 7, 8),)
        assert covers[0].components == 1
        assert covers[0].length == 3

    def test_loop_pair_versus_two_cycle(self):
        d = build_family(FamilySpec("Zn_loop", 5, j=3))
        covers = enumerate_ldsgs(d, 2)
        by_cycles = {c.cycles: c.components for c in covers}
        assert by_cycles == {((1,), (3,)): 2, ((1, 5),): 1}

    def test_plain_cycle_has_no_partial_cover(self):
        d = build_family(FamilySpec("DCn", 4))
        assert enumerate_ldsgs(d, 3) == []
        assert len(enumerate_ldsgs(d, 4)) == 1

    def test_weights_multiply_loop_multiplicities(self):
        d = build_digraph(2, [(1, 1, 3), (2, 2)])
        covers = enumerate_ldsgs(d, 2)
        assert len(covers) == 1
        assert covers[0].weight == 3

    def test_signed_aggregation_rebuilds_coefficients(self):
        rng = random.Random(17)
        for _ in range(12):
            d = _random_digraph(rng, rng.randint(2, 6))
            psi = charpoly_exact(d)
            n = d.n
            for i in range(1, n + 1):
                acc = 0
                for cover in enumerate_ldsgs(d, i):
                    acc += (-1) ** cover.components * cover.weight
                assert psi.coefficient(n - i) == acc, (d, i)

    def test_clow_route_matches_the_listing(self):
        """charpoly_ldsg against the term sum of the listed covers, on
        digraphs with loop multiplicities up to 4 and with sinks, and on
        sparse ones (a shuffled cycle or path plus a few arcs and loops)
        where most heads have no re-entering arc and are skipped; a loop
        is often the only arc that re-enters its head."""
        rng = random.Random(8080)
        graphs = []
        for _ in range(40):
            n = rng.randint(1, 8)
            sinks = set(rng.sample(range(1, n + 1), rng.randint(0, n // 2)))
            d = _random_loop_digraph(rng, n)
            graphs.append(build_digraph(n, [arc for arc in d.arcs if arc[0] not in sinks]))
        for _ in range(60):
            n = rng.randint(1, 8)
            order = rng.sample(range(1, n + 1), n)
            arcs = {(u, v, 1) for u, v in zip(order, order[1:] + order[:1]) if u != v}
            if rng.random() < 0.3:
                arcs.discard((order[-1], order[0], 1))  # a path: no cycle through all
            arcs |= {(rng.randint(1, n), rng.randint(1, n), 1) for _ in range(rng.randint(0, 2))}
            looped = rng.sample(range(1, n + 1), rng.randint(0, min(n, 2)))
            loops = {(v, v, rng.randint(1, 4)) for v in looped}
            graphs.append(build_digraph(n, [a for a in arcs if a[0] != a[1]] + list(loops)))
        skipped = loop_only = 0
        for d in graphs:
            n = d.n
            coeffs = [1] + [
                sum((-1) ** c.components * c.weight for c in enumerate_ldsgs(d, i))
                for i in range(1, n + 1)
            ]
            assert charpoly_ldsg(d) == IntPolynomial(reversed(coeffs)), d.arcs
            tails = [[u for u, v, _ in d.arcs if v == h] for h in range(1, n + 1)]
            skipped += sum(max(t, default=0) < h for h, t in enumerate(tails, 1))
            loop_only += sum(max(t, default=0) == h for h, t in enumerate(tails, 1))
        assert skipped > 150 and loop_only > 30

    def test_no_duplicate_covers(self):
        rng = random.Random(23)
        for _ in range(8):
            d = _random_digraph(rng, rng.randint(2, 6))
            for i in range(1, d.n + 1):
                covers = enumerate_ldsgs(d, i)
                assert len({c.cycles for c in covers}) == len(covers)


# -- minimal polynomial -----------------------------------------------


class TestMinimalPolynomial:
    def test_plain_cycles(self):
        for n in range(3, 11):
            d = build_family(FamilySpec("DCn", n))
            expected = IntPolynomial.monomial(n, 1) - IntPolynomial.one()
            assert minimal_polynomial(d) == expected

    def test_worked_example_full_degree(self):
        d = build_family(FamilySpec("DCn_i_nmi", 8))
        assert str(minimal_polynomial(d)) == WORKED

    def test_single_vertex_three_loops(self):
        d = build_digraph(1, [(1, 1, 3)])
        assert str(minimal_polynomial(d)) == "x - 3"

    def test_zero_matrix(self):
        d = build_digraph(3, [])
        assert str(minimal_polynomial(d)) == "x"

    def test_odd_wheel_complement_drops_one_factor(self):
        d = build_family(FamilySpec("UDWc", 9))
        psi = charpoly_exact(d)
        mp = minimal_polynomial(d)
        assert mp.degree == 8
        assert mp.shift(1) == psi

    def test_divides_charpoly(self):
        rng = random.Random(9001)
        for _ in range(40):
            d = _random_digraph(rng, rng.randint(1, 6))
            psi = charpoly_exact(d)
            mp = minimal_polynomial(d)
            assert mp.is_monic
            _, r = psi.divrem(mp)
            assert r.is_zero

    def test_cayley_hamilton(self):
        rng = random.Random(77)
        graphs = [_random_digraph(rng, rng.randint(1, 8)) for _ in range(15)]
        graphs.append(build_family(FamilySpec("DCn_i_nmi", 8)))
        graphs.append(build_family(FamilySpec("PDF", 6)))
        for d in graphs:
            zero = _poly_at_matrix(charpoly_exact(d), d.adjacency_matrix())
            assert all(all(v == 0 for v in row) for row in zero)

    def test_minimal_polynomial_annihilates(self):
        rng = random.Random(78)
        for _ in range(15):
            d = _random_digraph(rng, rng.randint(1, 7))
            zero = _poly_at_matrix(minimal_polynomial(d), d.adjacency_matrix())
            assert all(all(v == 0 for v in row) for row in zero)


class TestModularMinimalPolynomial:
    """The search mod P against the fraction-free elimination, that
    elimination against a test-local one with exact rationals, and the
    certificate over Z that guards the search."""

    def test_matches_rational_on_random_digraphs(self):
        rng = random.Random(6161)
        for _ in range(70):
            d = _random_loop_digraph(rng, rng.randint(1, 7))
            assert minimal_polynomial(d) == spectra._minimal_polynomial_rational(d)

    def test_matches_rational_on_family_sweep(self):
        for spec, graph in _family_sweep(9):
            expected = spectra._minimal_polynomial_rational(graph)
            assert minimal_polynomial(graph) == expected, spec.to_text()
            # the modular search alone gets it right: no fallback needed
            modular, _ = spectra._minimal_polynomial_mod_p(graph)
            assert modular == expected, spec.to_text()

    def test_fraction_free_elimination_matches_fractions(self):
        rng = random.Random(3131)
        graphs = [
            build_family(FamilySpec(family, n))
            for family, n in [("UDWc", 7), ("UDWc", 9), ("DCn_i_nmi", 8), ("ADW", 8)]
        ]
        graphs += [THREE_CYCLE_AND_LOOP, build_digraph(3, []), build_digraph(3, [(1, 1), (2, 2), (3, 3)])]
        graphs += [build_digraph(2, [(1, 1, 1), (2, 2, 1 + P)]), build_digraph(1, [(1, 1, 2**62 + 1)])]
        graphs += [
            _random_loop_digraph(rng, rng.randint(1, 6), p=rng.choice([0.15, 0.4, 0.7]))
            for _ in range(40)
        ]
        degrees = set()
        for d in graphs:
            expected = _fraction_minimal_polynomial(d)
            assert spectra._minimal_polynomial_rational(d) == expected, d.arcs
            degrees.add(d.n - expected.degree)
        assert 0 in degrees and max(degrees) >= 2

    @pytest.mark.parametrize(
        "n, arcs, expected",
        [
            # A = (P): A vanishes mod P, so the search stops at x
            (1, [(1, 1, P)], IntPolynomial((-P, 1))),
            # A = (2^62 + 1) is 3 mod P; the lift x - 3 is the wrong integer
            (1, [(1, 1, 2**62 + 1)], IntPolynomial((-(2**62 + 1), 1))),
            # diag(1, 1 + P) is I mod P, so the degree drops from 2 to 1
            (
                2,
                [(1, 1, 1), (2, 2, 1 + P)],
                IntPolynomial((-1, 1)) * IntPolynomial((-(1 + P), 1)),
            ),
        ],
    )
    def test_certificate_failure_falls_back(self, n, arcs, expected):
        d = build_digraph(n, arcs)
        modular, vectors = spectra._minimal_polynomial_mod_p(d)
        assert _krylov_rank(d, *vectors) == n
        assert modular != expected
        assert not spectra._annihilates(modular, d, vectors)
        assert minimal_polynomial(d) == expected

    @pytest.mark.parametrize(
        "n, arcs, expected, rank",
        [
            # a 3-cycle and a 2-cycle: e_1 only reaches the 3-cycle, so the
            # search needs e_4 too and ends at joint rank n below degree n
            (
                5,
                [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4)],
                IntPolynomial((-1, 0, 0, 1)) * IntPolynomial((1, 1)),
                5,
            ),
            # a 3-cycle and a double loop: degree n once e_4 is joined
            (
                4,
                [(1, 2), (2, 3), (3, 1), (4, 4, 2)],
                IntPolynomial((-1, 0, 0, 1)) * IntPolynomial((-2, 1)),
                4,
            ),
        ],
    )
    def test_lcm_joins_unit_vectors(self, monkeypatch, n, arcs, expected, rank):
        """The seeded vectors first; then with each seeded vector zero, so
        that the search passes over all of them, the unit vectors behind
        them, of which e_2 and e_3 lie in e_1's Krylov space."""
        d = build_digraph(n, arcs)
        modular, vectors = spectra._minimal_polynomial_mod_p(d)
        assert modular == expected
        assert _krylov_rank(d, *vectors) == rank
        start = spectra._start_vectors
        monkeypatch.setattr(
            spectra,
            "_start_vectors",
            lambda size: [[0] * size if k < size else u for k, u in enumerate(start(size))],
        )
        modular, vectors = spectra._minimal_polynomial_mod_p(d)
        assert modular == expected
        assert vectors == [_unit(n), _unit(n, 4)]
        assert _krylov_rank(d, *vectors) == rank
        assert minimal_polynomial(d) == expected

    def test_wrong_modular_answer_is_not_returned(self, monkeypatch):
        d = build_family(FamilySpec("DCn_i_nmi", 8))
        bogus = IntPolynomial.monomial(8) + 1
        monkeypatch.setattr(
            spectra, "_minimal_polynomial_mod_p", lambda _: (bogus, [_unit(8)])
        )
        assert str(minimal_polynomial(d)) == WORKED
        # e_1 is cyclic above, so the search never runs; below it does,
        # and the Z certificate still catches the wrong answer
        wrong = IntPolynomial.monomial(3) - 2
        monkeypatch.setattr(
            spectra, "_minimal_polynomial_mod_p", lambda _: (wrong, [_unit(4)])
        )
        assert minimal_polynomial(THREE_CYCLE_AND_LOOP) == IntPolynomial((-1, 0, 0, 1))


def _fraction_minimal_polynomial(d):
    """First dependence among the flattened powers I, A, A^2, ... by
    Gauss-Jordan elimination with exact rationals, each basis row scaled
    to 1 at its pivot; independent of the fraction-free elimination."""
    n = d.n
    a = d.adjacency_matrix()
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    basis = []  # (pivot, row, combination)
    for k in range(n + 1):
        vec = [Fraction(x) for row in power for x in row]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            factor = vec[pivot]
            if factor:
                vec = [x - factor * y for x, y in zip(vec, bvec)]
                for idx, c in enumerate(bcombo):
                    combo[idx] -= factor * c
        pivot = next((idx for idx, x in enumerate(vec) if x), None)
        if pivot is None:
            assert combo[k] == 1 and all(c.denominator == 1 for c in combo)
            return IntPolynomial([int(c) for c in combo])
        inv = vec[pivot]
        basis.append((pivot, [x / inv for x in vec], [c / inv for c in combo]))
        power = mat_mul(a, power)
    raise AssertionError("no dependence within n + 1 powers")


# a 3-cycle and a looped vertex 4: eigenvalue 1 twice, e_1 of Krylov rank 3
THREE_CYCLE_AND_LOOP = build_digraph(4, [(1, 2), (2, 3), (3, 1), (4, 4)])


def _unit(n, j=1):
    return [int(i == j - 1) for i in range(n)]


def _krylov_rank(d, *vectors):
    """Joint rank mod P of v, Av, ..., A^(n-1) v over the given vectors
    by Gauss-Jordan elimination of all those n-vector sequences,
    independent of the search's echelon basis and early stops."""
    rows = []
    for v in vectors:
        for _ in range(d.n):
            rows.append([x % P for x in v])
            v = d.times(rows[-1])
    rank = 0
    for col in range(d.n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, P)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % P
                rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _at_vector_mod_p(g, d, v):
    """g(A) v mod P for coefficients g (constant term first), by Horner
    steps r <- A r + c v."""
    r = [0] * d.n
    for c in reversed(g):
        r = [(x + c * y) % P for x, y in zip(d.times(r), v)]
    return r


class TestKrylovBackSubstitution:
    """The Krylov minimal polynomial mod P read off the recorded
    multipliers, against a test-local rank and a direct evaluation."""

    def test_monic_annihilator_of_krylov_rank_degree(self):
        rng = random.Random(1212)
        cases = [
            (build_digraph(1, []), [1]),  # n = 1, a sink: x
            (build_digraph(1, [(1, 1, 3)]), [5]),  # n = 1, a triple loop: x - 3
            (build_digraph(3, [(1, 2), (2, 3)]), _unit(3, 3)),  # path into a sink: x^3
            (THREE_CYCLE_AND_LOOP, _unit(4)),
            (THREE_CYCLE_AND_LOOP, [0, 0, 0, 0]),  # rank zero: the constant 1
        ]
        for _ in range(150):
            n = rng.randint(1, 7)
            d = _random_loop_digraph(rng, n, p=rng.choice([0.15, 0.4, 0.7]))
            kind = rng.randrange(4)
            if kind == 0:
                v = [rng.randrange(P) for _ in range(n)]
            elif kind == 1:
                v = _unit(n, rng.randint(1, n))
            elif kind == 2:
                v = [rng.randint(-3, 3) for _ in range(n)]
            else:
                v = [0] * n
            cases.append((d, v))
        degrees = set()
        for d, v in cases:
            g, basis = spectra._krylov_minpoly_mod_p(d, v)
            assert g[-1] == 1 and all(0 <= c < P for c in g), (d.arcs, v)
            assert not any(_at_vector_mod_p(g, d, v)), (d.arcs, v)
            assert len(g) - 1 == len(basis) == _krylov_rank(d, v), (d.arcs, v)
            degrees.add(len(g) - 1)
        assert degrees == set(range(8))

    def test_worked_small_cases(self):
        def g(d, v):
            return spectra._krylov_minpoly_mod_p(d, v)[0]

        assert g(build_digraph(1, []), [1]) == [0, 1]
        assert g(build_digraph(1, [(1, 1, 3)]), [5]) == [P - 3, 1]
        path = build_digraph(3, [(1, 2), (2, 3)])
        assert g(path, _unit(3, 3)) == [0, 0, 0, 1]
        assert g(path, _unit(3)) == [0, 1]
        assert g(THREE_CYCLE_AND_LOOP, [0] * 4) == [1]


def _search_sample():
    """The family sweep, seeded loop digraphs (derogatory ones among
    them) and the degenerate A = 0 and A = I."""
    rng = random.Random(5151)
    graphs = [graph for _, graph in _family_sweep(9)]
    graphs += [_random_loop_digraph(rng, rng.randint(1, 7), p=rng.choice([0.1, 0.3])) for _ in range(80)]
    graphs += [build_digraph(n, []) for n in range(1, 7)]
    graphs += [build_digraph(n, [(i, i) for i in range(1, n + 1)]) for n in range(1, 7)]
    return graphs


class TestJointKrylovRank:
    """The mod-P search processes seeded start vectors and stops exactly
    where their Krylov spaces reach joint rank n, by a test-local
    Gauss-Jordan rank, or where m reaches degree n."""

    def test_search_stops_exactly_at_joint_rank_n(self):
        counts = []
        for d in _search_sample():
            modular, vectors = spectra._minimal_polynomial_mod_p(d)
            # every stop, degree n included, has joint rank n; one vector
            # fewer does not, so no vector past that point is processed
            assert _krylov_rank(d, *vectors) == d.n, d.arcs
            assert _krylov_rank(d, *vectors[:-1]) < d.n, d.arcs
            assert modular == spectra._minimal_polynomial_rational(d), d.arcs
            counts.append((modular.degree == d.n, len(vectors)))
        # derogatory stops need more than one vector; most others need one
        assert any(not full and k > 1 for full, k in counts)
        assert counts.count((True, 1)) > 200

    @pytest.mark.parametrize("n", range(1, 7))
    def test_search_terminates_on_zero_and_identity(self, n):
        x = IntPolynomial.x()
        for arcs, expected in [([], x), ([(i, i) for i in range(1, n + 1)], x - 1)]:
            d = build_digraph(n, arcs)
            modular, vectors = spectra._minimal_polynomial_mod_p(d)
            assert modular == expected
            # each start vector spans only itself, so n are processed
            assert len(vectors) == n and _krylov_rank(d, *vectors) == n
            assert minimal_polynomial(d) == expected

    def test_search_terminates_at_one_vertex(self):
        for w in (0, 1, 2, 3, 7, P, 2**62 + 1):
            d = build_digraph(1, [(1, 1, w)] if w else [])
            modular, vectors = spectra._minimal_polynomial_mod_p(d)
            assert len(vectors) == 1 and vectors[0] != [0]
            assert minimal_polynomial(d) == IntPolynomial((-w, 1))

    def test_derogatory_default_rows_stop_within_two_vectors(self):
        for n in (5, 7, 9, 11, 13):
            d = build_family(FamilySpec("UDWc", n))
            modular, vectors = spectra._minimal_polynomial_mod_p(d)
            assert modular.degree == n - 1 and len(vectors) <= 2, n
            assert _krylov_rank(d, *vectors) == n
            assert spectra._certified(modular, d, vectors) == modular


def _krylov_rank_mod_2(d, start=1):
    """Rank mod 2 of u, A u, ..., A^(n-1) u (u = e_1 by default, else
    the 0/1 vector with bit i of ``start`` as entry i) by Gauss-Jordan
    elimination of all n vectors, as 0/1 lists from the adjacency
    matrix, independent of the tier's bitmasks and its early stop."""
    n = d.n
    a = d.adjacency_matrix()
    rows = [[(start >> i) & 1 for i in range(n)]]
    for _ in range(n - 1):
        rows.append([sum(x * y for x, y in zip(row, rows[-1])) % 2 for row in a])
    return _rank_mod_2(rows)


def _minimal_polynomial_degree_mod_2(d):
    """Degree of A's minimal polynomial mod 2: the rank mod 2 of I, A,
    ..., A^n, each flattened to a 0/1 list, by Gauss-Jordan."""
    n = d.n
    a = d.adjacency_matrix()
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    flat = []
    for _ in range(n + 1):
        flat.append([x for row in power for x in row])
        power = [[x % 2 for x in row] for row in mat_mul(a, power)]
    return _rank_mod_2(flat)


def _rank_mod_2(rows):
    """Gauss-Jordan rank mod 2 of a list of equally long 0/1 lists."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _loop_parity_digraphs():
    """Seeded digraphs with n = 1..9 whose loops carry even and odd
    multiplicities, so that A mod 2 drops some of the loops."""
    rng = random.Random(2222)
    for _ in range(300):
        n = rng.randint(1, 9)
        yield _random_loop_digraph(rng, n, p=rng.choice([0.15, 0.3, 0.5, 0.8]))


def _e1_cyclic_mod_2(d):
    return spectra._cyclic_mod_2(spectra._columns_mod_2(d), 1)


def _vectors_mod_2(d):
    """The GF(2) tier's start vectors as bitmasks: e_1, then the n
    seeded ones."""
    return [1, *spectra._start_vectors_mod_2(d.n)]


def _tried_mod_2(d):
    """The GF(2) tier's start vectors as bitmasks, e_1 first, up to the
    first one it accepts, each with the tier's verdict."""
    columns = spectra._columns_mod_2(d)
    tried = []
    for u in _vectors_mod_2(d):
        tried.append((u, spectra._cyclic_mod_2(columns, u)))
        if tried[-1][1]:
            break
    return tried


def _recording(log, fn):
    """fn, logging (its name, the start vector) for each call."""

    def wrapper(*args):
        log.append((fn.__name__, args[1]))
        return fn(*args)

    return wrapper


def _deep_default_rows():
    for table in TABLE_NAMES:
        if table == "exponents":
            continue
        for spec in table_specs(table, *DEFAULT_RANGES[table]):
            try:
                yield table, spec, build_family(spec)
            except InvalidParameter:
                continue


class TestCyclicMod2:
    """The GF(2) first tier: Krylov rank n mod 2 of e_1 and of the
    seeded 0/1 start vectors, against a test-local Gauss-Jordan rank of
    all n vectors."""

    def test_matches_gauss_jordan_rank(self):
        graphs = [graph for _, graph in _family_sweep(9)] + list(_loop_parity_digraphs())
        ranks = []
        seeded = []
        for d in graphs:
            rank = _krylov_rank_mod_2(d)
            assert _e1_cyclic_mod_2(d) is (rank == d.n), d.arcs
            ranks.append(d.n - rank)
            for u, accepted in _tried_mod_2(d)[1:]:
                rank = _krylov_rank_mod_2(d, u)
                assert accepted is (rank == d.n), (d.arcs, u)
                seeded.append(d.n - rank)
        # rank n - 1 is where accepting one vector too few would show
        assert ranks.count(0) > 100 and ranks.count(1) > 20 and max(ranks) > 1
        assert seeded.count(0) > 80 and seeded.count(1) > 200 and max(seeded) > 1

    def test_derogatory_digraphs_are_not_cyclic(self):
        """No start vector mod 2 passes on a derogatory digraph, so every
        one of them reaches the mod-P search."""
        derogatory = 0
        for d in [graph for _, graph in _family_sweep(9)] + list(_loop_parity_digraphs()):
            m, processed = spectra._minimal_polynomial_mod_p(d)
            if spectra._certified(m, d, processed).degree < d.n:
                tried = _tried_mod_2(d)
                assert len(tried) == d.n + 1 and not any(v for _, v in tried), d.arcs
                assert spectra._krylov_tiers(d) is not None, d.arcs
                derogatory += 1
        assert derogatory > 20

    def test_mod_p_search_runs_on_ten_default_rows(self, monkeypatch):
        """Of the 458 deep default rows, 44 miss at e_1 mod 2; a seeded
        vector mod 2 decides 34 of them, and the mod-P search runs on
        the other 10, where A mod 2 is itself derogatory."""
        reached = []
        search = spectra._minimal_polynomial_mod_p
        monkeypatch.setattr(
            spectra, "_minimal_polynomial_mod_p", lambda d: reached.append(d) or search(d)
        )
        rows = []
        built = missed_e1 = 0
        for table, spec, graph in _deep_default_rows():
            built += 1
            missed_e1 += not _e1_cyclic_mod_2(graph)
            del reached[:]
            minimal_polynomial(graph)
            if reached:
                rows.append((table, spec.to_text()))
        assert (built, missed_e1) == (458, 44)
        assert sorted(rows) == sorted(
            [("cdw", f"family=ADW n={n}") for n in (5, 13)]
            + [("complements", f"family=UDWc n={n}") for n in (5, 7, 9, 11, 13)]
            + [("complements", f"family=DCc n={n}") for n in (6, 10, 14)]
        )

    def test_even_loops_vanish_mod_2(self):
        # A = 2I: derogatory, A mod 2 = 0; a 2-cycle with a double loop at
        # one vertex is cyclic over Q but reads as a plain 2-cycle mod 2
        twice_identity = build_digraph(2, [(1, 1, 2), (2, 2, 2)])
        assert not any(v for _, v in _tried_mod_2(twice_identity))
        two_cycle = build_digraph(2, [(1, 2), (2, 1), (1, 1, 2)])
        assert _e1_cyclic_mod_2(two_cycle)
        assert minimal_polynomial(two_cycle) == charpoly_exact(two_cycle)
        # a single vertex is always cyclic
        assert _e1_cyclic_mod_2(build_digraph(1, [(1, 1, 2)]))
        assert _e1_cyclic_mod_2(build_digraph(1, []))

    def test_plain_loop_matches_gauss_jordan_ranks(self, monkeypatch):
        """The tier tries e_1 and then the n seeded vectors, up to the
        first whose Gauss-Jordan Krylov rank mod 2 is n, and says
        whether there is one; where A mod 2 is derogatory by a
        Gauss-Jordan rank of I, A, ..., A^n mod 2 it returns False after
        exactly n + 1 passes."""
        passes = []
        monkeypatch.setattr(spectra, "_cyclic_mod_2", _recording(passes, spectra._cyclic_mod_2))
        derogatory = 0
        for d in [graph for _, graph in _family_sweep(9)] + list(_loop_parity_digraphs()):
            vectors = _vectors_mod_2(d)
            first = next(
                (k for k, u in enumerate(vectors) if _krylov_rank_mod_2(d, u) == d.n), None
            )
            del passes[:]
            cyclic = spectra._some_cyclic_mod_2(spectra._columns_mod_2(d))
            assert cyclic is (first is not None), d.arcs
            tried = len(vectors) if first is None else first + 1
            assert [u for _, u in passes] == vectors[:tried], d.arcs
            if _minimal_polynomial_degree_mod_2(d) < d.n:
                assert not cyclic and len(passes) == d.n + 1, d.arcs
                derogatory += 1
        assert derogatory > 100

    def test_pass_counts_on_the_deep_default_rows(self, monkeypatch):
        """A cyclic e_1 takes one pass mod 2 (414 rows), a seeded vector
        stops the tier at the first that passes by Gauss-Jordan (34
        rows), and the 10 rows that reach the mod-P search take n + 1
        passes each, 103 in all."""
        passes = []
        monkeypatch.setattr(spectra, "_cyclic_mod_2", _recording(passes, spectra._cyclic_mod_2))
        cyclic_e1 = seeded = 0
        derogatory = {}
        for _, spec, graph in _deep_default_rows():
            del passes[:]
            cyclic = spectra._some_cyclic_mod_2(spectra._columns_mod_2(graph))
            if len(passes) == 1 and cyclic:
                cyclic_e1 += 1
            elif cyclic:
                vectors = _vectors_mod_2(graph)
                first = next(
                    k for k, u in enumerate(vectors) if _krylov_rank_mod_2(graph, u) == graph.n
                )
                assert len(passes) == first + 1 > 1, spec.to_text()
                seeded += 1
            else:
                derogatory[spec.to_text()] = len(passes)
        assert (cyclic_e1, seeded) == (414, 34)
        assert derogatory == {
            **{f"family=ADW n={n}": n + 1 for n in (5, 13)},
            **{f"family=UDWc n={n}": n + 1 for n in (5, 7, 9, 11, 13)},
            **{f"family=DCc n={n}": n + 1 for n in (6, 10, 14)},
        }
        assert sum(derogatory.values()) == 103


class TestCyclicVectorShortcut:
    """When e_1 or a seeded start vector is cyclic mod 2, or the first
    start vector is cyclic mod P, the minimal polynomial is the
    characteristic polynomial with no further search and no check over
    Z; below degree n the search and its Z certificate run on."""

    def test_rank_n_rows_skip_the_lcm_search(self, monkeypatch):
        def unused(*_):
            raise AssertionError("the search went past a cyclic start vector")

        def first(graph):
            return next(iter(spectra._start_vectors(graph.n)))

        sweep = [(spec, graph, charpoly_exact(graph)) for spec, graph in _family_sweep(9)]
        cyclic_p = [case for case in sweep if _krylov_rank(case[1], first(case[1])) == case[1].n]
        cyclic_2 = [case for case in sweep if _krylov_rank_mod_2(case[1]) == case[1].n]
        assert len(cyclic_p) > len(cyclic_2) > 100
        seeded_2 = []  # e_1 misses mod 2, the last vector the tier tried passes
        for case in sweep:
            graph = case[1]
            last, _ = _tried_mod_2(graph)[-1]
            if case not in cyclic_2 and _krylov_rank_mod_2(graph, last) == graph.n:
                seeded_2.append(case)
        assert len(seeded_2) > 10
        for spec, graph, _ in cyclic_p:
            modular, vectors = spectra._minimal_polynomial_mod_p(graph)
            assert (modular.degree, vectors) == (graph.n, [first(graph)]), spec.to_text()
        # degree n mod P: the characteristic polynomial, with no check
        # over Z and no rerun
        monkeypatch.setattr(spectra, "_annihilates", unused)
        monkeypatch.setattr(spectra, "_minimal_polynomial_rational", unused)
        for spec, graph, psi in cyclic_p:
            assert minimal_polynomial(graph) == psi, spec.to_text()
        monkeypatch.undo()
        # e_1 or a seeded vector cyclic mod 2: the mod-P search never runs
        monkeypatch.setattr(spectra, "_minimal_polynomial_mod_p", unused)
        monkeypatch.setattr(spectra, "_minimal_polynomial_rational", unused)
        for spec, graph, psi in cyclic_2 + seeded_2:
            assert minimal_polynomial(graph) == psi, spec.to_text()

    def test_krylov_rank_counts_every_power(self):
        x = IntPolynomial.x()
        for n in range(1, 9):
            cycle = build_digraph(n, [(i, i % n + 1) for i in range(1, n + 1)])
            modular, vectors = spectra._minimal_polynomial_mod_p(cycle)
            assert modular == x**n - 1
            assert _krylov_rank(cycle, *vectors) == n > _krylov_rank(cycle, *vectors[:-1])
        e1, _ = spectra._krylov_minpoly_mod_p(THREE_CYCLE_AND_LOOP, _unit(4))
        assert e1 == [P - 1, 0, 0, 1]
        modular, vectors = spectra._minimal_polynomial_mod_p(THREE_CYCLE_AND_LOOP)
        assert (modular.degree, len(vectors)) == (3, 2)
        assert [_krylov_rank(THREE_CYCLE_AND_LOOP, *vectors[:k]) for k in (1, 2)] == [3, 4]

    def test_derogatory_three_cycle_with_looped_vertex(self):
        d = THREE_CYCLE_AND_LOOP
        cube = IntPolynomial((-1, 0, 0, 1))
        psi = charpoly_exact(d)
        assert psi == cube * IntPolynomial((-1, 1))
        assert minimal_polynomial(d) == cube
        assert not is_non_derogatory(d)

    @pytest.mark.parametrize(
        "graph, cyclic_mod_2",
        [
            (build_family(FamilySpec("DCn_i_nmi", 8)), True),
            (build_family(FamilySpec("ADW", 13)), False),
            (THREE_CYCLE_AND_LOOP, False),
        ],
        ids=["cyclic e_1", "cyclic e_1 mod P only", "derogatory"],
    )
    @pytest.mark.parametrize(
        "wrong",
        [
            lambda psi: psi + 1,
            lambda psi: psi - IntPolynomial.monomial(psi.degree - 1),
            lambda psi: psi + 2,
            lambda psi: psi + IntPolynomial.monomial(psi.degree // 2, 2),
        ],
        ids=["plus 1", "second coefficient", "plus 2", "plus 2x^k"],
    )
    def test_wrong_charpoly_raises(self, monkeypatch, graph, cyclic_mod_2, wrong):
        """A perturbed characteristic polynomial is refused by both checks
        over Z behind the search: the certificate on the processed start
        vectors, and the fallback's m(A) = 0 check on the unit vectors,
        which raises.  ψ + 2 and ψ + 2x^k agree with ψ mod 2, so only
        the arithmetic over Z tells them apart.  ADW n=13 is a
        non-derogatory row whose A mod 2 is derogatory, so no start
        vector mod 2 is cyclic and it reaches the mod-P search, where e_1
        is cyclic."""
        assert _tried_mod_2(graph)[-1][1] is cyclic_mod_2
        if graph.n == 13:
            assert _krylov_rank(graph, _unit(13)) == 13 and is_non_derogatory(graph)
        bad = wrong(charpoly_exact(graph))
        _, vectors = spectra._minimal_polynomial_mod_p(graph)
        assert not spectra._annihilates(bad, graph, vectors)
        monkeypatch.setattr(spectra, "_minimal_polynomial_rational", lambda _: bad)
        with pytest.raises(ExactnessCheckFailed, match="does not annihilate A"):
            spectra._certified(bad, graph, vectors)


def _sympy_minimal_polynomial(sp, d):
    """Product of f^e over the irreducible factors f of the
    characteristic polynomial, e being the first exponent at which the
    rank of f(A)^e stops falling."""
    x = sp.Symbol("x")
    a = sp.Matrix(d.adjacency_matrix())
    _, factors = sp.factor_list(a.charpoly(x).as_expr(), x)
    result = sp.Integer(1)
    for f, _ in factors:
        fa = sp.zeros(d.n, d.n)
        for c in sp.Poly(f, x).all_coeffs():
            fa = a * fa + c * sp.eye(d.n)
        power, rank, e = fa, fa.rank(), 1
        while True:
            power = power * fa
            if power.rank() == rank:
                break
            rank, e = power.rank(), e + 1
        result *= f**e
    return IntPolynomial([int(c) for c in reversed(sp.Poly(result, x).all_coeffs())])


class TestMinimalPolynomialOracle:
    """An independent oracle through sympy's factorization and ranks."""

    def test_derogatory_default_table_rows(self):
        sp = pytest.importorskip("sympy")
        derogatory = []
        for table in TABLE_NAMES:
            lo, hi = DEFAULT_RANGES[table]
            for spec in table_specs(table, lo, hi):
                try:
                    d = build_family(spec)
                except InvalidParameter:
                    continue
                mp = minimal_polynomial(d)
                if mp.degree < d.n:
                    derogatory.append(spec.to_text())
                    assert mp == _sympy_minimal_polynomial(sp, d), spec.to_text()
        assert derogatory == [f"family=UDWc n={n}" for n in (5, 7, 9, 11, 13)]

    def test_random_loop_digraphs(self):
        sp = pytest.importorskip("sympy")
        rng = random.Random(4242)
        for _ in range(25):
            d = _random_loop_digraph(rng, rng.randint(1, 7), p=rng.choice([0.2, 0.4]))
            assert minimal_polynomial(d) == _sympy_minimal_polynomial(sp, d), d.arcs


# -- non-derogatory status --------------------------------------------


class TestNonDerogatory:
    def test_plain_cycle(self):
        assert is_non_derogatory(build_family(FamilySpec("DCn", 5)))

    def test_odd_wheel_complement_is_derogatory(self):
        assert not is_non_derogatory(build_family(FamilySpec("UDWc", 9)))

    def test_even_wheel_complement_is_not(self):
        assert is_non_derogatory(build_family(FamilySpec("UDWc", 8)))

    def test_squarefree_implies_non_derogatory(self):
        for spec, graph in _family_sweep(9):
            psi = charpoly_exact(graph)
            if psi.degree >= 1 and is_squarefree(psi, "Q"):
                assert is_non_derogatory(graph), spec.to_text()

    def test_rank_n_verdict_skips_the_charpoly(self, monkeypatch):
        """Degree n in either tier already gives the verdict, so it
        never forms the characteristic polynomial."""
        cyclic = [
            graph
            for _, graph in _family_sweep(9)
            if spectra._minimal_polynomial_rational(graph).degree == graph.n
        ]
        assert len(cyclic) > 100

        def forbidden(*_):
            raise AssertionError("non-derogatory verdict formed the characteristic polynomial")

        monkeypatch.setattr(spectra, "charpoly_exact", forbidden)
        assert all(is_non_derogatory(graph) for graph in cyclic)
        assert all(spectra.minimal_polynomial_degree(graph) == graph.n for graph in cyclic)

    def test_derogatory_degree_runs_the_search_once(self, monkeypatch):
        search = spectra._minimal_polynomial_mod_p
        calls = []

        def counted(d):
            calls.append(d)
            return search(d)

        monkeypatch.setattr(spectra, "_minimal_polynomial_mod_p", counted)
        assert spectra.minimal_polynomial_degree(build_family(FamilySpec("UDWc", 9))) == 8
        assert len(calls) == 1

    def test_identity_pattern_is_derogatory(self):
        d = build_digraph(3, [(1, 1), (2, 2), (3, 3)])
        assert not is_non_derogatory(d)
        assert str(minimal_polynomial(d)) == "x - 1"

    def test_verdicts_never_consult_squarefreeness(self, monkeypatch):
        """Criterion 6 tests that squarefree implies non-derogatory, so
        the verdict must not come from the squarefree test."""
        sweep = list(_family_sweep(9))
        expected = [minimal_polynomial(graph).degree == graph.n for _, graph in sweep]
        assert not all(expected)

        def forbidden(*_):
            raise AssertionError("non-derogatory verdict consulted squarefreeness")

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("digraph_spectra"):
                for name in ("gcd_over_q", "is_squarefree"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, forbidden)
        verdicts = [is_non_derogatory(graph) for _, graph in sweep]
        assert verdicts == expected


# -- triangular certificate -------------------------------------------


def _certificate_is_sound(d, cert):
    """Recheck the definition: after deleting the stated row and column
    of xI - A, the stated orders make the minor triangular with nonzero
    constant diagonal (each staged row vanishes at every later column),
    hence a nonzero constant determinant."""
    rows, cols = cert.row_order, cert.col_order
    n = d.n
    if sorted(rows) != sorted(set(range(1, n + 1)) - {cert.removed_row}):
        return False
    if sorted(cols) != sorted(set(range(1, n + 1)) - {cert.removed_col}):
        return False
    for i, r in enumerate(rows):
        c = cols[i]
        if r == c or not d.has_arc(r, c):
            return False  # diagonal cell must be a nonzero constant
        for cj in cols[i + 1:]:
            if r == cj or d.has_arc(r, cj):
                return False  # later cells in the row must vanish identically
    return True


def _first_staging(a, rows, cols):
    """The first staging in row-then-column order, found by a plain
    depth-first search without memo: the order the certificate search
    must report."""
    if not rows:
        return []
    for r in rows:
        for c in cols:
            if r == c or a[r - 1][c - 1] == 0:
                continue
            if any(c2 != c and (c2 == r or a[r - 1][c2 - 1]) for c2 in cols):
                continue
            rest = _first_staging(
                a, [x for x in rows if x != r], [x for x in cols if x != c]
            )
            if rest is not None:
                return [(r, c)] + rest
    return None


def _reference_certificate(d):
    a = d.adjacency_matrix()
    vertices = list(range(1, d.n + 1))
    for removed_row in vertices:
        for removed_col in vertices:
            if removed_row == removed_col:
                continue
            rows = [v for v in vertices if v != removed_row]
            cols = [v for v in vertices if v != removed_col]
            order = _first_staging(a, rows, cols)
            if order is not None:
                return removed_row, removed_col, [r for r, _ in order], [c for _, c in order]
    return None


class TestTriangularCertificate:
    def test_superdiagonal_pattern(self):
        # the n=4 pattern with a single return arc is the 4-cycle
        d = build_digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        cert = triangular_certificate(d)
        assert cert is not None
        assert _certificate_is_sound(d, cert)

    def test_empty_digraph_has_none(self):
        assert triangular_certificate(build_digraph(3, [])) is None

    def test_derogatory_graph_has_none(self):
        assert triangular_certificate(build_family(FamilySpec("UDWc", 9))) is None

    def test_search_bound(self):
        """No size limit: above the CLI's n <= 10 the search still
        returns the reference search's first witness, or None."""
        found = []
        for family in ("DCn", "kDW", "PDF", "DCc"):
            graph = build_family(FamilySpec(family, 12))
            cert = triangular_certificate(graph)
            got = cert and (
                cert.removed_row, cert.removed_col, list(cert.row_order), list(cert.col_order)
            )
            assert got == _reference_certificate(graph), family
            assert cert is None or _certificate_is_sound(graph, cert), family
            found.append(cert is not None)
        assert found == [True, True, True, False]

    def test_certificates_on_sweep_are_sound_and_imply_non_derogatory(self):
        found = 0
        for spec, graph in _family_sweep(8):
            if graph.n > 10:
                continue
            cert = triangular_certificate(graph)
            if cert is None:
                continue
            found += 1
            assert _certificate_is_sound(graph, cert), spec.to_text()
            assert is_non_derogatory(graph), spec.to_text()
        assert found > 20

    def test_stage_order_is_the_first_staging_in_search_order(self):
        """The loop's steps, taken from the full state, give exactly the
        first staging in search order: a skipped or reordered step
        changes the order or its length."""
        rng = random.Random(20260)
        feasible = 0
        for _ in range(100):
            n = rng.randint(3, 7)
            a = [[int(rng.random() < 0.1) for _ in range(n)] for _ in range(n)]
            for i in range(1, n):
                a[i - 1][i] = 1  # a path keeps many stagings feasible
            for removed_row, removed_col in itertools.permutations(range(1, n + 1), 2):
                rows = [v for v in range(1, n + 1) if v != removed_row]
                cols = [v for v in range(1, n + 1) if v != removed_col]
                want = _first_staging(a, rows, cols)
                assert spectra._stage_search(a, rows, cols) == want, (a, rows, cols)
                feasible += want is not None and len(want) > 1
        assert feasible > 50

    def test_every_reached_state_has_at_most_one_stage(self):
        """The uniqueness argument of the staging loop, checked directly
        on 2000 seeded digraphs with n <= 8, loops of multiplicity 1..3
        and densities up to complete, half of them containing the path
        1 -> 2 -> ... -> n so that many deletions stage: every state the loop reaches has
        at most one qualifying (r, c) pair, so its first pair is the
        depth-first search's only choice, and both find the same
        staging."""
        rng = random.Random(2525)
        staged = 0
        for k in range(2000):
            n = rng.randint(2, 8)
            p = rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0])
            arcs = [
                (i, j, rng.randint(1, 3) if i == j else 1)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if rng.random() < p or (k % 2 and j == i + 1)
            ]
            a = build_digraph(n, arcs).adjacency_matrix()
            for removed_row, removed_col in itertools.permutations(range(1, n + 1), 2):
                rows = [v for v in range(1, n + 1) if v != removed_row]
                cols = [v for v in range(1, n + 1) if v != removed_col]
                got = spectra._stage_search(a, rows, cols)
                assert got == _first_staging(a, rows, cols), (a, rows, cols)
                walk = []
                while rows:
                    stages = [
                        (r, c)
                        for r in rows
                        for c in cols
                        if r != c
                        and a[r - 1][c - 1]
                        and not any(c2 != c and (c2 == r or a[r - 1][c2 - 1]) for c2 in cols)
                    ]
                    assert len(stages) <= 1, (a, rows, cols, stages)
                    if not stages:
                        break
                    walk += stages
                    rows = [x for x in rows if x != stages[0][0]]
                    cols = [x for x in cols if x != stages[0][1]]
                assert got == (None if rows else walk), (a, removed_row, removed_col)
                staged += got is not None and len(got) > 2
        assert staged > 200

    def test_certificates_match_the_reference_search(self):
        for spec, graph in _family_sweep(8):
            cert = triangular_certificate(graph)
            got = cert and (
                cert.removed_row, cert.removed_col, list(cert.row_order), list(cert.col_order)
            )
            assert got == _reference_certificate(graph), spec.to_text()
