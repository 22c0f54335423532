"""Exact integer polynomial arithmetic.

Core claims:
    - parse/str round-trips the canonical text form, coefficient lists
      are constant-first, and ring arithmetic is exact
    - divrem has Z[x] semantics: exact when the division is exact,
      InexactDivision otherwise; monic divisors always succeed; the
      integer long division agrees with rational long division
    - cyclotomic(d) satisfies prod_{d|n} Phi_d = x^n - 1 for n <= 30
    - gcd over Q is primitive with positive leading coefficient and
      divides both inputs exactly; its unit-gcd early exits mod 2 and
      mod P agree with the plain primitive PRS on seeded pairs,
      non-primitive inputs, constants, even leading coefficients and
      inputs whose leading coefficient or whole second argument vanishes
      mod P; against sympy's gcd on those pairs and on (psi, psi') for
      every characteristic polynomial of the default non-exponents
      table rows
    - gcd over F2 works on bit-packed images; both-zero input is an error
    - squarefree tests over Q and F2, an even leading coefficient makes
      the F2 verdict False, and F2-squarefree implies squarefree by the
      plain primitive PRS on family polynomials with n <= 14
    - Perron dominance and Brauer form classification match the
      worked instances; true Perron verdicts are cross-checked by the
      complete monic-factor search for degree <= 6, whose hoisted
      integer Lagrange basis agrees with rational interpolation
    - the monic-factor search, with its per-degree basis and its
      divisibility filters, returns the same factor or None as the
      original per-candidate interpolation and trial division (kept
      here as the reference) on the 34 certify-cold benchmark searches,
      3000 seeded polynomials (a third of them products of two factors
      of equal degree, where the search order decides) and every
      family characteristic polynomial with n <= 14, k <= 3
    - against sympy's factor_list, on a seeded sweep of monic
      polynomials of degree <= 8 and every family characteristic
      polynomial with n <= 14: the monic-factor search finds a factor of
      degree <= k exactly when one exists, and what it returns divides
      f; a Brauer form, and Perron dominance with a nonzero constant
      term, imply irreducibility.  Perron dominance with a zero constant
      term (x^2 + 2x, the Zn_loop j=2 rows) is a known wrong verdict,
      kept as a strict xfail.
    - against sympy's cyclotomic_poly, cyclotomic(d) from a cold cache
      for d = 1..150; against factor_list, the cyclotomic distinctness
      certificate's indices on the 12 odd alternating wheels (ADW and
      RADW, n = 5..15) are those of the charpoly's cyclotomic factors,
      each of multiplicity 1
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_spectra import (
    TABLE_NAMES,
    BothZeroMod2,
    BrauerForm,
    InexactDivision,
    IntPolynomial,
    InvalidParameter,
    NotMonic,
    brauer_form,
    build_family,
    charpoly_exact,
    cyclotomic,
    distinctness_check,
    find_monic_factor,
    gcd_over_f2,
    gcd_over_q,
    geometric_sum,
    is_squarefree,
    parse_family_spec,
    perron_irreducible,
    perron_margin,
    table_specs,
)
from digraph_spectra import polynomial
from digraph_spectra.families import DEFAULT_RANGES
from digraph_spectra.polynomial import (
    MINPOLY_PRIME as P,
    _interp_points,
    _lagrange_basis,
    _unit_gcd_mod_p,
)

X = IntPolynomial.x()
ONE = IntPolynomial.one()


def _poly(*coeffs_constant_first):
    return IntPolynomial(tuple(coeffs_constant_first))


def _fraction_divrem(f, divisor):
    """Rational long division; None when quotient or remainder is not
    integral."""
    rem = [Fraction(c) for c in f.coeffs]
    ddeg = divisor.degree
    if f.degree < ddeg:
        return IntPolynomial(), f
    quo = [Fraction(0)] * (f.degree - ddeg + 1)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = rem[i + ddeg] / divisor.leading_coefficient
        for j, dc in enumerate(divisor.coeffs):
            rem[i + j] -= quo[i] * dc
    if any(c.denominator != 1 for c in quo + rem):
        return None
    return IntPolynomial(int(c) for c in quo), IntPolynomial(int(c) for c in rem[:ddeg])


small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=9
).map(lambda cs: IntPolynomial(tuple(cs)))


# -- construction and text form ---------------------------------------


class TestTextForm:
    def test_parse_round_trip(self):
        text = "x^8 - x^5 - x^3 - x - 1"
        f = IntPolynomial.parse(text)
        assert str(f) == text
        assert f.to_coeff_list() == [-1, -1, 0, -1, 0, -1, 0, 0, 1]

    def test_parse_accepts_coefficients_and_constants(self):
        assert IntPolynomial.parse("2x^2 + 3") == _poly(3, 0, 2)
        assert IntPolynomial.parse("-x + 4") == _poly(4, -1)
        assert IntPolynomial.parse("7") == _poly(7)
        assert IntPolynomial.parse("0") == IntPolynomial.zero()

    def test_str_canonical_descending(self):
        assert str(_poly(-1, 0, 2, 1)) == "x^3 + 2x^2 - 1"
        assert str(IntPolynomial.zero()) == "0"
        assert str(_poly(0, 1)) == "x"

    @given(small_polys)
    def test_str_parse_inverse(self, f):
        assert IntPolynomial.parse(str(f)) == f

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntPolynomial.parse("x^^2")
        with pytest.raises(ValueError):
            IntPolynomial.parse("x + y")


class TestBasics:
    def test_degree_and_leading(self):
        f = _poly(5, 0, -3)
        assert f.degree == 2
        assert f.leading_coefficient == -3
        assert f.coefficient(0) == 5
        assert IntPolynomial.constant(5) == _poly(5)
        assert IntPolynomial.zero().degree == -1

    def test_monomial_and_shift(self):
        assert IntPolynomial.monomial(3, 2) == _poly(0, 0, 0, 2)
        assert _poly(1, 1).shift(2) == _poly(0, 0, 1, 1)

    def test_coefficient_out_of_range_is_zero(self):
        f = _poly(1, 2)
        assert f.coefficient(5) == 0
        assert f.coefficient(0) == 1


# -- ring arithmetic --------------------------------------------------


class TestArithmetic:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, f, g):
        assert f * g == g * f
        assert f + g == g + f

    @given(small_polys)
    def test_additive_inverse(self, f):
        assert f - f == IntPolynomial.zero()
        assert f + (-f) == IntPolynomial.zero()

    @given(small_polys)
    def test_units(self, f):
        assert f * ONE == f
        assert f * IntPolynomial.zero() == IntPolynomial.zero()

    def test_degree_of_product(self):
        f = _poly(1, 1)
        g = _poly(-1, 1)
        assert (f * g) == _poly(-1, 0, 1)

    def test_derivative(self):
        f = IntPolynomial.parse("x^8 - x^5 - x^3 - x - 1")
        assert str(f.derivative()) == "8x^7 - 5x^4 - 3x^2 - 1"
        assert ONE.derivative() == IntPolynomial.zero()

    def test_substitute_linear(self):
        # (-(x+1))^2 - 1 = x^2 + 2x
        f = _poly(-1, 0, 1)
        assert f.substitute_linear(-1, -1) == _poly(0, 2, 1)
        # identity substitution
        assert f.substitute_linear(1, 0) == f

    @given(small_polys, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_substitute_linear_is_a_ring_map(self, f, a, b):
        g = _poly(2, 1)
        lhs = (f * g).substitute_linear(a, b)
        rhs = f.substitute_linear(a, b) * g.substitute_linear(a, b)
        assert lhs == rhs

    def test_geometric_sum(self):
        assert geometric_sum(0, 3) == _poly(1, 1, 1, 1)
        assert geometric_sum(2, 2) == _poly(0, 0, 1)
        assert geometric_sum(3, 2).is_zero


# -- division ---------------------------------------------------------


class TestDivision:
    def test_exact_quotient(self):
        f = IntPolynomial.parse("x^4 - x")
        q, r = f.divrem(_poly(-1, 1))
        assert str(q) == "x^3 + x^2 + x"
        assert r.is_zero
        assert f.exact_div(_poly(-1, 1)) == q

    def test_inexact_raises(self):
        with pytest.raises(InexactDivision):
            _poly(1, 0, 1).divrem(_poly(0, 2))

    def test_monic_division_always_works(self):
        f = _poly(3, -7, 11, 5)
        b = _poly(4, 1)
        q, r = f.divrem(b)
        assert q * b + r == f
        assert r.degree < b.degree

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_monic_divrem_reconstructs(self, f, b):
        b = b + IntPolynomial.monomial(b.degree + 1 if b.degree >= 0 else 1, 1)
        q, r = f.divrem(b)
        assert q * b + r == f
        assert r.degree < b.degree

    def test_matches_rational_long_division(self):
        rng = random.Random(2024)
        raised = 0
        for trial in range(400):
            ddeg = rng.randint(0, 5)
            lead = 1 if trial % 2 == 0 else rng.choice([-3, -2, 2, 3, 4])
            divisor = IntPolynomial(
                [rng.randint(-4, 4) for _ in range(ddeg)] + [lead]
            )
            f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
            if trial % 3 == 0:
                f = f * divisor  # exact case for non-monic divisors too
            expected = _fraction_divrem(f, divisor)
            if expected is None:
                raised += 1
                with pytest.raises(InexactDivision):
                    f.divrem(divisor)
            else:
                assert f.divrem(divisor) == expected
        assert 0 < raised < 200

    def test_is_divisible_by(self):
        f = _poly(-1, 0, 1)
        assert f.is_divisible_by(_poly(-1, 1))
        assert not f.is_divisible_by(_poly(1, 1, 1))

    def test_content_and_primitive_part(self):
        f = _poly(6, -9, 12)
        assert f.content() == 3
        assert f.primitive_part() == _poly(2, -3, 4)


# -- cyclotomics ------------------------------------------------------


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == _poly(-1, 1)
        assert cyclotomic(2) == _poly(1, 1)
        assert cyclotomic(6) == _poly(1, -1, 1)

    def test_product_over_divisors_of_8(self):
        prod = ONE
        for d in (1, 2, 4, 8):
            prod = prod * cyclotomic(d)
        assert prod == IntPolynomial.monomial(8, 1) - ONE

    def test_product_identity_up_to_30(self):
        for n in range(1, 31):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPolynomial.monomial(n, 1) - ONE, n

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


# -- gcd over Q -------------------------------------------------------


class TestGcdQ:
    def test_shared_linear_factor(self):
        assert gcd_over_q(_poly(-1, 0, 1), _poly(-1, 1)) == _poly(-1, 1)

    def test_worked_example_squarefree(self):
        f = IntPolynomial.parse("x^8 - x^5 - x^3 - x - 1")
        assert gcd_over_q(f, f.derivative()) == ONE

    def test_repeated_root_at_zero(self):
        # x^5 - 2x^4 = x^4 (x - 2); gcd with derivative is x^3
        f = _poly(0, 0, 0, 0, -2, 1)
        assert gcd_over_q(f, f.derivative()) == _poly(0, 0, 0, 1)

    def test_gcd_with_zero(self):
        f = _poly(-2, 0, 4)
        assert gcd_over_q(f, IntPolynomial.zero()) == f.primitive_part()

    def test_random_gcd_divides_both(self):
        rng = random.Random(20260823)
        for _ in range(120):
            f = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 9))))
            g = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 9))))
            if f.is_zero and g.is_zero:
                continue
            d = gcd_over_q(f, g)
            assert d.leading_coefficient > 0
            assert d.content() == 1
            for h in (f, g):
                if not h.is_zero:
                    assert _divides_over_q(d, h)

    def test_brute_force_common_divisors_divide_gcd(self):
        rng = random.Random(7)
        for _ in range(40):
            f = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 9))))
            g = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 9))))
            if f.is_zero or g.is_zero:
                continue
            d = gcd_over_q(f, g)
            for c0 in range(-4, 5):
                for c1 in range(-4, 5):
                    for c2 in range(0, 5):
                        cand = IntPolynomial((c0, c1, c2))
                        if cand.degree < 1:
                            continue
                        if _divides_over_q(cand, f) and _divides_over_q(cand, g):
                            assert _divides_over_q(cand, d)


class TestGcdQModularShortcut:
    """The unit-gcd-mod-P early exit against the plain primitive PRS."""

    @staticmethod
    def _pairs():
        rng = random.Random(90210)

        def rand_poly(lo, hi):
            return IntPolynomial(
                tuple(rng.randint(-9, 9) for _ in range(rng.randint(lo, hi)))
            )

        pairs = []
        for _ in range(150):
            common = rand_poly(1, 4) if rng.random() < 0.5 else ONE
            f = rand_poly(1, 7) * common * rng.choice([1, -1, 6, -15])
            g = rand_poly(1, 7) * common * rng.choice([1, 4, -21])
            pairs.append((f, g))
        for f in [rand_poly(2, 6) for _ in range(40)]:
            pairs.append((f, f.derivative()))
            pairs.append((f * f, (f * f).derivative()))
        pairs += [
            (_poly(7), _poly(3)),
            (_poly(5), X),
            (X, _poly(5)),
            (_poly(0, 4), _poly(-6)),
            (IntPolynomial.zero(), _poly(6, 4)),
            (_poly(2, 4), IntPolynomial.zero()),
            # lc(f) = P: the reductions are x and 1, the true gcd is Px + 1
            ((P * X + 1) * X, P * X + 1),
            # g vanishes mod P, so the gcd mod P is f mod P itself
            (X * X - 1, P * (X - 1)),
            (X * X - 1, P * (X + 2)),
            (_poly(3, 1), _poly(P)),
            # even leading coefficient: the degree drops mod 2
            (_poly(1, 4, 4), _poly(4, 8)),
            (_poly(1, 2, 2), _poly(2, 4)),
            # odd leading coefficient, g even: the gcd mod 2 is f mod 2
            (_poly(1, 0, 1), _poly(2, 2)),
        ]
        return [(f, g) for f, g in pairs if not (f.is_zero and g.is_zero)]

    def test_matches_the_primitive_prs(self):
        for f, g in self._pairs():
            assert gcd_over_q(f, g) == _reference_gcd_over_q(f, g), (f, g)

    def test_leading_coefficient_divisible_by_p_skips_the_shortcut(self):
        f, g = (P * X + 1) * X, P * X + 1
        assert _unit_gcd_mod_p(f, g)  # the reductions x and 1 are coprime
        assert gcd_over_q(f, g) == P * X + 1

    def test_unit_gcd_mod_2_answers_first(self, monkeypatch):
        """An odd leading coefficient and a unit gcd mod 2 decide the
        answer before the mod-P Euclid runs; otherwise it still runs."""

        def unused(*_):
            raise AssertionError("the mod-P tier ran after a unit gcd mod 2")

        f = IntPolynomial.parse("x^8 - x^5 - x^3 - x - 1")
        assert gcd_over_f2(f, f.derivative()) == ONE
        monkeypatch.setattr(polynomial, "_unit_gcd_mod_p", unused)
        assert gcd_over_q(f, f.derivative()) == ONE
        # x^2 + 1 = (x + 1)^2 mod 2, squarefree over Q: mod P decides it
        with pytest.raises(AssertionError, match="mod-P tier"):
            gcd_over_q(_poly(1, 0, 1), _poly(0, 2))

    def test_unit_gcd_mod_p_on_shared_and_coprime_factors(self):
        assert not _unit_gcd_mod_p(X * X - 1, X - 1)
        assert not _unit_gcd_mod_p(X * X - 1, P * (X + 2))
        assert _unit_gcd_mod_p(X * X - 1, X + 2)
        assert _unit_gcd_mod_p(X, _poly(5))


def _reference_pseudo_rem(a, b):
    lead = b.leading_coefficient
    d = b.degree
    scale_left = a.degree - d + 1
    r = a
    while not r.is_zero and r.degree >= d:
        r = r * lead - b * IntPolynomial.monomial(r.degree - d, r.leading_coefficient)
        scale_left -= 1
    if scale_left > 0:
        r = r * (lead**scale_left)
    return r


def _reference_gcd_over_q(f, g):
    """The primitive pseudo-remainder sequence alone, with no modular
    early exit."""
    a = f.primitive_part()
    b = g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, _reference_pseudo_rem(a, b).primitive_part()
    return -a if a.leading_coefficient < 0 else a


def _divides_over_q(d, f):
    """Divisibility in Q[x]: scale f by a power of lc(d) so the
    classical pseudo-division is integral, then require remainder 0."""
    if f.is_zero:
        return True
    if d.is_zero or d.degree > f.degree:
        return False
    scaled = f * (d.leading_coefficient ** (f.degree - d.degree + 1))
    try:
        _, r = scaled.divrem(d)
    except InexactDivision:
        return False
    return r.is_zero


def _deep_row_charpolys():
    """The distinct characteristic polynomials of the default rows of
    every table but exponents, the rows whose verdicts need gcds."""
    found = {}
    for table in TABLE_NAMES:
        if table == "exponents":
            continue
        for spec in table_specs(table, *DEFAULT_RANGES[table]):
            try:
                psi = charpoly_exact(build_family(spec))
            except InvalidParameter:
                continue
            found[psi.coeffs] = psi
    return list(found.values())


class TestGcdQOracle:
    """gcd_over_q against sympy's gcd, made primitive with a positive
    leading coefficient."""

    @staticmethod
    def _sympy_gcd(sp, x, f, g):
        h = sp.Poly(list(reversed(f.coeffs)) or [0], x).gcd(
            sp.Poly(list(reversed(g.coeffs)) or [0], x)
        )
        _, h = h.primitive()
        coeffs = [int(c) for c in reversed(h.all_coeffs())]
        return -IntPolynomial(coeffs) if coeffs[-1] < 0 else IntPolynomial(coeffs)

    def test_seeded_pairs(self):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        for f, g in TestGcdQModularShortcut._pairs():
            assert gcd_over_q(f, g) == self._sympy_gcd(sp, x, f, g), (f, g)

    def test_deep_row_charpolys_and_derivatives(self):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        charpolys = _deep_row_charpolys()
        repeated = 0
        for psi in charpolys:
            expected = self._sympy_gcd(sp, x, psi, psi.derivative())
            assert gcd_over_q(psi, psi.derivative()) == expected, str(psi)
            repeated += expected.degree > 0
        assert len(charpolys) > 300 and repeated > 10


# -- gcd over F2 ------------------------------------------------------


class TestGcdF2:
    def test_square_mod_two(self):
        # x^2 + 1 = (x+1)^2 over F2
        assert gcd_over_f2(_poly(1, 0, 1), _poly(1, 1)) == _poly(1, 1)

    def test_gcd_with_zero_mod_two(self):
        f = _poly(1, 1, 0, 1)
        assert gcd_over_f2(f, IntPolynomial.zero()) == f

    def test_even_polynomial_reduces_to_zero(self):
        with pytest.raises(BothZeroMod2):
            gcd_over_f2(_poly(2, 4), _poly(6))

    def test_result_has_zero_one_coefficients(self):
        f = IntPolynomial.parse("x^7 - 3x^4 - 2x^2 - 1")
        d = gcd_over_f2(f, f.derivative())
        assert d == ONE
        assert all(c in (0, 1) for c in d.coeffs)


# -- squarefree -------------------------------------------------------


class TestSquarefree:
    def test_over_q(self):
        assert not is_squarefree(_poly(1, -2, 1), "Q")
        assert is_squarefree(IntPolynomial.parse("x^5 - 2x^4 - 1"), "Q")

    def test_over_f2(self):
        assert is_squarefree(IntPolynomial.parse("x^7 - 3x^4 - 2x^2 - 1"), "F2")

    def test_even_leading_coefficient_is_inconclusive_over_f2(self):
        # 4x^2 + 4x + 1 = (2x + 1)^2 reduces to the unit 1 mod 2
        square = _poly(1, 4, 4)
        assert not is_squarefree(square, "Q")
        assert not is_squarefree(square, "F2")
        # squarefree over Q, still False over F2
        assert is_squarefree(_poly(1, 0, 2), "Q")
        assert not is_squarefree(_poly(1, 0, 2), "F2")

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            is_squarefree(ONE, "F3")

    def test_f2_squarefree_implies_q_squarefree_on_families(self):
        texts = [
            "family=DCn_i_nmi n=%d" % n for n in (5, 7, 9, 11, 13)
        ] + [
            "family=ADF n=%d" % n for n in (5, 7, 9, 11, 13)
        ] + [
            "family=PDF n=%d" % n for n in range(4, 15)
        ]
        f2_squarefree = 0
        for text in texts:
            psi = charpoly_exact(build_family(parse_family_spec(text)))
            if is_squarefree(psi, "F2"):
                # the reference PRS, since "Q" itself asks mod 2 first
                assert _reference_gcd_over_q(psi, psi.derivative()) == ONE, text
                f2_squarefree += 1
        assert f2_squarefree > 5


# -- irreducibility criteria ------------------------------------------


class TestPerron:
    def test_direct_inequality(self):
        assert perron_irreducible(IntPolynomial.parse("x^3 - 5x^2 - x - 1"))
        # margin = (|a_1|, 1 + sum of the remaining magnitudes)
        assert perron_margin(IntPolynomial.parse("x^3 - 5x^2 - x - 1")) == (5, 3)

    def test_loop_family_shape(self):
        # x^4 - 5x^3 - x^2 - x - 1: dominance 5 > 1 + 3
        f = IntPolynomial.monomial(4, 1) - _poly(1, 1, 1, 5)
        assert perron_irreducible(f)

    def test_inconclusive_when_a1_zero(self):
        assert not perron_irreducible(_poly(-1, -1, 0, 1))

    def test_needs_monic(self):
        with pytest.raises(NotMonic):
            perron_irreducible(_poly(1, 1, 2))

    def test_true_verdicts_have_no_small_factor(self):
        shapes = [
            "x^3 - 5x^2 - x - 1",
            "x^4 - 5x^3 - x^2 - x - 1",
            "x^5 - 7x^4 - x^3 - x^2 - x - 1",
            "x^6 - 9x^5 - 2x^3 - 1",
        ]
        for text in shapes:
            f = IntPolynomial.parse(text)
            if perron_irreducible(f):
                assert find_monic_factor(f, f.degree // 2) is None, text


class TestBrauer:
    def test_form_f_all_negative(self):
        f = IntPolynomial.parse("x^4 - x^3 - x^2 - x - 1")
        assert brauer_form(f) is BrauerForm.FORM_F

    def test_form_f_needs_non_increasing_magnitudes(self):
        bad = IntPolynomial.parse("x^3 - x^2 - 2x - 1")
        assert brauer_form(bad) is BrauerForm.NEITHER

    def test_form_g_odd_chain(self):
        f = IntPolynomial.parse("x^5 - 3x^4 - 2x^2 - 1")
        assert brauer_form(f) is BrauerForm.FORM_G

    def test_neither(self):
        assert brauer_form(_poly(-1, 0, -1, 0, 1)) is BrauerForm.NEITHER

    def test_needs_monic(self):
        with pytest.raises(NotMonic):
            brauer_form(_poly(1, 1, 3))


def _fraction_lagrange(points, values):
    """Rational Lagrange interpolation; None unless every coefficient is
    an integer."""
    acc = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = [Fraction(1)]
        for j, xj in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                basis = [c / (xi - xj) for c in basis]
        for k, c in enumerate(basis):
            acc[k] += yi * c
    if any(c.denominator != 1 for c in acc):
        return None
    return IntPolynomial(int(c) for c in acc)


def _hoisted_interpolant(points, values):
    """The interpolant through (points, values) from the hoisted integer
    basis, None unless it has integer coefficients."""
    rows, common = _lagrange_basis(points)
    acc = [sum(y * row[k] for y, row in zip(values, rows)) for k in range(len(points))]
    if any(c % common for c in acc):
        return None
    return IntPolynomial(c // common for c in acc)


def _reference_lagrange(points, values):
    """The per-candidate interpolation of the original search: Lagrange
    terms scaled to the lcm of the basis denominators, None unless
    integral."""
    terms = []
    for i, xi in enumerate(points):
        basis = [1]
        denom = 1
        for j, xj in enumerate(points):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        terms.append((basis, denom))
    common = math.lcm(*(abs(denom) for _, denom in terms))
    acc = [0] * len(points)
    for (basis, denom), yi in zip(terms, values):
        if yi == 0:
            continue
        scale = yi * (common // denom)
        for k, c in enumerate(basis):
            acc[k] += c * scale
    if any(c % common for c in acc):
        return None
    return IntPolynomial(c // common for c in acc)


def _reference_find_monic_factor(f, max_degree):
    """The original exhaustive search: interpolate every divisor tuple
    and trial-divide each integral candidate with ``is_divisible_by``."""
    for d in range(1, max_degree + 1):
        points = _interp_points(d)
        values = [f(t) for t in points]
        for t, v in zip(points, values):
            if v == 0:
                return IntPolynomial((-t, 1))
        choice_lists = [polynomial._divisors_signed(v) for v in values]
        for combo in itertools.product(*choice_lists):
            targets = [val - t**d for t, val in zip(points, combo)]
            h = _reference_lagrange(points, targets)
            if h is None:
                continue
            g = IntPolynomial.monomial(d) + h
            if f.is_divisible_by(g):
                return g
    return None


def _certify_cold_searches():
    """(psi, k) for the factor searches of the ``certify-cold`` benchmark
    workload: the characteristic polynomials of degree <= 6 of its
    Perron items (Xn_loops m = n+1, n+2) and Brauer items (PDF and
    Xn_loops m = 2..n+2), n = 3..14, searched to k = min(3, deg - 1)."""
    specs = []
    for n in range(3, 15):
        specs += [f"family=Xn_loops n={n} m={m}" for m in (n + 1, n + 2)]
    for n in range(3, 15):
        specs += [f"family=PDF n={n}"] + [f"family=Xn_loops n={n} m={m}" for m in range(2, n + 3)]
    polys = [charpoly_exact(build_family(parse_family_spec(text))) for text in specs]
    return [(psi, min(3, psi.degree - 1)) for psi in polys if psi.degree <= 6]


def _seeded_searches():
    """3000 seeded (f, k, pair), k <= 3.  Every third f is a product a b
    of two distinct random monic factors of equal degree 1..3, half the
    time times one more small factor, with pair = {a, b}; the others are
    random polynomials of degree 0..6 with coefficients in -3..3, half
    of them with a leading coefficient drawn from -2, -1, 1, 2, 3, pair
    empty."""
    rng = random.Random(3030)
    out = []
    while len(out) < 3000:
        index = len(out)
        pair = set()
        if index % 3 == 0:
            degree = rng.randint(1, 3)
            a, b = _random_monic(rng, degree), _random_monic(rng, degree)
            if a == b:
                continue
            f = a * b
            if rng.random() < 0.5:
                f = f * _random_monic(rng, rng.randint(1, 2))
            pair = {a, b}
        else:
            lead = 1 if index % 3 == 1 else rng.choice((-2, -1, 1, 2, 3))
            f = IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 6))] + [lead])
        out.append((f, rng.randint(1, 3), pair))
    return out


@functools.lru_cache(maxsize=None)
def _family_charpolys():
    """Every distinct family characteristic polynomial with n <= 14."""
    family = {}
    for table in TABLE_NAMES:
        for spec in table_specs(table, 1, 14):
            try:
                family[str(spec)] = charpoly_exact(build_family(spec))
            except InvalidParameter:
                continue
    return tuple({str(f): f for f in family.values()}.values())


class TestFactorSearch:
    def test_integer_interpolation_matches_rational(self):
        rng = random.Random(77)
        found = 0
        for _ in range(300):
            points = _interp_points(rng.randint(1, 4))
            values = [rng.randint(-12, 12) for _ in points]
            rows, common = _lagrange_basis(points)
            for i, row in enumerate(rows):
                at = [IntPolynomial(row)(t) for t in points]
                assert at == [common * (i == j) for j in range(len(points))], points
            expected = _fraction_lagrange(points, values)
            assert _hoisted_interpolant(points, values) == expected, (points, values)
            assert _reference_lagrange(points, values) == expected, (points, values)
            found += expected is not None
        assert 0 < found < 300

    def test_same_factor_as_reference_on_certify_cold_searches(self):
        searches = _certify_cold_searches()
        assert len(searches) == 34
        for f, k in searches:
            assert find_monic_factor(f, k) == _reference_find_monic_factor(f, k), (str(f), k)

    def test_same_factor_as_reference_on_seeded_polynomials(self):
        found = ordered = 0
        for f, k, pair in _seeded_searches():
            g = _reference_find_monic_factor(f, k)
            assert find_monic_factor(f, k) == g, (str(f), k)
            found += g is not None
            # a and b both divide f, so the search order picked g
            ordered += g in pair
        assert found > 1000 and ordered > 100

    def test_same_factor_as_reference_on_family_charpolys(self):
        found = 0
        for f in _family_charpolys():
            for k in range(1, 4):
                g = _reference_find_monic_factor(f, k)
                assert find_monic_factor(f, k) == g, (str(f), k)
                found += g is not None
        assert found > 300

    def test_finds_linear_factor(self):
        f = _poly(-2, 1, -2, 1)  # (x-2)(x^2+1)
        g = find_monic_factor(f, 1)
        assert g == _poly(-2, 1)

    def test_finds_quadratic_factor(self):
        f = _poly(1, 0, 2, 0, 1)  # (x^2+1)^2
        g = find_monic_factor(f, 2)
        assert g is not None
        assert f.is_divisible_by(g)

    def test_irreducible_has_none(self):
        assert find_monic_factor(IntPolynomial.parse("x^5 - 2x^4 - 1"), 2) is None

    def test_non_monic_input_still_searched(self):
        # 2x^2 - 2 = 2(x - 1)(x + 1); monic factors exist even though
        # the input is not monic
        assert find_monic_factor(_poly(-2, 0, 2), 1) == _poly(-1, 1)


# -- sympy oracle for the irreducibility helpers ----------------------


def _random_monic(rng, degree):
    return IntPolynomial([rng.randint(-3, 3) for _ in range(degree)] + [1])


def _oracle_sweep():
    """(f, largest factor degree to search for): seeded monic
    polynomials of degree 2..8, a quarter each products of small
    factors, plain random, Perron-dominant and Brauer form F, searched
    up to deg f // 2; then every distinct family characteristic
    polynomial with n <= 14, searched up to degree min(deg f // 2, 3)
    (about 0.12 s of search; degree 4 there takes about 0.3 s, degree 5
    a few seconds)."""
    rng = random.Random(2024)
    polys = []
    for index in range(160):
        degree = rng.randint(2, 8)
        f = _random_monic(rng, degree)
        if index % 4 == 0:
            f = ONE
            while f.degree < degree:
                f = f * _random_monic(rng, rng.randint(1, min(3, degree - f.degree)))
        elif index % 4 == 2:
            coeffs = list(f.coeffs)
            tail = sum(abs(c) for c in coeffs[:-2])
            coeffs[-2] = rng.choice((-1, 1)) * (tail + rng.randint(0, 3))
            f = IntPolynomial(coeffs)
        elif index % 4 == 3:
            a = sorted((rng.randint(1, 4) for _ in range(degree)), reverse=True)
            f = IntPolynomial([-v for v in reversed(a)] + [1])
        polys.append((f, f.degree // 2))
    return polys + [(f, min(f.degree // 2, 3)) for f in _family_charpolys()]


@pytest.fixture(scope="module")
def factored():
    """(f, degrees of sympy's irreducible factors of f ascending, search
    bound)."""
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    out = []
    for f, bound in _oracle_sweep():
        _, factors = sp.Poly(list(reversed(f.coeffs)), x).factor_list()
        out.append((f, sorted(g.degree() for g, _ in factors), bound))
    return out


def _irreducible(f, degrees):
    return degrees == [f.degree]


class TestIrreducibilityOracle:
    def test_monic_factor_search_matches_factor_list(self, factored):
        found = missed = 0
        for f, degrees, bound in factored:
            for k in range(1, bound + 1):
                g = find_monic_factor(f, k)
                assert (g is not None) == (degrees[0] <= k), (str(f), k, degrees)
                if g is None:
                    missed += 1
                else:
                    assert 1 <= g.degree <= k and f.is_divisible_by(g), (str(f), k, str(g))
                    found += 1
        assert found > 100 and missed > 100

    def test_brauer_form_implies_irreducible(self, factored):
        certified = 0
        for f, degrees, _ in factored:
            if f.degree >= 2 and brauer_form(f) is not BrauerForm.NEITHER:
                assert _irreducible(f, degrees), str(f)
                certified += 1
        assert certified > 50

    def test_perron_with_nonzero_constant_implies_irreducible(self, factored):
        certified = 0
        for f, degrees, _ in factored:
            if f.degree >= 2 and f.coeffs[0] != 0 and perron_irreducible(f):
                assert _irreducible(f, degrees), str(f)
                certified += 1
        assert certified > 20

    @pytest.mark.xfail(
        strict=True,
        reason="perron_irreducible ignores Perron's a_0 != 0 hypothesis: "
        "x^2 + 2x and the Zn_loop j=2 charpolys x^n - 2x^(n-1) pass",
    )
    def test_perron_with_zero_constant_implies_irreducible(self, factored):
        dominant = [
            (f, degrees)
            for f, degrees, _ in factored
            if f.degree >= 2 and f.coeffs[0] == 0 and perron_irreducible(f)
        ]
        assert dominant
        for f, degrees in dominant:
            assert _irreducible(f, degrees), str(f)


def _sympy_coeffs(poly):
    """Constant-first integer coefficients of a sympy Poly."""
    return [int(c) for c in reversed(poly.all_coeffs())]


class TestCyclotomicOracle:
    """cyclotomic and the cyclotomic distinctness certificate against
    sympy's cyclotomic_poly and factor_list."""

    def test_cyclotomic_matches_sympy_from_a_cold_cache(self):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        cyclotomic.cache_clear()
        for d in range(1, 151):
            expected = IntPolynomial(_sympy_coeffs(sp.cyclotomic_poly(d, x, polys=True)))
            assert cyclotomic(d) == expected, d

    def test_wheel_indices_match_factor_list(self):
        """On the odd alternating wheels n = 5..15 of the certify-cold
        benchmark workload, the certificate's cyclotomic indices are
        those of the cyclotomic factors in sympy's factorization of the
        characteristic polynomial, each of multiplicity 1.  A factor of
        degree e is compared only with Phi_d for phi(d) = e, and
        phi(d) >= sqrt(d / 2) bounds those d by 2 e^2."""
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        cyclotomic.cache_clear()
        checked = 0
        for family in ("ADW", "RADW"):
            for n in range(5, 16, 2):
                spec = parse_family_spec(f"family={family} n={n}")
                psi = charpoly_exact(build_family(spec))
                _, factors = sp.Poly(list(reversed(psi.coeffs)), x).factor_list()
                indices = []
                for g, multiplicity in factors:
                    coeffs = _sympy_coeffs(g)
                    e = len(coeffs) - 1
                    for d in range(1, 2 * e * e + 1):
                        if sp.totient(d) != e:
                            continue
                        if coeffs == _sympy_coeffs(sp.cyclotomic_poly(d, x, polys=True)):
                            assert multiplicity == 1, (spec.to_text(), d)
                            indices.append(d)
                cert = distinctness_check(spec, "cyclotomic")
                assert cert["cyclotomic_indices"] == sorted(indices), spec.to_text()
                checked += 1
        assert checked == 12
