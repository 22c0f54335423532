"""Exact arithmetic for dense univariate polynomials over the integers.

Coefficients are Python ints (arbitrary precision), stored constant term
first; the zero polynomial has an empty coefficient tuple and degree -1.
On top of ring arithmetic the module provides the number-theoretic
helpers used elsewhere in the package:

* cyclotomic polynomials by exact division of x^d - 1,
* gcd over Q via a primitive pseudo-remainder sequence (result is
  primitive with positive leading coefficient), unless a unit gcd mod 2,
  or else mod a large prime, already proves the inputs coprime,
* gcd over F2 on bit-packed residues,
* squarefree tests over Q and over F2 (the F2 verdict is one-directional:
  True implies squarefree over Q),
* the dominant-coefficient irreducibility test and the two structured
  coefficient forms that certify irreducibility for monic polynomials,
* a complete Kronecker interpolation search for monic integer factors up
  to a requested degree, used as a brute-force cross-check: one integer
  Lagrange basis per degree, and divisibility filters at two further
  points before trial division.

Text format: descending powers with explicit signs, e.g.
``x^8 - x^5 - x^3 - x - 1``; JSON form is the coefficient list, constant
term first.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from enum import Enum
from functools import lru_cache
from typing import Iterable


class InexactDivision(ArithmeticError):
    """Division produced a non-integer quotient or remainder."""


class ExactnessCheckFailed(ArithmeticError):
    """An exact computation failed its own closing check, so its result
    would be wrong; raised explicitly so that it survives ``python -O``."""


class BothZeroMod2(ValueError):
    """gcd over F2 is undefined when both inputs vanish mod 2."""


class NotMonic(ValueError):
    """Raised by criteria that only apply to monic polynomials."""


_TERM_RE = re.compile(r"^([+-]?)\s*(\d+)?\s*(x(?:\^(\d+))?)?$")


class IntPolynomial:
    """Dense integer polynomial, an immutable value type.

    ``coeffs`` is a tuple with the constant term first and no trailing
    zeros, so equal polynomials compare equal structurally.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def __call__(self, point: int) -> int:
        return _evaluate(self.coeffs, point)

    def substitute_linear(self, a: int, b: int) -> "IntPolynomial":
        """Return p(a*x + b), composition with a linear polynomial."""
        inner = IntPolynomial((b, a))
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def shift(self, exponent: int) -> "IntPolynomial":
        """Multiply by x^exponent."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * exponent + self.coeffs)

    # -- division -----------------------------------------------------

    def divrem(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Euclidean division with the constraint that the quotient and
        remainder are integral; raises InexactDivision otherwise.

        Integer long division: each quotient coefficient must come out
        of ``divmod`` by the leading coefficient with zero remainder,
        else InexactDivision is raised at once.  The quotient over Q is
        integral exactly when every such step is, and then so is the
        remainder, so this is the rational division's verdict.  For
        monic divisors it always succeeds; for a primitive non-monic
        divisor it succeeds exactly when the divisor splits off over Z.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return IntPolynomial(), self
        rem = list(self.coeffs)
        dcoeffs = divisor.coeffs
        ddeg = divisor.degree
        lead = dcoeffs[-1]
        quo = [0] * (len(rem) - ddeg)
        for i in range(len(quo) - 1, -1, -1):
            coeff, r = divmod(rem[i + ddeg], lead)
            if r:
                raise InexactDivision(f"({self}) divrem ({divisor}) is not integral")
            quo[i] = coeff
            if coeff:
                window = rem[i : i + ddeg + 1]
                rem[i : i + ddeg + 1] = [x - coeff * dc for x, dc in zip(window, dcoeffs)]
        return IntPolynomial(quo), IntPolynomial(rem[:ddeg])

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        quo, rem = self.divrem(divisor)
        if not rem.is_zero:
            raise InexactDivision(f"({divisor}) does not divide ({self})")
        return quo

    def is_divisible_by(self, divisor: "IntPolynomial") -> bool:
        try:
            _, rem = self.divrem(divisor)
        except InexactDivision:
            return False
        return rem.is_zero

    # -- content ------------------------------------------------------

    def content(self) -> int:
        """gcd of the coefficients, signed by the leading coefficient."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        if g and self.leading_coefficient < 0:
            g = -g
        return g

    def primitive_part(self) -> "IntPolynomial":
        if self.is_zero:
            return self
        g = self.content()
        return IntPolynomial(c // g for c in self.coeffs)

    # -- text and JSON forms ------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exp in range(self.degree, -1, -1):
            c = self.coeffs[exp]
            if c == 0:
                continue
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            elif exp == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{exp}" if mag == 1 else f"{mag}x^{exp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse the canonical text form (signs split terms; whitespace free)."""
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty polynomial text")
        normalized = stripped.replace("-", "+-")
        acc: dict[int, int] = {}
        seen_term = False
        for chunk in normalized.split("+"):
            chunk = chunk.replace(" ", "")
            if not chunk:
                continue
            m = _TERM_RE.match(chunk)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise ValueError(f"cannot parse polynomial term {chunk!r} in {text!r}")
            sign, digits, xpart, expdigits = m.groups()
            coeff = int(digits) if digits is not None else 1
            if sign == "-":
                coeff = -coeff
            if xpart is None:
                exp = 0
            elif expdigits is None:
                exp = 1
            else:
                exp = int(expdigits)
            acc[exp] = acc.get(exp, 0) + coeff
            seen_term = True
        if not seen_term:
            raise ValueError(f"no terms found in {text!r}")
        top = max(acc) if acc else 0
        return cls(acc.get(i, 0) for i in range(top + 1))

    def to_coeff_list(self) -> list[int]:
        """JSON form: coefficient list, constant term first."""
        return list(self.coeffs)


def _evaluate(coeffs, point: int) -> int:
    """Horner evaluation of a coefficient sequence, constant term first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def _coerce(value) -> IntPolynomial | None:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return None


X = IntPolynomial.x()


def geometric_sum(low: int, high: int) -> IntPolynomial:
    """x^low + x^(low+1) + ... + x^high (zero when the range is empty)."""
    if high < low:
        return IntPolynomial()
    return IntPolynomial((0,) * low + (1,) * (high - low + 1))


# -- cyclotomic polynomials -------------------------------------------


def _totient(d: int) -> int:
    result = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, computed by exact division of
    x^d - 1 by the cyclotomic polynomials of the proper divisors."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    numerator = IntPolynomial.monomial(d) - 1
    for e in range(1, d):
        if d % e == 0:
            numerator = numerator.exact_div(cyclotomic(e))
    if not (numerator.is_monic and numerator.degree == _totient(d)):
        raise ExactnessCheckFailed(f"cyclotomic({d}) is not monic of degree phi({d})")
    return numerator


# -- gcds -------------------------------------------------------------

MINPOLY_PRIME = 2**61 - 1  # the one modulus of the mod-P shortcuts here and in spectra


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced mod b in Z,
    for deg a >= deg b.  That power of lc(b) makes the quotient integral,
    so ``divrem`` never refuses it."""
    return (a * b.leading_coefficient ** (a.degree - b.degree + 1)).divrem(b)[1]


def gcd_over_q(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd in Q[x], returned primitive in Z[x] with positive leading
    coefficient; gcd(f, 0) = normalized f; both zero is an error.

    Two first tiers can prove the answer 1 when deg f >= 1: a unit gcd
    of the reductions mod 2, tried when lc(f) is odd, then a unit gcd
    mod P = ``MINPOLY_PRIME``, tried when P does not divide lc(f).  The
    argument is the same for both moduli q: a primitive common factor h
    of degree >= 1 divides f in Z[x], so lc(h) divides lc(f), h mod q
    keeps its degree and divides both reductions, whose gcd is then no
    unit.  (For g = f' a unit gcd says the resultant of f and f' is
    nonzero mod q, hence nonzero.)  Every other case runs the primitive
    pseudo-remainder sequence, so the result is always the exact gcd."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if f.degree >= 1:
        lead = f.leading_coefficient
        if lead & 1 and gcd_over_f2(f, g).degree == 0:
            return IntPolynomial.one()
        if lead % MINPOLY_PRIME and _unit_gcd_mod_p(f, g):
            return IntPolynomial.one()
    a = f.primitive_part()
    b = g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive_part()
    if a.leading_coefficient < 0:
        a = -a
    return a


def _unit_gcd_mod_p(f: IntPolynomial, g: IntPolynomial) -> bool:
    """Whether gcd(f mod P, g mod P) is a nonzero constant, by Euclid
    over Z/P on coefficient lists (constant term first); f mod P must
    be nonzero."""
    p = MINPOLY_PRIME
    a = [c % p for c in f.coeffs]
    b = [c % p for c in g.coeffs]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        top = len(b) - 1
        while len(a) > top:  # a <- a mod b, one leading term at a time
            c = a.pop()
            if c:
                base = len(a) - top
                for i in range(top):
                    a[base + i] = (a[base + i] - c * b[i]) % p
        a, b = b, a


def _mod2_bits(f: IntPolynomial) -> int:
    bits = 0
    for i, c in enumerate(f.coeffs):
        if c & 1:
            bits |= 1 << i
    return bits


def _bits_to_poly(bits: int) -> IntPolynomial:
    coeffs = []
    while bits:
        coeffs.append(bits & 1)
        bits >>= 1
    return IntPolynomial(coeffs)


def gcd_over_f2(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd of the mod-2 reductions, returned with 0/1 coefficients."""
    a = _mod2_bits(f)
    b = _mod2_bits(g)
    if a == 0 and b == 0:
        raise BothZeroMod2("both polynomials vanish mod 2")
    while b:
        # Reduce a mod b by xor-shifting off leading bits.
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return _bits_to_poly(a)


def is_squarefree(f: IntPolynomial, field: str = "Q") -> bool:
    """True iff f is coprime with its derivative over the given field.

    Over F2 the test works on the mod-2 reduction, so True implies
    squarefree over Q (the argument of :func:`gcd_over_q`) but False is
    inconclusive; a polynomial with an even leading coefficient, whose
    degree drops mod 2, reports False.
    """
    if f.degree < 1:
        raise ValueError("squarefree test needs degree >= 1")
    if field == "Q":
        return gcd_over_q(f, f.derivative()).degree == 0
    if field == "F2":
        return bool(f.leading_coefficient & 1) and gcd_over_f2(f, f.derivative()).degree == 0
    raise ValueError(f"unknown field {field!r}, expected 'Q' or 'F2'")


# -- irreducibility certificates --------------------------------------


def perron_margin(f: IntPolynomial) -> tuple[int, int]:
    """(|a_1|, 1 + sum |a_i| for i >= 2) for monic f = x^n + a_1 x^(n-1) + ...

    The criterion certifies irreducibility when the first value strictly
    exceeds the second.
    """
    if not f.is_monic:
        raise NotMonic(f"dominant-coefficient test needs a monic polynomial, got {f}")
    if f.degree < 2:
        raise ValueError("dominant-coefficient test needs degree >= 2")
    a1 = f.coeffs[-2]
    tail = sum(abs(c) for c in f.coeffs[:-2])
    return abs(a1), 1 + tail


def perron_irreducible(f: IntPolynomial) -> bool:
    lhs, rhs = perron_margin(f)
    return lhs > rhs


class BrauerForm(Enum):
    FORM_F = "F"
    FORM_G = "G"
    NEITHER = "none"


def brauer_form(f: IntPolynomial) -> BrauerForm:
    """Classify a monic polynomial against two coefficient patterns that
    certify irreducibility.

    Form F: x^m - a_1 x^(m-1) - ... - a_m with every a_i a positive
    integer and a_1 >= a_2 >= ... >= a_m (m >= 2).

    Form G: x^(2m+1) +- (a_1 x^(2m) + a_2 x^(2m-1) + ... + a_(2m+1))
    with the even-indexed interior a's zero and the odd-indexed chain
    strictly decreasing and positive: a_1 > a_3 > ... > a_(2m+1) > 0.
    """
    if not f.is_monic:
        raise NotMonic(f"form classification needs a monic polynomial, got {f}")
    n = f.degree
    if n >= 2:
        a = [-f.coeffs[n - i] for i in range(1, n + 1)]
        if all(v > 0 for v in a) and all(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            return BrauerForm.FORM_F
    if n >= 3 and n % 2 == 1:
        for sign in (1, -1):
            a = [sign * f.coeffs[n - i] for i in range(1, n + 1)]
            if any(a[i] != 0 for i in range(1, n - 1, 2)):
                continue  # a_2, a_4, ..., a_(2m) must vanish
            odd_chain = [a[i] for i in range(0, n, 2)]  # a_1, a_3, ..., a_(2m+1)
            if odd_chain[-1] > 0 and all(
                odd_chain[i] > odd_chain[i + 1] for i in range(len(odd_chain) - 1)
            ):
                return BrauerForm.FORM_G
    return BrauerForm.NEITHER


# -- complete factor search (brute-force cross-check) -----------------


def _divisors_signed(value: int) -> list[int]:
    v = abs(value)
    small = []
    large = []
    d = 1
    while d * d <= v:
        if v % d == 0:
            small.append(d)
            if d != v // d:
                large.append(v // d)
        d += 1
    out = small + large[::-1]
    return sorted(out + [-d for d in out])


def _interp_points(count: int) -> list[int]:
    points = [0]
    step = 1
    while len(points) < count:
        points.append(step)
        if len(points) < count:
            points.append(-step)
        step += 1
    return points[:count]


def find_monic_factor(f: IntPolynomial, max_degree: int) -> IntPolynomial | None:
    """Search exhaustively for a monic factor g of f with
    1 <= deg g <= max_degree; returns one if it exists, else None.

    A monic candidate of degree d is pinned by its values at the d
    points of :func:`_interp_points`, and each value must divide f
    there, so the search walks every tuple of signed divisors, degree by
    degree, each tuple in ``itertools.product`` order, and returns the
    first candidate that divides f.  Complete: if f has a monic factor
    of degree <= max_degree, one is found.

    The integer Lagrange basis of the points is built once per degree:
    D g = D N + sum_i g(t_i) W_i, with N the product of the x - t_i and
    W_i = D L_i integral, so a tuple costs dot products, not an
    interpolation.  Before any trial division a candidate must pass
    conditions that every monic factor of f meets: at two further points
    t' where f(t') != 0, g(t') is an integer, nonzero and a divisor of
    f(t') (g | f in Z[x] gives g(t') | f(t'), and g(t') = 0 would make
    f(t') = 0); then all of g's coefficients must be integers.  So the
    filters drop only tuples that trial division would reject, the walk
    order is unchanged, and the first survivor that divides f is the
    factor the plain search, dividing every integral candidate, finds.
    Survivors are divided on coefficient lists; only the returned factor
    becomes an :class:`IntPolynomial`."""
    if f.is_zero:
        raise ValueError("factor search needs a nonzero polynomial")
    for d in range(1, max_degree + 1):
        points = _interp_points(d)
        values = [f(t) for t in points]
        for t, v in zip(points, values):
            if v == 0:
                return IntPolynomial((-t, 1))
        rows, common = _lagrange_basis(points)
        node = [1]  # N, times x - t for each point t
        for t in points:
            node = [a - t * b for a, b in zip([0] + node, node + [0])]
        # two further points where f is nonzero (f has at most deg f
        # roots), each as f(t'), D N(t') and the W_i(t')
        extra = itertools.islice((t for t in _interp_points(d + 2 + f.degree)[d:] if f(t)), 2)
        checks = [
            (f(t), common * _evaluate(node, t), [_evaluate(row, t) for row in rows])
            for t in extra
        ]
        offsets = [common * c for c in node[:-1]]
        columns = list(zip(*rows))
        for combo in itertools.product(*map(_divisors_signed, values)):
            for value, offset, weights in checks:
                scaled = offset + sum(map(operator.mul, combo, weights))
                if scaled % common or not scaled or value % (scaled // common):
                    break
            else:
                h = [c + sum(map(operator.mul, combo, col)) for c, col in zip(offsets, columns)]
                if not any(c % common for c in h):
                    g = [c // common for c in h] + [1]
                    if _monic_divides(f.coeffs, g):
                        return IntPolynomial(g)
    return None


def _lagrange_basis(points: list[int]) -> tuple[list[list[int]], int]:
    """The Lagrange basis of ``points`` in integers: rows W_i and the
    common denominator D with W_i = D L_i, where L_i is 1 at points[i]
    and 0 at the other points, coefficients constant term first.  D is
    the lcm of the basis denominators |prod_(j != i) (t_i - t_j)|, so
    sum_i y_i W_i is D times the interpolant of the values y_i."""
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
    return [[c * (common // denom) for c in basis] for basis, denom in terms], common


def _monic_divides(coeffs: tuple[int, ...], g: list[int]) -> bool:
    """Whether the monic g divides the polynomial with coefficients
    ``coeffs`` (both constant term first), by long division."""
    rem = list(coeffs)
    d = len(g) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            base = i - d
            for j in range(d):
                rem[base + j] -= c * g[j]
    return not any(rem[:d])
