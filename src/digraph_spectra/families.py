"""Constructions and closed-form characteristic polynomials for the
structured digraph families.

Every family lives on vertices 1..n and, unless noted, k = floor(n/2).
The directed cycle DC_n is 1 -> 2 -> ... -> n -> 1; "chorded cycles" add
forward chords to it.  The "fan" families put a hub at vertex 1 with a
directed path 2 -> 3 -> ... -> n as the rim; the "wheel" families put
the hub at vertex n with the directed cycle on 1..n-1 as the rim.

Family keys and their extra parameters:

=============== =============================================================
DCn             directed cycle
DCn_i_nmi       chords i -> n-i for i = 1..k-1
DCn_i_kmi       chords i -> k-i for i = 1..floor(k/2)-1
DCn_i_kpjpi     chords i -> k+j+i for i = 1..k-j     (param j, 1 <= j <= k-1)
DCn_tips        arcs n -> t+1 for each tip t         (param tips, in 1..n-2)
DCn_m           arcs i -> j for i < j-1, 3 <= j <= m (param m, 3 <= m <= n-1)
ADF             fan, alternating spokes: 1 -> even rim, odd rim -> 1
ADF_loops       ADF plus k+1 (n odd) or k (n even) loops at the hub
PDF             fan, loop at hub, spokes 1 -> i for all i, return n -> 1
Xn_loops        PDF with hub loop multiplicity m     (param m >= 1)
Yn_arcs_loops   Xn_loops plus return arcs a -> 1     (params arcs, m-1 >= d)
Zn_loop         PDF plus one loop at vertex j        (param j, 2 <= j <= n)
kDF             fan, spokes 1 -> i for i != k, returns k -> 1 and n -> 1
HDF             fan, spokes 1 -> i for i <= k, returns j -> 1 for j > k
TDF             fan, spoke pattern by residue of i mod 3, return n -> 1
UDW             wheel, spokes n -> i for every rim i
ADW             wheel, n -> odd rim, even rim -> n
RADW            ADW with spoke parities swapped plus the arc n-1 -> n (n odd)
kDW             wheel, n -> i for rim i != k, return k -> n
HDW             wheel, n -> i for i <= k, returns j -> n for k < j < n
DCc             complement of DCn (n >= 5)
UDWc            complement of UDW (n >= 4)
Complement      complement of an arbitrary inner family spec
=============== =============================================================

Closed forms are exact integer polynomial constructions; the complement
families use products of cyclotomic polynomials composed with a linear
substitution.  Mismatches between a closed form and a computed
characteristic polynomial are report material for the verification
pipeline, never an exception here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, _require_int, build_digraph, complement
from .polynomial import IntPolynomial, cyclotomic, geometric_sum


class InvalidParameter(ValueError):
    """A family parameter violates its constraint."""


_PARAM_KEYS = ("j", "m", "tips", "arcs")

# family -> (required extra params, minimum n)
_FAMILY_TABLE: dict[str, tuple[tuple[str, ...], int]] = {
    "DCn": ((), 3),
    "DCn_i_nmi": ((), 3),
    "DCn_i_kmi": ((), 3),
    "DCn_i_kpjpi": (("j",), 4),
    "DCn_tips": (("tips",), 3),
    "DCn_m": (("m",), 4),
    "ADF": ((), 3),
    "ADF_loops": ((), 3),
    "PDF": ((), 3),
    "Xn_loops": (("m",), 3),
    "Yn_arcs_loops": (("arcs", "m"), 3),
    "Zn_loop": (("j",), 3),
    "kDF": ((), 4),
    "HDF": ((), 3),
    "TDF": ((), 3),
    "UDW": ((), 4),
    "ADW": ((), 4),
    "RADW": ((), 5),
    "kDW": ((), 4),
    "HDW": ((), 4),
    "DCc": ((), 5),
    "UDWc": ((), 4),
    "Complement": ((), 1),
}

FAMILY_NAMES = tuple(_FAMILY_TABLE)


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its parameters; the canonical text form is
    ``family=DCn_tips n=8 tips=2,4`` (sorted ascending lists)."""

    family: str
    n: int
    j: int | None = None
    m: int | None = None
    tips: tuple[int, ...] | None = None
    arcs: tuple[int, ...] | None = None
    inner: "FamilySpec | None" = None

    def to_text(self) -> str:
        parts = [f"family={self.family}", f"n={self.n}"]
        if self.j is not None:
            parts.append(f"j={self.j}")
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.tips is not None:
            parts.append("tips=" + ",".join(str(t) for t in self.tips))
        if self.arcs is not None:
            parts.append("arcs=" + ",".join(str(a) for a in self.arcs))
        if self.inner is not None:
            parts.append(f"inner=({self.inner.to_text()})")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family, "n": self.n}
        if self.j is not None:
            out["j"] = self.j
        if self.m is not None:
            out["m"] = self.m
        if self.tips is not None:
            out["tips"] = list(self.tips)
        if self.arcs is not None:
            out["arcs"] = list(self.arcs)
        if self.inner is not None:
            out["inner"] = self.inner.to_json_dict()
        return out


_INNER_OPEN = "inner=("


def _split_inner(text: str) -> tuple[str | None, str]:
    """The text inside the first ``inner=(...)`` group, matched by
    balanced parentheses so that inner specs can nest, and the text with
    the group removed; (None, text) when there is no group."""
    start = text.find(_INNER_OPEN)
    if start < 0:
        return None, text
    depth = 0
    for end in range(start + len(_INNER_OPEN) - 1, len(text)):
        if text[end] == "(":
            depth += 1
        elif text[end] == ")":
            depth -= 1
            if depth == 0:
                inner = text[start + len(_INNER_OPEN) : end]
                return inner, text[:start] + text[end + 1 :]
    raise ValueError(f"unbalanced parentheses after inner=( in {text!r}")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form; unknown and repeated keys are an
    error."""
    inner_text, text = _split_inner(text)
    fields: dict = {}
    if inner_text is not None:
        fields["inner"] = parse_family_spec(inner_text)
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key in fields:
            raise ValueError(f"repeated spec key {key!r}")
        if key == "family":
            fields["family"] = value
        elif key == "n":
            fields["n"] = _parse_int(key, value)
        elif key == "j" or key == "m":
            fields[key] = _parse_int(key, value)
        elif key == "tips" or key == "arcs":
            try:
                fields[key] = tuple(
                    sorted(int(part) for part in value.split(",") if part != "")
                )
            except ValueError:
                raise ValueError(f"key {key} needs a comma-separated integer list, got {value!r}")
        else:
            raise ValueError(f"unknown spec key {key!r}")
    if "family" not in fields:
        raise ValueError("spec is missing family=<name>")
    if "n" not in fields:
        raise ValueError("spec is missing n=<count>")
    spec = FamilySpec(**fields)
    if spec.family not in _FAMILY_TABLE:
        raise InvalidParameter(f"unknown family {spec.family!r}")
    return spec


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"key {key} needs an integer, got {value!r}")


def family_spec_from_json_dict(obj: dict) -> FamilySpec:
    """Build a spec from its JSON object form, checking every value's
    type: a wrong type raises a ValueError subclass, never TypeError."""
    if not isinstance(obj, dict) or "family" not in obj or "n" not in obj:
        raise ValueError("family JSON needs keys 'family' and 'n'")
    known = {"family", "n", "j", "m", "tips", "arcs", "inner"}
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown spec key {key!r}")
    if not isinstance(obj["family"], str):
        raise InvalidParameter(f"key family needs a string, got {obj['family']!r}")
    for key in ("n", "j", "m"):
        if obj.get(key) is not None:
            _require_int(obj[key], f"key {key}")
    for key in ("tips", "arcs"):
        value = obj.get(key)
        if value is not None:
            if not isinstance(value, list):
                raise InvalidParameter(f"key {key} needs a list of integers, got {value!r}")
            for item in value:
                _require_int(item, f"key {key} entry")
    inner = obj.get("inner")
    if inner is not None and not isinstance(inner, dict):
        raise InvalidParameter(f"key inner needs a JSON object, got {inner!r}")
    spec = FamilySpec(
        family=obj["family"],
        n=obj["n"],
        j=obj.get("j"),
        m=obj.get("m"),
        tips=tuple(sorted(obj["tips"])) if obj.get("tips") is not None else None,
        arcs=tuple(sorted(obj["arcs"])) if obj.get("arcs") is not None else None,
        inner=family_spec_from_json_dict(inner) if inner is not None else None,
    )
    if spec.family not in _FAMILY_TABLE:
        raise InvalidParameter(f"unknown family {spec.family!r}")
    return spec


def validate(spec: FamilySpec) -> None:
    """Raise InvalidParameter naming the violated constraint."""
    if spec.family not in _FAMILY_TABLE:
        raise InvalidParameter(f"unknown family {spec.family!r}")
    required, n_min = _FAMILY_TABLE[spec.family]
    if spec.family == "Complement":
        if spec.inner is None:
            raise InvalidParameter("Complement needs inner=<spec>")
        for key in _PARAM_KEYS:
            if getattr(spec, key) is not None:
                raise InvalidParameter(f"Complement takes no parameter {key}")
        validate(spec.inner)
        if spec.n != spec.inner.n:
            raise InvalidParameter(
                f"Complement n={spec.n} must match inner n={spec.inner.n}"
            )
        return
    if spec.inner is not None:
        raise InvalidParameter(f"{spec.family} takes no inner spec")
    for key in _PARAM_KEYS:
        value = getattr(spec, key)
        if key in required and value is None:
            raise InvalidParameter(f"{spec.family} needs parameter {key}")
        if key not in required and value is not None:
            raise InvalidParameter(f"{spec.family} takes no parameter {key}")
    n = spec.n
    if n < n_min:
        raise InvalidParameter(f"{spec.family} needs n >= {n_min}, got n={n}")
    k = n // 2
    if spec.family == "DCn_i_kpjpi":
        if not (1 <= spec.j <= k - 1):
            raise InvalidParameter(
                f"DCn_i_kpjpi needs 1 <= j <= k-1 = {k - 1}, got j={spec.j}"
            )
    elif spec.family == "DCn_tips":
        tips = spec.tips
        if not tips:
            raise InvalidParameter("DCn_tips needs a nonempty tip list")
        if len(set(tips)) != len(tips):
            raise InvalidParameter(f"DCn_tips tips must be distinct, got {tips}")
        for t in tips:
            if not (1 <= t <= n - 2):
                raise InvalidParameter(
                    f"DCn_tips needs tips in 1..n-2 = 1..{n - 2}, got tip {t}"
                )
    elif spec.family == "DCn_m":
        if not (3 <= spec.m <= n - 1):
            raise InvalidParameter(
                f"DCn_m needs 3 <= m <= n-1 = {n - 1}, got m={spec.m}"
            )
    elif spec.family == "Xn_loops":
        if spec.m < 1:
            raise InvalidParameter(f"Xn_loops needs m >= 1, got m={spec.m}")
    elif spec.family == "Yn_arcs_loops":
        arcs = spec.arcs
        if not arcs:
            raise InvalidParameter("Yn_arcs_loops needs a nonempty arc source list")
        if len(set(arcs)) != len(arcs):
            raise InvalidParameter(f"Yn_arcs_loops sources must be distinct, got {arcs}")
        for a in arcs:
            if not (2 <= a <= n - 1):
                raise InvalidParameter(
                    f"Yn_arcs_loops needs sources in 2..n-1 = 2..{n - 1}, got {a}"
                )
        if spec.m - 1 < len(arcs):
            raise InvalidParameter(
                f"Yn_arcs_loops needs m-1 >= number of extra arcs = {len(arcs)}, got m={spec.m}"
            )
    elif spec.family == "Zn_loop":
        if not (2 <= spec.j <= n):
            raise InvalidParameter(f"Zn_loop needs 2 <= j <= n = {n}, got j={spec.j}")
    elif spec.family == "RADW":
        if n % 2 == 0:
            raise InvalidParameter(f"RADW needs odd n, got n={n}")


# -- constructions ----------------------------------------------------


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)] + [(n, 1)]


def _fan_path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(2, n)]


def _pdf_arcs(n: int, hub_loops: int = 1) -> list[tuple[int, int, int]]:
    arcs: list[tuple[int, int, int]] = [(1, 1, hub_loops)]
    arcs += [(i, i + 1, 1) for i in range(2, n)]
    arcs += [(1, i, 1) for i in range(2, n + 1)]
    arcs.append((n, 1, 1))
    return arcs


def build_family(spec: FamilySpec) -> Digraph:
    validate(spec)
    name, n = spec.family, spec.n
    k = n // 2
    if name == "DCn":
        return build_digraph(n, _cycle(n))
    if name == "DCn_i_nmi":
        return build_digraph(n, _cycle(n) + [(i, n - i) for i in range(1, k)])
    if name == "DCn_i_kmi":
        return build_digraph(n, _cycle(n) + [(i, k - i) for i in range(1, k // 2)])
    if name == "DCn_i_kpjpi":
        j = spec.j
        return build_digraph(
            n, _cycle(n) + [(i, k + j + i) for i in range(1, k - j + 1)]
        )
    if name == "DCn_tips":
        return build_digraph(n, _cycle(n) + [(n, t + 1) for t in spec.tips])
    if name == "DCn_m":
        chords = [
            (i, target)
            for target in range(3, spec.m + 1)
            for i in range(1, target - 1)
        ]
        return build_digraph(n, _cycle(n) + chords)
    if name == "ADF":
        arcs = _fan_path(n)
        arcs += [(1, i) for i in range(2, n + 1) if i % 2 == 0]
        arcs += [(i, 1) for i in range(3, n + 1) if i % 2 == 1]
        return build_digraph(n, arcs)
    if name == "ADF_loops":
        count = k + 1 if n % 2 == 1 else k
        arcs3 = [(i, j, 1) for i, j in _fan_path(n)]
        arcs3 += [(1, i, 1) for i in range(2, n + 1) if i % 2 == 0]
        arcs3 += [(i, 1, 1) for i in range(3, n + 1) if i % 2 == 1]
        arcs3.append((1, 1, count))
        return build_digraph(n, arcs3)
    if name == "PDF":
        return build_digraph(n, _pdf_arcs(n))
    if name == "Xn_loops":
        return build_digraph(n, _pdf_arcs(n, hub_loops=spec.m))
    if name == "Yn_arcs_loops":
        arcs3 = _pdf_arcs(n, hub_loops=spec.m)
        arcs3 += [(a, 1, 1) for a in spec.arcs]
        return build_digraph(n, arcs3)
    if name == "Zn_loop":
        return build_digraph(n, _pdf_arcs(n) + [(spec.j, spec.j, 1)])
    if name == "kDF":
        arcs = _fan_path(n)
        arcs += [(1, i) for i in range(2, n) if i != k]
        arcs += [(k, 1), (n, 1)]
        return build_digraph(n, arcs)
    if name == "HDF":
        arcs = _fan_path(n)
        arcs += [(1, i) for i in range(2, k + 1)]
        arcs += [(i, 1) for i in range(k + 1, n + 1)]
        return build_digraph(n, arcs)
    if name == "TDF":
        arcs = _fan_path(n)
        for i in range(2, n):
            if i % 3 in (0, 2):
                arcs.append((1, i))
            else:
                arcs.append((i, 1))
        arcs.append((n, 1))
        return build_digraph(n, arcs)
    if name == "UDW":
        return build_digraph(n, _cycle(n - 1) + [(n, i) for i in range(1, n)])
    if name == "ADW":
        arcs = _cycle(n - 1)
        arcs += [(n, i) for i in range(1, n) if i % 2 == 1]
        arcs += [(i, n) for i in range(2, n) if i % 2 == 0]
        return build_digraph(n, arcs)
    if name == "RADW":
        arcs = _cycle(n - 1)
        arcs += [(n, i) for i in range(2, n) if i % 2 == 0]
        arcs += [(i, n) for i in range(1, n) if i % 2 == 1]
        arcs.append((n - 1, n))
        return build_digraph(n, arcs)
    if name == "kDW":
        arcs = _cycle(n - 1)
        arcs += [(n, i) for i in range(1, n) if i != k]
        arcs.append((k, n))
        return build_digraph(n, arcs)
    if name == "HDW":
        arcs = _cycle(n - 1)
        arcs += [(n, i) for i in range(1, k + 1)]
        arcs += [(i, n) for i in range(k + 1, n)]
        return build_digraph(n, arcs)
    if name == "DCc":
        return complement(build_family(FamilySpec("DCn", n)))
    if name == "UDWc":
        return complement(build_family(FamilySpec("UDW", n)))
    if name == "Complement":
        return complement(build_family(spec.inner))
    raise InvalidParameter(f"unknown family {name!r}")


# -- closed forms -----------------------------------------------------


def closed_form_charpoly(spec: FamilySpec) -> IntPolynomial:
    """The family's closed-form characteristic polynomial, built exactly."""
    validate(spec)
    name, n = spec.family, spec.n
    k = n // 2
    x = IntPolynomial.x()
    if name == "DCn":
        return x**n - 1
    if name == "DCn_i_nmi":
        return x**n - sum(
            (IntPolynomial.monomial(n - (2 * t + 1)) for t in range(1, k)),
            IntPolynomial.zero(),
        ) - 1
    if name == "DCn_i_kmi":
        return x**n - sum(
            (IntPolynomial.monomial(k - (2 * i + 1)) for i in range(1, k // 2)),
            IntPolynomial.zero(),
        ) - 1
    if name == "DCn_i_kpjpi":
        return x**n - IntPolynomial.monomial(k + spec.j - 1, k - spec.j) - 1
    if name == "DCn_tips":
        return x**n - sum(
            (IntPolynomial.monomial(t) for t in spec.tips), IntPolynomial.zero()
        ) - 1
    if name == "DCn_m":
        return x**n - (x + 1) ** (spec.m - 2)
    if name == "ADF":
        if n % 2 == 1:
            return x**n - sum(
                (IntPolynomial.monomial(2 * (i - 1), i) for i in range(1, k + 1)),
                IntPolynomial.zero(),
            )
        return x**n - sum(
            (IntPolynomial.monomial(2 * i - 1, i) for i in range(1, k)),
            IntPolynomial.zero(),
        )
    if name == "ADF_loops":
        if n % 2 == 1:
            return x**n - sum(
                (IntPolynomial.monomial(2 * (i - 1), i) for i in range(1, k + 2)),
                IntPolynomial.zero(),
            )
        return x**n - sum(
            (IntPolynomial.monomial(2 * i - 1, i) for i in range(1, k + 1)),
            IntPolynomial.zero(),
        )
    if name == "PDF":
        return x**n - geometric_sum(0, n - 1)
    if name == "Xn_loops":
        return x**n - IntPolynomial.monomial(n - 1, spec.m) - geometric_sum(0, n - 2)
    if name == "Yn_arcs_loops":
        exits = sorted(set(spec.arcs) | {n})
        c = _monic(n)
        c[n - 1] -= spec.m
        for i in range(2, n + 1):
            c[n - i] -= sum(1 for e in exits if e >= i)
        return IntPolynomial(c)
    if name == "Zn_loop":
        c = _monic(n)
        c[n - 1] -= 2
        for e in range(spec.j - 2):
            c[e] -= 1
        return IntPolynomial(c)
    if name == "kDF":
        return (
            x**n
            + IntPolynomial.monomial(k - 2)
            - 2
            * sum(
                (IntPolynomial.monomial(n - i) for i in range(3, k + 1)),
                IntPolynomial.zero(),
            )
            - geometric_sum(0, n - (k + 1))
        )
    if name == "HDF":
        c = _monic(n)
        if n % 2 == 1:
            c[k - 1] -= k - 1
            for i in range(1, k):
                c[2 * k - i - 1] -= i
                c[i - 1] -= i
            return IntPolynomial(c)
        for i in range(1, k):
            c[2 * k - i - 2] -= i
            c[i - 1] -= i
        return IntPolynomial(c)
    if name == "TDF":
        q = n // 3
        c = _monic(n)
        if n % 3 == 0:
            c[0] -= 1
            for r in range(1, q):
                c[3 * r - 2] -= 1
                c[3 * r - 1] -= r
                c[3 * r] -= r + 1
            return IntPolynomial(c)
        if n % 3 == 1:
            for r in range(q):
                c[3 * r] -= r + 1
                c[3 * r + 1] -= r + 1
            return IntPolynomial(c)
        for r in range(q):
            c[3 * r] -= 1
            c[3 * r + 2] -= r + 1
            c[3 * r + 1] -= r + 2
        return IntPolynomial(c)
    if name == "UDW":
        return x**n - x
    if name == "ADW":
        c = _monic(n)
        if n % 2 == 1:
            c[1] -= 1
            for i in range(k):
                c[2 * i] -= k
            return IntPolynomial(c)
        c[1] -= 2
        for i in range(2, k):
            c[2 * i - 1] -= i
        for j in range(2, k + 1):
            c[2 * (k - j)] -= j - 1
        return IntPolynomial(c)
    if name == "RADW":
        c = _monic(n)
        c[1] -= 2
        for i in range(k):
            c[2 * i] -= k
        for i in range(1, k):
            c[2 * i + 1] -= 1
        return IntPolynomial(c)
    if name == "kDW":
        return x**n - geometric_sum(2, n - 3) - IntPolynomial.monomial(1, 2) - 1
    if name == "HDW":
        c = _monic(n)
        c[1] -= 1
        if n % 2 == 1:
            for i in range(1, k):
                c[i - 1] -= i
                c[2 * k - i - 1] -= i
            c[k - 1] -= k
            return IntPolynomial(c)
        for i in range(1, k):
            c[i - 1] -= i
            c[2 * k - i - 2] -= i
        return IntPolynomial(c)
    if name == "DCc":
        return complement_closed_form("DCc", n)
    if name == "UDWc":
        return complement_closed_form("UDWc", n)
    raise InvalidParameter(f"no closed form for family {name!r}")


def _monic(n: int) -> list[int]:
    """Coefficients of x^n, constant term first: the closed forms below
    subtract their lower terms in place and build one polynomial, not
    one throwaway polynomial of full degree per term."""
    return [0] * n + [1]


def complement_closed_form(kind: str, n: int) -> IntPolynomial:
    """Closed forms for the two named complements, as products of
    cyclotomic polynomials under a linear substitution."""
    x = IntPolynomial.x()
    if kind == "DCc":
        if n < 5:
            raise InvalidParameter(f"DCc closed form needs n >= 5, got n={n}")
        poly = x - (n - 2)
        if n % 2 == 0:
            poly = poly * x
        low = 1 if n % 2 == 1 else 2
        for d in range(low + 1, n + 1):
            if n % d == 0:
                poly = poly * cyclotomic(d).substitute_linear(-1, -1)
        return poly
    if kind == "UDWc":
        if n < 4:
            raise InvalidParameter(f"UDWc closed form needs n >= 4, got n={n}")
        if n % 2 == 0:
            k = n // 2
            poly = (x - (2 * k - 3)) * x
            for d in range(2, 2 * k):
                if (2 * k - 1) % d == 0:
                    poly = poly * cyclotomic(2 * d).substitute_linear(1, 1)
            return poly
        k = n // 2
        poly = (x - (2 * k - 2)) * x * x
        for d in range(3, 2 * k + 1):
            if (2 * k) % d == 0:
                poly = poly * cyclotomic(d).substitute_linear(-1, -1)
        return poly
    raise InvalidParameter(f"unknown complement kind {kind!r}, expected DCc or UDWc")


# -- verification table registry --------------------------------------

TABLE_NAMES = ("cdc", "cdf", "cdw", "derived", "complements", "exponents")

DEFAULT_RANGES = {
    "cdc": (3, 14),
    "cdf": (3, 14),
    "cdw": (4, 14),
    "derived": (3, 14),
    "complements": (4, 14),
    "exponents": (10, 20),
}


def _figure_tips(n: int) -> tuple[int, ...]:
    usable = [t for t in (2, 4) if t <= n - 2]
    return tuple(usable) if usable else (1,)


def table_specs(table: str, lo: int, hi: int) -> list[FamilySpec]:
    """Candidate specs for a verification table over lo..hi; candidates
    invalid at a given n are kept so the report can show the skip."""
    if table not in TABLE_NAMES:
        raise ValueError(f"unknown table {table!r}, expected one of {TABLE_NAMES}")
    specs: list[FamilySpec] = []
    for n in range(lo, hi + 1):
        k = n // 2
        if table == "cdc":
            specs.append(FamilySpec("DCn", n))
            specs.append(FamilySpec("DCn_i_nmi", n))
            specs.append(FamilySpec("DCn_i_kmi", n))
            for j in range(1, max(k - 1, 1) + 1):
                specs.append(FamilySpec("DCn_i_kpjpi", n, j=j))
            specs.append(FamilySpec("DCn_tips", n, tips=_figure_tips(n)))
            if n >= 4:
                specs.append(FamilySpec("DCn_tips", n, tips=tuple(range(1, n - 1))))
            for m in range(3, max(n - 1, 3) + 1):
                specs.append(FamilySpec("DCn_m", n, m=m))
        elif table == "cdf":
            for name in ("ADF", "PDF", "kDF", "HDF", "TDF"):
                specs.append(FamilySpec(name, n))
        elif table == "cdw":
            for name in ("UDW", "ADW", "RADW", "kDW", "HDW"):
                specs.append(FamilySpec(name, n))
        elif table == "derived":
            specs.append(FamilySpec("ADF_loops", n))
            for m in (2, 3, n + 1):
                specs.append(FamilySpec("Xn_loops", n, m=m))
            specs.append(FamilySpec("Yn_arcs_loops", n, arcs=(2,), m=2))
            if n >= 6:
                specs.append(FamilySpec("Yn_arcs_loops", n, arcs=(2, 4), m=3))
                specs.append(FamilySpec("Yn_arcs_loops", n, arcs=(3, n - 1), m=4))
            for j in range(2, n + 1):
                specs.append(FamilySpec("Zn_loop", n, j=j))
        elif table == "complements":
            specs.append(FamilySpec("DCc", n))
            specs.append(FamilySpec("UDWc", n))
        elif table == "exponents":
            for name in (
                "ADF",
                "PDF",
                "kDF",
                "HDF",
                "TDF",
                "UDW",
                "ADW",
                "RADW",
                "kDW",
                "HDW",
                "DCc",
            ):
                specs.append(FamilySpec(name, n))
    return specs
