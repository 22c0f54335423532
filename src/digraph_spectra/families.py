"""The structured digraph families: specs, constructions, closed-form
characteristic polynomials, table rows and tabulated exponents.

Every family lives on vertices 1..n and, unless noted, k = floor(n/2).
The directed cycle DC_n is 1 -> 2 -> ... -> n -> 1; "chorded cycles" add
forward chords to it.  The "fan" families put a hub at vertex 1 with a
directed path 2 -> 3 -> ... -> n as the rim; the "wheel" families put
the hub at vertex n with the directed cycle on 1..n-1 as the rim.

Each family is one :class:`Family` record in ``_FAMILIES`` (its
parameters, arcs, closed form, table rows and tabulated exponent data);
the module-level functions are lookups over that registry.

Closed forms are exact integer polynomial constructions; the complement
families use products of cyclotomic polynomials composed with a linear
substitution.  Mismatches between a closed form and a computed
characteristic polynomial are report material for the verification
pipeline, never an exception here.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .digraph import Digraph, _require_int, build_digraph, complement
from .polynomial import X, IntPolynomial, cyclotomic


class InvalidParameter(ValueError):
    """A family parameter violates its constraint."""


_PARAM_KEYS = ("j", "m", "tips", "arcs")
_LIST_KEYS = ("tips", "arcs")


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its parameters.  The JSON object form is the
    definition; the canonical text form ``family=DCn_tips n=8 tips=2,4``
    (sorted ascending lists) is syntax over it."""

    family: str
    n: int
    j: int | None = None
    m: int | None = None
    tips: tuple[int, ...] | None = None
    arcs: tuple[int, ...] | None = None
    inner: "FamilySpec | None" = None

    def to_text(self) -> str:
        return _object_text(self.to_json_dict())

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family, "n": self.n}
        for key in _PARAM_KEYS:
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value) if key in _LIST_KEYS else value
        if self.inner is not None:
            out["inner"] = self.inner.to_json_dict()
        return out


def _object_text(obj: dict) -> str:
    """The text form of a spec's JSON object form."""
    parts = []
    for key, value in obj.items():
        if key == "inner":
            value = f"({_object_text(value)})"
        elif key in _LIST_KEYS:
            value = ",".join(map(str, value))
        parts.append(f"{key}={value}")
    return " ".join(parts)


_INNER_OPEN = "inner=("
MAX_SPEC_DEPTH = 64  # most inner specs one spec may nest; deeper input is refused before parsing


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
    """Split the text form into the JSON object form and build the spec
    from that.  Only a repeated key, a token without ``=``, unbalanced
    parentheses and more than ``MAX_SPEC_DEPTH`` inner groups (counted
    before the splitter recurses) are refused here."""
    if text.count(_INNER_OPEN) > MAX_SPEC_DEPTH:
        raise InvalidParameter(f"spec nests more than {MAX_SPEC_DEPTH} inner=(...) groups")
    return family_spec_from_json_dict(_text_object(text))


def _text_object(text: str) -> dict:
    """A spec text as a JSON object: the ``inner=(...)`` group nested,
    comma lists and integers converted for the known keys, and every
    other value, or one that does not convert, as the raw string."""
    inner_text, text = _split_inner(text)
    obj: dict = {} if inner_text is None else {"inner": _text_object(inner_text)}
    for token in text.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {token!r}")
        if key in obj:
            raise ValueError(f"repeated spec key {key!r}")
        try:
            if key in _LIST_KEYS:
                value = [int(part) for part in value.split(",") if part != ""]
            elif key == "n" or key in _PARAM_KEYS:
                value = int(value)
        except ValueError:
            pass
        obj[key] = value
    return obj


def family_spec_from_json_dict(obj: dict) -> FamilySpec:
    """Build a spec from its JSON object form, the one place that checks
    keys and values: an unknown or missing key, a wrong type, or more
    than ``MAX_SPEC_DEPTH`` nested inner objects raises a ValueError
    subclass, never TypeError or RecursionError.  Lists come out sorted."""
    for key in ("family", "n"):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"a spec needs a JSON object with key {key!r}")
    node = obj
    for _ in range(MAX_SPEC_DEPTH + 1):
        node = node.get("inner")
        if not isinstance(node, dict):
            break
    else:
        raise InvalidParameter(f"spec nests more than {MAX_SPEC_DEPTH} inner objects")
    for key in obj:
        if key not in ("family", "n", "inner", *_PARAM_KEYS):
            raise ValueError(f"unknown spec key {key!r}")
    if not isinstance(obj["family"], str):
        raise InvalidParameter(f"key family needs a string, got {obj['family']!r}")
    fields: dict = {"family": obj["family"], "n": obj["n"]}
    for key in ("n", *_PARAM_KEYS):
        value = obj.get(key)
        if value is None:
            continue
        if key not in _LIST_KEYS:
            _require_int(value, f"key {key}")
            fields[key] = value
            continue
        if not isinstance(value, list):
            raise InvalidParameter(f"key {key} needs a list of integers, got {value!r}")
        for item in value:
            _require_int(item, f"key {key} entry")
        fields[key] = tuple(sorted(value))
    inner = obj.get("inner")
    if inner is not None and not isinstance(inner, dict):
        raise InvalidParameter(f"key inner needs a JSON object, got {inner!r}")
    if inner is not None:
        fields["inner"] = family_spec_from_json_dict(inner)
    spec = FamilySpec(**fields)
    _family(spec.family)
    return spec


# -- arc lists and polynomial helpers ---------------------------------


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)] + [(n, 1)]


def _fan_path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(2, n)]


def _alternating_fan(n: int) -> list[tuple[int, int]]:
    return (
        _fan_path(n)
        + [(1, i) for i in range(2, n + 1) if i % 2 == 0]
        + [(i, 1) for i in range(3, n + 1) if i % 2 == 1]
    )


def _pdf_arcs(n: int, hub_loops: int = 1) -> list[tuple]:
    return [(1, 1, hub_loops)] + _fan_path(n) + [(1, i) for i in range(2, n + 1)] + [(n, 1)]


def _x_n_minus(terms):
    """The closed form x^n - sum of c x^e over the (e, c) pairs that
    ``terms(n, k, spec)`` yields, built as one coefficient list rather
    than one throwaway polynomial of full degree per term."""

    def closed_form(n: int, k: int, s: FamilySpec) -> IntPolynomial:
        c = [0] * n + [1]
        for e, coefficient in terms(n, k, s):
            c[e] -= coefficient
        return IntPolynomial(c)

    return closed_form


# -- parameter checks: the first violated constraint's text, or None --


def _check_tips(n: int, k: int, s: FamilySpec) -> str | None:
    tips = s.tips
    if not tips:
        return "DCn_tips needs a nonempty tip list"
    if len(set(tips)) != len(tips):
        return f"DCn_tips tips must be distinct, got {tips}"
    for t in tips:
        if not (1 <= t <= n - 2):
            return f"DCn_tips needs tips in 1..n-2 = 1..{n - 2}, got tip {t}"
    return None


def _check_exits(n: int, k: int, s: FamilySpec) -> str | None:
    arcs = s.arcs
    if not arcs:
        return "Yn_arcs_loops needs a nonempty arc source list"
    if len(set(arcs)) != len(arcs):
        return f"Yn_arcs_loops sources must be distinct, got {arcs}"
    for a in arcs:
        if not (2 <= a <= n - 1):
            return f"Yn_arcs_loops needs sources in 2..n-1 = 2..{n - 1}, got {a}"
    if s.m - 1 < len(arcs):
        return f"Yn_arcs_loops needs m-1 >= number of extra arcs = {len(arcs)}, got m={s.m}"
    return None


# -- closed forms: the (e, c) terms of x^n - sum c x^e ----------------


def _alternating_fan_terms(n: int, top: int) -> list[tuple[int, int]]:
    """The terms of ADF (top = k) and of ADF_loops (top = k + 1: the
    hub loops add one more term)."""
    if n % 2 == 1:
        return [(2 * (i - 1), i) for i in range(1, top + 1)]
    return [(2 * i - 1, i) for i in range(1, top)]


@_x_n_minus
def _yn_form(n: int, k: int, s: FamilySpec):
    exits = sorted(set(s.arcs) | {n})
    yield n - 1, s.m
    for i in range(2, n + 1):
        yield n - i, sum(1 for e in exits if e >= i)


@_x_n_minus
def _kdf_form(n: int, k: int, s: FamilySpec):
    yield k - 2, -1
    for i in range(3, k + 1):
        yield n - i, 2
    for e in range(n - k):
        yield e, 1


@_x_n_minus
def _hdf_form(n: int, k: int, s: FamilySpec):
    if n % 2 == 1:
        yield k - 1, k - 1
    for i in range(1, k):
        yield n - 2 - i, i
        yield i - 1, i


@_x_n_minus
def _tdf_form(n: int, k: int, s: FamilySpec):
    q = n // 3
    if n % 3 == 0:
        yield 0, 1
        for r in range(1, q):
            yield 3 * r - 2, 1
            yield 3 * r - 1, r
            yield 3 * r, r + 1
    elif n % 3 == 1:
        for r in range(q):
            yield 3 * r, r + 1
            yield 3 * r + 1, r + 1
    else:
        for r in range(q):
            yield 3 * r, 1
            yield 3 * r + 2, r + 1
            yield 3 * r + 1, r + 2


@_x_n_minus
def _adw_form(n: int, k: int, s: FamilySpec):
    if n % 2 == 1:
        yield 1, 1
        for i in range(k):
            yield 2 * i, k
        return
    yield 1, 2
    for i in range(2, k):
        yield 2 * i - 1, i
    for j in range(2, k + 1):
        yield 2 * (k - j), j - 1


@_x_n_minus
def _radw_form(n: int, k: int, s: FamilySpec):
    yield 1, 2
    for i in range(k):
        yield 2 * i, k
    for i in range(1, k):
        yield 2 * i + 1, 1


@_x_n_minus
def _hdw_form(n: int, k: int, s: FamilySpec):
    yield 1, 1
    if n % 2 == 1:
        yield k - 1, k
    for i in range(1, k):
        yield i - 1, i
        yield n - 2 - i, i


def _dcc_form(n: int, k: int, s: FamilySpec | None) -> IntPolynomial:
    poly = X - (n - 2)
    if n % 2 == 0:
        poly = poly * X
    low = 1 if n % 2 == 1 else 2
    for d in range(low + 1, n + 1):
        if n % d == 0:
            poly = poly * cyclotomic(d).substitute_linear(-1, -1)
    return poly


def _udwc_form(n: int, k: int, s: FamilySpec | None) -> IntPolynomial:
    if n % 2 == 0:
        poly = (X - (2 * k - 3)) * X
        for d in range(2, 2 * k):
            if (2 * k - 1) % d == 0:
                poly = poly * cyclotomic(2 * d).substitute_linear(1, 1)
        return poly
    poly = (X - (2 * k - 2)) * X * X
    for d in range(3, 2 * k + 1):
        if (2 * k) % d == 0:
            poly = poly * cyclotomic(d).substitute_linear(-1, -1)
    return poly


# -- table sweeps: (n, k) -> parameter sets of the rows at n ----------


def _single(n: int, k: int) -> list[dict]:
    return [{}]


def _tip_sweep(n: int, k: int) -> list[dict]:
    """The figure's tips (2 and 4 where they fit, else 1), then every
    tip from n >= 4 on."""
    figure = tuple(t for t in (2, 4) if t <= n - 2) or (1,)
    return [{"tips": figure}] + ([{"tips": tuple(range(1, n - 1))}] if n >= 4 else [])


def _exit_sweep(n: int, k: int) -> list[dict]:
    rows = [{"arcs": (2,), "m": 2}]
    if n >= 6:
        rows += [{"arcs": (2, 4), "m": 3}, {"arcs": (3, n - 1), "m": 4}]
    return rows


# -- the registry -----------------------------------------------------


def _untabulated(n: int, k: int) -> None:
    return None


@dataclass(frozen=True)
class Family:
    """Everything the toolkit knows about one family.  The callables
    take n, k = n // 2 and, where parameters matter, the spec.
    ``params`` are the required parameters (``inner`` for a family that
    wraps a spec); ``check`` returns the first violated constraint's
    text, or None.  A family has ``arcs`` or is the complement of
    ``complement_of(spec)``; ``closed_form`` is None when it has none.
    ``tables`` maps a table to the parameter sets of the family's rows
    at n.  The tabulated ``exponent`` and ``no_walk_pair`` hold for
    n >= ``tabulated_from``."""

    params: tuple[str, ...] = ()
    n_min: int = 3
    check: Callable[[int, int, FamilySpec], str | None] | None = None
    arcs: Callable[[int, int, FamilySpec], list] | None = None
    complement_of: Callable[[FamilySpec], FamilySpec] | None = None
    closed_form: Callable[[int, int, FamilySpec], IntPolynomial] | None = None
    tables: dict[str, Callable[[int, int], list[dict]]] = field(default_factory=dict)
    tabulated_from: int = 10
    exponent: Callable[[int, int], int | None] = _untabulated
    no_walk_pair: Callable[[int, int], tuple[int, int] | None] = _untabulated


_FAN_ROWS = {"cdf": _single, "exponents": _single}
_WHEEL_ROWS = {"cdw": _single, "exponents": _single}

_FAMILIES: dict[str, Family] = {
    # directed cycle
    "DCn": Family(
        arcs=lambda n, k, s: _cycle(n),
        closed_form=lambda n, k, s: X**n - 1,
        tables={"cdc": _single},
    ),
    # chords i -> n-i for i = 1..k-1
    "DCn_i_nmi": Family(
        arcs=lambda n, k, s: _cycle(n) + [(i, n - i) for i in range(1, k)],
        closed_form=_x_n_minus(
            lambda n, k, s: [(0, 1)] + [(n - (2 * t + 1), 1) for t in range(1, k)]
        ),
        tables={"cdc": _single},
    ),
    # chords i -> k-i for i = 1..floor(k/2)-1
    "DCn_i_kmi": Family(
        arcs=lambda n, k, s: _cycle(n) + [(i, k - i) for i in range(1, k // 2)],
        closed_form=_x_n_minus(
            lambda n, k, s: [(0, 1)] + [(k - (2 * i + 1), 1) for i in range(1, k // 2)]
        ),
        tables={"cdc": _single},
    ),
    # chords i -> k+j+i for i = 1..k-j (1 <= j <= k-1)
    "DCn_i_kpjpi": Family(
        params=("j",),
        n_min=4,
        check=lambda n, k, s: None if 1 <= s.j <= k - 1
        else f"DCn_i_kpjpi needs 1 <= j <= k-1 = {k - 1}, got j={s.j}",
        arcs=lambda n, k, s: _cycle(n) + [(i, k + s.j + i) for i in range(1, k - s.j + 1)],
        closed_form=_x_n_minus(lambda n, k, s: [(0, 1), (k + s.j - 1, k - s.j)]),
        tables={"cdc": lambda n, k: [{"j": j} for j in range(1, max(k - 1, 1) + 1)]},
    ),
    # arcs n -> t+1 for each tip t in 1..n-2
    "DCn_tips": Family(
        params=("tips",),
        check=_check_tips,
        arcs=lambda n, k, s: _cycle(n) + [(n, t + 1) for t in s.tips],
        closed_form=_x_n_minus(lambda n, k, s: [(0, 1)] + [(t, 1) for t in s.tips]),
        tables={"cdc": _tip_sweep},
    ),
    # arcs i -> j for i < j-1, 3 <= j <= m (3 <= m <= n-1)
    "DCn_m": Family(
        params=("m",),
        n_min=4,
        check=lambda n, k, s: None if 3 <= s.m <= n - 1
        else f"DCn_m needs 3 <= m <= n-1 = {n - 1}, got m={s.m}",
        arcs=lambda n, k, s: _cycle(n)
        + [(i, target) for target in range(3, s.m + 1) for i in range(1, target - 1)],
        closed_form=lambda n, k, s: X**n - (X + 1) ** (s.m - 2),
        tables={"cdc": lambda n, k: [{"m": m} for m in range(3, max(n - 1, 3) + 1)]},
    ),
    # fan, alternating spokes: 1 -> even rim, odd rim -> 1
    "ADF": Family(
        arcs=lambda n, k, s: _alternating_fan(n),
        closed_form=_x_n_minus(lambda n, k, s: _alternating_fan_terms(n, k)),
        tables=_FAN_ROWS,
        tabulated_from=5,
        exponent=lambda n, k: 12 if n == 5 else 9 if n % 2 == 1 else None,
        no_walk_pair=lambda n, k: (n - 1, 3) if n % 2 == 1 else None,
    ),
    # ADF plus k+1 (n odd) or k (n even) loops at the hub
    "ADF_loops": Family(
        arcs=lambda n, k, s: _alternating_fan(n) + [(1, 1, k + 1 if n % 2 == 1 else k)],
        closed_form=_x_n_minus(lambda n, k, s: _alternating_fan_terms(n, k + 1)),
        tables={"derived": _single},
    ),
    # fan, loop at hub, spokes 1 -> i for all i, return n -> 1
    "PDF": Family(
        arcs=lambda n, k, s: _pdf_arcs(n),
        closed_form=_x_n_minus(lambda n, k, s: [(e, 1) for e in range(n)]),
        tables=_FAN_ROWS,
        exponent=lambda n, k: n,
        no_walk_pair=lambda n, k: (n - 1, 2),
    ),
    # PDF with hub loop multiplicity m >= 1
    "Xn_loops": Family(
        params=("m",),
        check=lambda n, k, s: None if s.m >= 1 else f"Xn_loops needs m >= 1, got m={s.m}",
        arcs=lambda n, k, s: _pdf_arcs(n, hub_loops=s.m),
        closed_form=_x_n_minus(lambda n, k, s: [(n - 1, s.m)] + [(e, 1) for e in range(n - 1)]),
        tables={"derived": lambda n, k: [{"m": m} for m in (2, 3, n + 1)]},
    ),
    # Xn_loops plus return arcs a -> 1 (m-1 >= number of arcs)
    "Yn_arcs_loops": Family(
        params=("arcs", "m"),
        check=_check_exits,
        arcs=lambda n, k, s: _pdf_arcs(n, hub_loops=s.m) + [(a, 1) for a in s.arcs],
        closed_form=_yn_form,
        tables={"derived": _exit_sweep},
    ),
    # PDF plus one loop at vertex j, 2 <= j <= n
    "Zn_loop": Family(
        params=("j",),
        check=lambda n, k, s: None if 2 <= s.j <= n
        else f"Zn_loop needs 2 <= j <= n = {n}, got j={s.j}",
        arcs=lambda n, k, s: _pdf_arcs(n) + [(s.j, s.j)],
        closed_form=_x_n_minus(lambda n, k, s: [(n - 1, 2)] + [(e, 1) for e in range(s.j - 2)]),
        tables={"derived": lambda n, k: [{"j": j} for j in range(2, n + 1)]},
    ),
    # fan, spokes 1 -> i for i != k, returns k -> 1 and n -> 1
    "kDF": Family(
        n_min=4,
        arcs=lambda n, k, s: _fan_path(n)
        + [(1, i) for i in range(2, n) if i != k]
        + [(k, 1), (n, 1)],
        closed_form=_kdf_form,
        tables=_FAN_ROWS,
        exponent=lambda n, k: k + 4 if n % 2 == 0 else k + 5,
        no_walk_pair=lambda n, k: (k + 1, 2),
    ),
    # fan, spokes 1 -> i for i <= k, returns j -> 1 for j > k
    "HDF": Family(
        arcs=lambda n, k, s: _fan_path(n)
        + [(1, i) for i in range(2, k + 1)]
        + [(i, 1) for i in range(k + 1, n + 1)],
        closed_form=_hdf_form,
        tables=_FAN_ROWS,
        exponent=lambda n, k: n + 1,
        no_walk_pair=lambda n, k: (2, n),
    ),
    # fan, spoke pattern by residue of i mod 3, return n -> 1
    "TDF": Family(
        arcs=lambda n, k, s: _fan_path(n)
        + [(1, i) if i % 3 in (0, 2) else (i, 1) for i in range(2, n)]
        + [(n, 1)],
        closed_form=_tdf_form,
        tables=_FAN_ROWS,
    ),
    # wheel, spokes n -> i for every rim i
    "UDW": Family(
        n_min=4,
        arcs=lambda n, k, s: _cycle(n - 1) + [(n, i) for i in range(1, n)],
        closed_form=lambda n, k, s: X**n - X,
        tables=_WHEEL_ROWS,
    ),
    # wheel, n -> odd rim, even rim -> n
    "ADW": Family(
        n_min=4,
        arcs=lambda n, k, s: _cycle(n - 1)
        + [(n, i) for i in range(1, n) if i % 2 == 1]
        + [(i, n) for i in range(2, n) if i % 2 == 0],
        closed_form=_adw_form,
        tables=_WHEEL_ROWS,
        exponent=lambda n, k: 6 if n % 2 == 1 else 7,
        no_walk_pair=lambda n, k: (n - 2, 2) if n % 2 == 1 else (n - 3, 2),
    ),
    # ADW with spoke parities swapped plus the arc n-1 -> n (n odd)
    "RADW": Family(
        n_min=5,
        check=lambda n, k, s: None if n % 2 == 1 else f"RADW needs odd n, got n={n}",
        arcs=lambda n, k, s: _cycle(n - 1)
        + [(n, i) for i in range(2, n) if i % 2 == 0]
        + [(i, n) for i in range(1, n) if i % 2 == 1]
        + [(n - 1, n)],
        closed_form=_radw_form,
        tables=_WHEEL_ROWS,
    ),
    # wheel, n -> i for rim i != k, return k -> n
    "kDW": Family(
        n_min=4,
        arcs=lambda n, k, s: _cycle(n - 1) + [(n, i) for i in range(1, n) if i != k] + [(k, n)],
        closed_form=_x_n_minus(lambda n, k, s: [(0, 1), (1, 2)] + [(e, 1) for e in range(2, n - 2)]),
        tables=_WHEEL_ROWS,
        exponent=lambda n, k: n + 3,
        no_walk_pair=lambda n, k: (k + 1, k + 2),
    ),
    # wheel, n -> i for i <= k, returns j -> n for k < j < n
    "HDW": Family(
        n_min=4,
        arcs=lambda n, k, s: _cycle(n - 1)
        + [(n, i) for i in range(1, k + 1)]
        + [(i, n) for i in range(k + 1, n)],
        closed_form=_hdw_form,
        tables=_WHEEL_ROWS,
    ),
    # complement of DCn
    "DCc": Family(
        n_min=5,
        complement_of=lambda s: FamilySpec("DCn", s.n),
        closed_form=_dcc_form,
        tables={"complements": _single, "exponents": _single},
        tabulated_from=5,
        exponent=lambda n, k: 2,
    ),
    # complement of UDW
    "UDWc": Family(
        n_min=4,
        complement_of=lambda s: FamilySpec("UDW", s.n),
        closed_form=_udwc_form,
        tables={"complements": _single},
    ),
    # complement of an arbitrary inner family spec
    "Complement": Family(params=("inner",), n_min=1, complement_of=lambda s: s.inner),
}

FAMILY_NAMES = tuple(_FAMILIES)

DEFAULT_RANGES = {
    "cdc": (3, 14),
    "cdf": (3, 14),
    "cdw": (4, 14),
    "derived": (3, 14),
    "complements": (4, 14),
    "exponents": (10, 20),
}

TABLE_NAMES = tuple(DEFAULT_RANGES)


def _family(name: str) -> Family:
    if name not in _FAMILIES:
        raise InvalidParameter(f"unknown family {name!r}")
    return _FAMILIES[name]


# -- lookups over the registry ----------------------------------------


def validate(spec: FamilySpec) -> None:
    """Raise InvalidParameter naming the violated constraint."""
    family = _family(spec.family)
    if "inner" in family.params and spec.inner is None:
        raise InvalidParameter(f"{spec.family} needs inner=<spec>")
    if "inner" not in family.params and spec.inner is not None:
        raise InvalidParameter(f"{spec.family} takes no inner spec")
    for key in _PARAM_KEYS:
        value = getattr(spec, key)
        if key in family.params and value is None:
            raise InvalidParameter(f"{spec.family} needs parameter {key}")
        if key not in family.params and value is not None:
            raise InvalidParameter(f"{spec.family} takes no parameter {key}")
    if spec.inner is not None:
        validate(spec.inner)
        if spec.n != spec.inner.n:
            raise InvalidParameter(
                f"{spec.family} n={spec.n} must match inner n={spec.inner.n}"
            )
    n = spec.n
    if n < family.n_min:
        raise InvalidParameter(f"{spec.family} needs n >= {family.n_min}, got n={n}")
    problem = family.check(n, n // 2, spec) if family.check else None
    if problem is not None:
        raise InvalidParameter(problem)


def build_family(spec: FamilySpec) -> Digraph:
    validate(spec)
    family = _FAMILIES[spec.family]
    if family.complement_of is not None:
        return complement(build_family(family.complement_of(spec)))
    return build_digraph(spec.n, family.arcs(spec.n, spec.n // 2, spec))


def closed_form_charpoly(spec: FamilySpec) -> IntPolynomial:
    """The family's closed-form characteristic polynomial, built exactly."""
    validate(spec)
    family = _FAMILIES[spec.family]
    if family.closed_form is None:
        raise InvalidParameter(f"no closed form for family {spec.family!r}")
    return family.closed_form(spec.n, spec.n // 2, spec)


def has_closed_form(name: str) -> bool:
    """Whether the registered family has a closed-form characteristic
    polynomial (every family but Complement)."""
    return _family(name).closed_form is not None


def complement_closed_form(kind: str, n: int) -> IntPolynomial:
    """Closed forms for the two named complements, as products of
    cyclotomic polynomials under a linear substitution."""
    if kind not in ("DCc", "UDWc"):
        raise InvalidParameter(f"unknown complement kind {kind!r}, expected DCc or UDWc")
    return closed_form_charpoly(FamilySpec(kind, n))


def table_specs(table: str, lo: int, hi: int) -> list[FamilySpec]:
    """Candidate specs for a verification table over lo..hi, by n and
    then in registry order; candidates invalid at a given n are kept so
    the report can show the skip."""
    if table not in TABLE_NAMES:
        raise ValueError(f"unknown table {table!r}, expected one of {TABLE_NAMES}")
    return [
        FamilySpec(name, n, **params)
        for n in range(lo, hi + 1)
        for name, family in _FAMILIES.items()
        if table in family.tables
        for params in family.tables[table](n, n // 2)
    ]


def expected_exponent(family: str, n: int) -> int | None:
    """Exponent the closed-form table claims, or None outside its
    domain.  The fan/wheel formulas are tabulated for n >= 10 (several
    genuinely fail below that, e.g. exp(kDF_6) = 11, not k+4 = 7); the
    alternating-fan and cycle-complement values hold on their stated
    ranges."""
    record = _FAMILIES.get(family)
    if record is None or n < record.tabulated_from:
        return None
    return record.exponent(n, n // 2)


def expected_no_walk_pair(family: str, n: int) -> tuple[int, int] | None:
    """Vertex pair the exponent table asserts has no walk of length
    exp - 1.  The PDF pair is recorded as stated even though it fails:
    the hub loop gives the walk n-1 -> n -> 1 -> 1 ... 1 -> 2 of length
    n - 1, so reports carry witness_zero_ok=False for every PDF row.
    The genuinely zero row of PDF's A^(n-1) is row 2 (columns 2..n).
    """
    record = _FAMILIES.get(family)
    if record is None or n < record.tabulated_from:
        return None
    return record.no_walk_pair(n, n // 2)
