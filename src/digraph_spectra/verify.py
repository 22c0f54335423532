"""Verification reports over the family tables.

A report row rebuilds one family instance, recomputes its invariants
(characteristic polynomial by the trace recursion, and by the clow
route too when n is at most the ``DIGRAPH_SPECTRA_CAP`` environment
variable, by default on every default-table row; closed form, minimal
polynomial, squarefree and irreducibility checks, primitivity and
exponent), and records agreement flags.  Disagreement between the two
characteristic-polynomial routes is a hard failure; a closed-form
mismatch is ordinary report material.  Instances whose parameters are
degenerate at a given n become skip rows with the reason string.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, fields

from .digraph import walk_row
from .exponents import exponent as compute_exponent
from .families import (
    DEFAULT_RANGES,
    TABLE_NAMES,
    FamilySpec,
    InvalidParameter,
    build_family,
    closed_form_charpoly,
    expected_exponent,
    expected_no_walk_pair,
    has_closed_form,
    table_specs,
)
from .polynomial import (
    BothZeroMod2,
    IntPolynomial,
    _totient,
    brauer_form,
    cyclotomic,
    gcd_over_f2,
    gcd_over_q,
    is_squarefree,
    perron_irreducible,
)
from .spectra import charpoly_exact, charpoly_ldsg, minimal_polynomial

CAP_ENV_VAR = "DIGRAPH_SPECTRA_CAP"
# every default-table row gets both charpoly routes unless
# DIGRAPH_SPECTRA_CAP lowers the cap
DEFAULT_ENUMERATION_CAP = max(hi for _, hi in DEFAULT_RANGES.values())


def resolve_enumeration_cap() -> int:
    """The largest n whose rows get the second route:
    ``DIGRAPH_SPECTRA_CAP`` if set, else ``DEFAULT_ENUMERATION_CAP``.

    A cap below 1 is rejected: it would silently switch the second
    route off for every row."""
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be at least 1, got {cap}")
    return cap


@dataclass(slots=True)
class ReportRow:
    table: str
    spec: str
    family: str
    n: int
    skipped: str | None = None
    computed_charpoly: str | None = None
    closed_form: str | None = None
    charpoly_match: bool | None = None
    ldsg_checked: bool = False
    ldsg_agreement: bool | None = None
    min_poly: str | None = None
    min_poly_degree: int | None = None
    non_derogatory: bool | None = None
    squarefree_q: bool | None = None
    squarefree_f2: bool | None = None
    perron: bool | None = None
    brauer: str | None = None
    primitive: bool | None = None
    exponent: int | None = None
    witness_pair: list | None = None
    expected_exponent: int | None = None
    exponent_match: bool | None = None
    expected_no_walk_pair: list | None = None
    witness_zero_ok: bool | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order, lists copied: what
        ``dataclasses.asdict`` returns, without its recursive deep copy."""
        values = [getattr(self, name) for name in _ROW_FIELDS]
        return {
            name: list(value) if isinstance(value, list) else value
            for name, value in zip(_ROW_FIELDS, values)
        }


_ROW_FIELDS = tuple([f.name for f in fields(ReportRow)])


@dataclass
class VerificationReport:
    rows: list[ReportRow]

    @property
    def summary(self) -> dict:
        rows = self.rows
        computed = [r for r in rows if r.skipped is None]
        matches = sum(1 for r in computed if r.charpoly_match is True)
        mismatches = sum(1 for r in computed if r.charpoly_match is False)
        hard = sum(1 for r in computed if r.ldsg_agreement is False)
        expmatch = sum(1 for r in computed if r.exponent_match is True)
        expmiss = sum(1 for r in computed if r.exponent_match is False)
        return {
            "rows": len(rows),
            "computed": len(computed),
            "skipped": len(rows) - len(computed),
            "charpoly_matches": matches,
            "charpoly_mismatches": mismatches,
            "ldsg_checked": sum(1 for r in computed if r.ldsg_checked),
            "hard_failures": hard,
            "exponent_matches": expmatch,
            "exponent_mismatches": expmiss,
        }

    @property
    def hard_failures(self) -> int:
        return self.summary["hard_failures"]

    def to_json_doc(self) -> str:
        """The same bytes as dumping {"rows": [...], "summary": ...} with
        sorted keys; rows are encoded one at a time, so the report never
        holds every row's dict and the encoder's pieces at once."""
        rows = ",".join(_dump_json(r.to_dict()) for r in self.rows)
        return f'{{"rows":[{rows}],"summary":{_dump_json(self.summary)}}}'

    _MD_COLUMNS = (
        "table",
        "spec",
        "computed_charpoly",
        "closed_form",
        "charpoly_match",
        "min_poly_degree",
        "non_derogatory",
        "primitive",
        "exponent",
        "expected_exponent",
        "skipped",
    )

    def to_markdown(self) -> str:
        cols = self._MD_COLUMNS
        out = ["| " + " | ".join(cols) + " |", "| " + " | ".join("---" for _ in cols) + " |"]
        for r in self.rows:
            d = r.to_dict()
            out.append("| " + " | ".join(_md_cell(d[c]) for c in cols) + " |")
        s = self.summary
        out.append("")
        out.append(
            f"rows: {s['rows']}, skipped: {s['skipped']}, "
            f"charpoly matches: {s['charpoly_matches']}, "
            f"mismatches: {s['charpoly_mismatches']}, "
            f"hard failures: {s['hard_failures']}"
        )
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_ROW_FIELDS, lineterminator="\n")
        writer.writeheader()
        for r in self.rows:
            d = r.to_dict()
            for key, value in d.items():
                if isinstance(value, list):
                    d[key] = json.dumps(value)
            writer.writerow(d)
        return buf.getvalue()

    def to_text(self) -> str:
        s = self.summary
        out = []
        for r in self.rows:
            if r.skipped is not None:
                out.append(f"SKIP  {r.spec}  ({r.skipped})")
            else:
                flags = []
                if r.ldsg_agreement is False:
                    flags.append("HARD-FAIL ldsg")
                if r.charpoly_match is False:
                    flags.append("closed-form mismatch")
                if r.exponent_match is False:
                    flags.append("exponent mismatch")
                status = "; ".join(flags) if flags else "ok"
                out.append(f"row   {r.spec}  {status}")
        out.append(
            f"summary: rows={s['rows']} skipped={s['skipped']} "
            f"matches={s['charpoly_matches']} mismatches={s['charpoly_mismatches']} "
            f"hard_failures={s['hard_failures']}"
        )
        return "\n".join(out) + "\n"


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _md_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


# -- row construction -------------------------------------------------


def build_row(table: str, spec: FamilySpec) -> ReportRow:
    row = ReportRow(table=table, spec=spec.to_text(), family=spec.family, n=spec.n)
    try:
        graph = build_family(spec)
    except InvalidParameter as err:
        row.skipped = str(err)
        return row
    deep = table != "exponents"
    mp = minimal_polynomial(graph) if deep else None
    # a degree-n minimal polynomial is the characteristic polynomial
    psi = mp if mp is not None and mp.degree == graph.n else charpoly_exact(graph)
    row.computed_charpoly = str(psi)
    if graph.n <= resolve_enumeration_cap():
        row.ldsg_checked = True
        row.ldsg_agreement = charpoly_ldsg(graph) == psi
    if has_closed_form(spec.family):
        closed = closed_form_charpoly(spec)
        row.closed_form = str(closed)
        row.charpoly_match = closed == psi
    if deep:
        row.min_poly = str(mp)
        row.min_poly_degree = mp.degree
        row.non_derogatory = mp.degree == graph.n
        if psi.degree >= 1:
            row.squarefree_q = is_squarefree(psi, "Q")
            # squarefree mod 2 implies squarefree over Q, so only a
            # polynomial squarefree over Q can be squarefree mod 2
            row.squarefree_f2 = row.squarefree_q and is_squarefree(psi, "F2")
        if psi.is_monic and psi.degree >= 2:
            row.perron = perron_irreducible(psi)
            row.brauer = brauer_form(psi).value
    result = compute_exponent(graph)
    row.primitive = result.primitive
    row.exponent = result.exponent
    row.witness_pair = list(result.witness_pair) if result.witness_pair else None
    expected = expected_exponent(spec.family, spec.n)
    row.expected_exponent = expected
    if expected is not None:
        row.exponent_match = result.exponent == expected
    pair = expected_no_walk_pair(spec.family, spec.n)
    if pair is not None and result.exponent is not None:
        row.expected_no_walk_pair = list(pair)
        row.witness_zero_ok = walk_row(graph, pair[0] - 1, result.exponent - 1)[pair[1] - 1] == 0
    return row


def build_report(tables, n_range: tuple[int, int] | None = None) -> VerificationReport:
    """Rows for the requested tables (name list or 'all'); n_range
    overrides each table's default sweep."""
    # a bad DIGRAPH_SPECTRA_CAP fails even if no row is built
    resolve_enumeration_cap()
    if tables == "all":
        tables = list(TABLE_NAMES)
    elif isinstance(tables, str):
        tables = [tables]
    rows: list[ReportRow] = []
    for table in tables:
        if table not in TABLE_NAMES:
            raise ValueError(f"unknown table {table!r}, expected one of {TABLE_NAMES}")
        lo, hi = n_range if n_range is not None else DEFAULT_RANGES[table]
        for spec in table_specs(table, lo, hi):
            rows.append(build_row(table, spec))
    return VerificationReport(rows=rows)


# -- distinct-eigenvalue checks ---------------------------------------

DISTINCT_METHODS = ("gcdQ", "gcdF2", "cyclotomic")


def distinctness_check(spec: FamilySpec, method: str) -> dict:
    """Verdict and certificate that the family instance has distinct
    eigenvalues, by the requested method.

    gcdQ: gcd(psi, psi') over Q is constant (exact, two-sided).
    gcdF2: gcd of the mod-2 reductions is constant (True implies
    distinct; False is inconclusive).
    cyclotomic: only for the odd alternating wheels; divides psi by its
    cubic factor (x^3 - x - k, or x^3 - 2x - k for the reinforced form)
    and factors the cofactor into distinct cyclotomic polynomials.
    """
    if method not in DISTINCT_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {DISTINCT_METHODS}")
    graph = build_family(spec)
    psi = charpoly_exact(graph)
    out: dict = {"spec": spec.to_text(), "method": method, "charpoly": str(psi)}
    if method == "gcdQ":
        g = gcd_over_q(psi, psi.derivative())
        out["gcd"] = str(g)
        out["verdict"] = g.degree == 0
        return out
    if method == "gcdF2":
        try:
            g = gcd_over_f2(psi, psi.derivative())
        except BothZeroMod2:
            out["gcd_mod2"] = None
            out["verdict"] = False
            out["note"] = "both psi and psi' vanish mod 2; inconclusive"
            return out
        out["gcd_mod2"] = str(g)
        out["verdict"] = g.degree == 0
        out["note"] = "mod-2 verdict true implies distinct eigenvalues over Q"
        return out
    if spec.family not in ("ADW", "RADW") or spec.n % 2 == 0:
        raise ValueError(
            "method cyclotomic applies to the odd alternating wheels (ADW, RADW) only"
        )
    k = spec.n // 2
    x = IntPolynomial.x()
    cubic = x**3 - x - k if spec.family == "ADW" else x**3 - 2 * x - k
    quotient, remainder = psi.divrem(cubic)
    out["cubic"] = str(cubic)
    out["remainder_zero"] = remainder.is_zero
    indices: list[int] = []
    leftover = quotient
    bound = 2 * max(quotient.degree, 1) ** 2 + 2
    for d in range(1, bound + 1):
        if _totient(d) > leftover.degree:
            continue  # Phi_d has degree phi(d), too high to divide what is left
        phi = cyclotomic(d)
        while leftover.degree >= phi.degree and leftover.is_divisible_by(phi):
            leftover = leftover.exact_div(phi)
            indices.append(d)
    out["cyclotomic_indices"] = indices
    out["leftover"] = str(leftover)
    coprime = all(gcd_over_q(cubic, cyclotomic(d)).degree == 0 for d in indices)
    out["verdict"] = (
        remainder.is_zero
        and leftover == IntPolynomial.one()
        and len(set(indices)) == len(indices)
        and is_squarefree(cubic, "Q")
        and coprime
    )
    return out
