"""The benchmark's workloads: their items, how an item runs, and how its
answer is checked against the reference.

Why these three (each stresses a layer the others barely touch):

* ``tables`` is the default ``verify --table=all`` sweep, the product's
  headline job, and the only workload where ``minimal_polynomial`` and
  the linear-subgraph route ``charpoly_ldsg`` carry most of the time.
* ``exponents-large`` is the ``exponents`` table above the enumeration
  cap (n = 21..32): dense ``charpoly_exact`` products, ``exponent`` and
  ``walk_count`` do the work; ``minimal_polynomial`` never runs, and
  ``charpoly_ldsg`` runs only if the cap is removed.
* ``certify-cold`` is the certificate and number-theory path, each item
  one CLI-sized check starting from a cold ``cyclotomic`` cache as every
  invocation does: distinct-eigenvalue verdicts (gcd over Q, gcd over F2,
  cyclotomic factoring of the odd alternating wheels), Perron/Brauer
  irreducibility with the monic factor search, and one triangular
  certificate search per catalogue family.  ``Fraction`` long division
  in ``IntPolynomial.divrem`` under ``cyclotomic`` does ~90% of the work;
  no matrix minimal polynomial runs.

Every function of the package is reached through its module attribute at
call time (``spectra.charpoly_exact``, never a name imported here), so the
tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from digraph_spectra import families, polynomial, spectra, verify
from digraph_spectra.families import FamilySpec

WORKLOADS = ("tables", "exponents-large", "certify-cold")
EXPONENTS_LARGE_RANGE = (21, 32)
CERTIFICATE_RANGE = (5, 10)
# Cyclotomic verdicts for the odd wheels n = 5..2k+1.  Cold per item, the
# n = 15 pair costs ~12 s of the ~19 s; n = 17 would add ~28 s per sweep.
CYCLOTOMIC_MAX_K = 7
# Workloads whose items are each one CLI invocation, so each item starts
# from a cold cache; a verify sweep is one invocation and starts cold once.
COLD_PER_ITEM = ("certify-cold",)
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.jsonl"

# Report-row fields that record how a row was checked, not what it
# answers.  ``ldsg_agreement`` may be None or True but never False.
BOOKKEEPING_FIELDS = ("ldsg_checked", "ldsg_agreement")
SUMMARY_BOOKKEEPING = ("ldsg_checked",)


@dataclass(frozen=True)
class Item:
    """One answer the workload asks for; ``key`` names it in the reference."""

    key: str
    kind: str  # row | distinct | perron | brauer | certificate
    spec: FamilySpec
    table: str | None = None
    method: str | None = None


# -- item lists ---------------------------------------------------------


def _row_items(table: str, lo: int, hi: int) -> list[Item]:
    return [
        Item(f"{table}|{spec.to_text()}", "row", spec, table=table)
        for spec in families.table_specs(table, lo, hi)
    ]


def _catalogue_spec(family: str, n: int) -> FamilySpec:
    """One instance of every catalogue family, smallest valid parameters."""
    FS = FamilySpec
    extra = {
        "DCn_i_kpjpi": {"j": 1},
        "DCn_tips": {"tips": (1,)},
        "DCn_m": {"m": 3},
        "Xn_loops": {"m": 2},
        "Yn_arcs_loops": {"arcs": (2,), "m": 2},
        "Zn_loop": {"j": 2},
    }
    if family == "Complement":
        return FS("Complement", n, inner=FS("ADF", n))
    return FS(family, n, **extra.get(family, {}))


def _certify_items() -> list[Item]:
    FS = FamilySpec
    items: list[Item] = []

    def distinct(spec: FamilySpec, method: str) -> None:
        items.append(Item(f"distinct|{method}|{spec.to_text()}", "distinct", spec, method=method))

    for n in range(5, 15):
        k = n // 2
        for j in range(1, k):
            distinct(FS("DCn_i_kpjpi", n, j=j), "gcdQ")
        for m in range(3, n):
            distinct(FS("DCn_m", n, m=m), "gcdQ")
        distinct(FS("Zn_loop", n, j=3), "gcdQ")
    for n in range(5, 14, 2):
        distinct(FS("DCn_i_nmi", n), "gcdF2")
        distinct(FS("ADF", n), "gcdF2")
    for k in range(2, CYCLOTOMIC_MAX_K + 1):
        distinct(FS("ADW", 2 * k + 1), "cyclotomic")
        distinct(FS("RADW", 2 * k + 1), "cyclotomic")
    for n in range(3, 15):
        for m in (n + 1, n + 2):
            spec = FS("Xn_loops", n, m=m)
            items.append(Item(f"perron|{spec.to_text()}", "perron", spec))
    for n in range(3, 15):
        for spec in [FS("PDF", n)] + [FS("Xn_loops", n, m=m) for m in range(2, n + 3)]:
            items.append(Item(f"brauer|{spec.to_text()}", "brauer", spec))
    lo, hi = CERTIFICATE_RANGE
    for family in families.FAMILY_NAMES:
        for n in range(lo, hi + 1):
            spec = _catalogue_spec(family, n)
            try:
                families.validate(spec)
            except families.InvalidParameter:
                continue  # e.g. RADW at even n
            items.append(Item(f"certificate|{spec.to_text()}", "certificate", spec))
    return items


def canonical_items(workload: str) -> list[Item]:
    """The workload's items in their fixed (report) order."""
    if workload == "tables":
        items: list[Item] = []
        for table in families.TABLE_NAMES:
            items += _row_items(table, *families.DEFAULT_RANGES[table])
        return items
    if workload == "exponents-large":
        return _row_items("exponents", *EXPONENTS_LARGE_RANGE)
    if workload == "certify-cold":
        return _certify_items()
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def shuffled(items: list[Item], seed: int) -> list[Item]:
    """Run order for a seed; results are keyed by item, so order-free."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


# -- running ------------------------------------------------------------


def _factor_search(psi) -> dict:
    if psi.degree > 6:
        return {}
    factor = polynomial.find_monic_factor(psi, min(3, psi.degree - 1))
    return {"factor": None if factor is None else str(factor)}


def run_item(item: Item):
    """The program's answer for one item (a ReportRow for rows)."""
    if item.kind == "row":
        return verify.build_row(item.table, item.spec)
    if item.kind == "distinct":
        return verify.distinctness_check(item.spec, item.method)
    if item.kind == "certificate":
        return spectra.triangular_certificate(families.build_family(item.spec))
    psi = spectra.charpoly_exact(families.build_family(item.spec))
    if item.kind == "perron":
        return {"charpoly": str(psi), "perron": polynomial.perron_irreducible(psi), **_factor_search(psi)}
    if item.kind == "brauer":
        return {"charpoly": str(psi), "brauer": polynomial.brauer_form(psi).value, **_factor_search(psi)}
    raise ValueError(f"unknown item kind {item.kind!r}")


def report_doc(items: list[Item], outputs: dict) -> str | None:
    """Serialise the rows of a verify workload, in report order, as the
    CLI's JSON report does; None for workloads without report rows."""
    rows = [outputs[item.key] for item in items if item.kind == "row"]
    if not rows:
        return None
    return verify.VerificationReport(rows=rows).to_json_doc()


# Bound before any tracer rebinds the module attribute to a wrapper; the
# cache lives on this original function.
CYCLOTOMIC = polynomial.cyclotomic


def clear_caches() -> None:
    """Start a sweep from the state a fresh CLI invocation has."""
    CYCLOTOMIC.cache_clear()


# -- answers and checks -------------------------------------------------


def answer_of(item: Item, output) -> object:
    """The comparable answer of an output, as stored in the reference."""
    if item.kind == "row":
        row = output.to_dict()
        for key in BOOKKEEPING_FIELDS:
            row.pop(key)
        return row
    if item.kind == "certificate":
        return {"found": output is not None}
    return output


def summary_answer(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in SUMMARY_BOOKKEEPING}


def certificate_problem(adjacency: list[list[int]], cert) -> str | None:
    """Why ``cert`` does not prove a constant nonzero (n-1)-minor of
    xI - A, or None when it does.

    Stage t pairs row r_t with column c_t; xI - A has the nonzero
    constant -A[r_t][c_t] there (r_t != c_t) and zeros against every
    later column, so the reordered minor is triangular with constant
    nonzero diagonal.
    """
    n = len(adjacency)
    rows = [v for v in range(1, n + 1) if v != cert.removed_row]
    cols = [v for v in range(1, n + 1) if v != cert.removed_col]
    if sorted(cert.row_order) != rows or sorted(cert.col_order) != cols:
        return "stage orders are not the remaining rows and columns"
    for t, (r, c) in enumerate(zip(cert.row_order, cert.col_order)):
        if r == c or adjacency[r - 1][c - 1] == 0:
            return f"stage {t} entry ({r}, {c}) is not a nonzero constant"
        for later in cert.col_order[t + 1 :]:
            if later == r or adjacency[r - 1][later - 1] != 0:
                return f"stage {t} row {r} meets later column {later}"
    return None


def check_item(item: Item, output, expected) -> str | None:
    """None when the output is a correct answer, else the reason."""
    if isinstance(output, BaseException):
        return f"raised {output!r}"
    if item.kind == "row" and output.ldsg_agreement is False:
        return "characteristic-polynomial routes disagree"
    if item.kind == "certificate" and output is not None:
        adjacency = families.build_family(item.spec).adjacency_matrix()
        problem = certificate_problem(adjacency, output)
        if problem is not None:
            return problem
    answer = answer_of(item, output)
    if answer == expected:
        return None
    if isinstance(answer, dict) and isinstance(expected, dict):
        keys = sorted(set(answer) | set(expected))
        diff = {k: (answer.get(k), expected.get(k)) for k in keys if answer.get(k) != expected.get(k)}
        return f"(answer, reference) differ at {diff}"
    return f"answer {answer!r} differs from reference {expected!r}"


def check_report(items: list[Item], outputs: dict, doc: str, expected_summary) -> str | None:
    """The serialised report must carry exactly the rows returned and a
    summary equal to the reference (bookkeeping counts aside)."""
    parsed = json.loads(doc)
    rows = [outputs[item.key] for item in items if item.kind == "row"]
    if parsed["rows"] != [json.loads(json.dumps(r.to_dict())) for r in rows]:
        return "report rows differ from the rows built"
    if parsed["summary"]["hard_failures"] != 0:
        return "report has hard failures"
    if summary_answer(parsed["summary"]) != expected_summary:
        return "report summary differs from reference"
    return None


def routes_per_charpoly(items: list[Item], outputs: dict) -> float:
    """Independent characteristic-polynomial routes behind each reported
    characteristic polynomial: 2 for a dual-checked report row, else 1."""
    answers = 0
    routes = 0
    for item in items:
        output = outputs[item.key]
        if item.kind == "certificate" or getattr(output, "skipped", None) is not None:
            continue
        answers += 1
        if isinstance(output, BaseException):
            continue  # no answer, so no route behind it
        routes += 2 if getattr(output, "ldsg_checked", False) else 1
    return routes / answers


# -- reference file -----------------------------------------------------


def summary_key(workload: str) -> str:
    return f"{workload}|report-summary"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return {rec["key"]: rec["answer"] for rec in map(json.loads, fh)}
