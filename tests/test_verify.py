"""Verification reports and distinct-eigenvalue certificates.

Core claims:
    - build_report rebuilds each table row, cross-checks both
      characteristic-polynomial routes, and records closed-form
      agreement; degenerate parameters become skip rows with reasons
    - the family sweeps produce zero hard failures; the only recorded
      witness discrepancy is the full-fan pair, never counted hard; the
      walk_row behind it equals the row of the matrix power
    - report serializations (JSON document, markdown, CSV, text) are
      well formed and deterministic; a row's dict equals
      dataclasses.asdict (keys, order, values) on all 589 default rows,
      with its lists copied
    - build_report("all") is pinned byte for byte in all four formats
      by sha256 digests
    - build_row runs the trace recursion once per row: a degree-n
      minimal polynomial is taken as the characteristic polynomial; a
      row with a start vector cyclic mod 2 never reaches the mod-P
      search, and only a derogatory row reaches the Z certificate
    - a row not squarefree over Q reads not squarefree mod 2 without a
      second squarefree test; the other rows run both
    - the three distinct-eigenvalue methods return auditable
      certificates matching the worked instances
"""

import csv
import dataclasses
import hashlib
import io
import json
import random

import pytest

from digraph_spectra import (
    FamilySpec,
    IntPolynomial,
    build_digraph,
    build_family,
    build_report,
    distinctness_check,
    gcd_over_q,
    is_squarefree,
    parse_family_spec,
    table_specs,
)
from digraph_spectra import spectra, verify
from digraph_spectra.digraph import walk_row
from digraph_spectra.families import TABLE_NAMES
from digraph_spectra.verify import VerificationReport, build_row

from conftest import mat_mul


def _cdf_small():
    return build_report("cdf", (3, 6))


# -- report construction ----------------------------------------------


class TestBuildReport:
    def test_skip_rows_carry_reasons(self):
        report = build_report("cdf", (3, 5))
        skips = [r for r in report.rows if r.skipped is not None]
        assert skips
        assert all("needs" in r.skipped for r in skips)
        assert any(r.family == "kDF" and r.n == 3 for r in skips)

    def test_computed_rows_cross_check(self):
        report = _cdf_small()
        live = [r for r in report.rows if r.skipped is None]
        assert live
        for row in live:
            assert row.ldsg_checked and row.ldsg_agreement is True
            assert row.charpoly_match is True
            assert row.computed_charpoly == row.closed_form
            assert row.non_derogatory is not None
        assert report.hard_failures == 0

    def test_worked_example_row(self):
        report = build_report("cdc", (8, 8))
        rows = [r for r in report.rows if r.family == "DCn_i_nmi"]
        assert len(rows) == 1
        assert rows[0].computed_charpoly == "x^8 - x^5 - x^3 - x - 1"
        assert rows[0].charpoly_match is True

    def test_exponents_table_rows(self):
        report = build_report("exponents", (10, 12))
        live = [r for r in report.rows if r.skipped is None]
        assert live
        for row in live:
            assert row.min_poly is None  # deep analysis is off for this table
            assert row.primitive is not None
        mismatch = [r for r in live if r.witness_zero_ok is False]
        assert mismatch and all(r.family == "PDF" for r in mismatch)
        assert all(r.exponent_match is not False for r in live)
        assert report.hard_failures == 0

    def test_summary_counts_add_up(self):
        report = _cdf_small()
        s = report.summary
        assert s["rows"] == s["computed"] + s["skipped"]
        assert s["charpoly_mismatches"] == 0
        assert s["hard_failures"] == 0

    def test_multiple_tables_and_override_range(self):
        report = build_report(["cdc", "cdw"], (4, 5))
        tables = {r.table for r in report.rows}
        assert tables == {"cdc", "cdw"}
        assert all(4 <= r.n <= 5 for r in report.rows)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            build_report("not-a-table")

    def test_all_tables(self):
        report = build_report("all", (4, 4))
        assert {r.table for r in report.rows} == {
            "cdc", "cdf", "cdw", "derived", "complements", "exponents",
        }


def test_one_row_walk_count_matches_matrix_power():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 7)
        arcs = [
            (i, j, rng.randint(1, 3) if i == j else 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if rng.random() < 0.4
        ]
        d = build_digraph(n, arcs)
        k, i = rng.randint(0, 9), rng.randint(0, n - 1)
        power = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(k):
            power = mat_mul(power, d.adjacency_matrix())
        assert walk_row(d, i, k) == power[i]


# -- serializations ---------------------------------------------------


class TestReportFormats:
    def test_json_doc(self):
        report = _cdf_small()
        doc = json.loads(report.to_json_doc())
        assert set(doc) == {"rows", "summary"}
        assert len(doc["rows"]) == len(report.rows)
        assert doc["summary"]["hard_failures"] == 0

    def test_json_doc_deterministic(self):
        assert _cdf_small().to_json_doc() == _cdf_small().to_json_doc()

    def test_markdown(self):
        md = _cdf_small().to_markdown()
        head = md.splitlines()[0]
        assert head.startswith("|") and "spec" in head
        assert md.splitlines()[1].startswith("|---") or "---" in md.splitlines()[1]

    def test_csv(self):
        report = _cdf_small()
        parsed = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert len(parsed) == len(report.rows)
        assert "computed_charpoly" in parsed[0]

    def test_text(self):
        text = _cdf_small().to_text()
        assert "hard_failures=0" in text
        assert "SKIP" in text


@pytest.fixture(scope="module")
def default_report():
    """build_report("all") once, at the default enumeration cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(spectra.CAP_ENV_VAR, raising=False)
        return build_report("all")


# sha256 of the default report in each format: a change to any default
# row's content or to a serializer shows here
DEFAULT_REPORT_SHA256 = {
    "json": "3c0471f4c13fea85c3a7e8e5202addab6ebc855dd166907243b6b2fd155eae42",
    "csv": "bac907f676da01386ac4f3227dba8986f228e7c4892b4f89abe57b0ebeb3cbb0",
    "md": "c63f8df065e356556c1f4f093baad503cb2812f49cb22d7164d2e0c3c49f1bef",
    "text": "3e064faa7f1dde55c4fa1e15c8cc64414b44c72dd8eaaa416d577768c0bb4ce3",
}


def test_default_report_bytes_are_pinned(default_report):
    outputs = {
        "json": default_report.to_json_doc(),
        "csv": default_report.to_csv(),
        "md": default_report.to_markdown(),
        "text": default_report.to_text(),
    }
    digests = {fmt: hashlib.sha256(out.encode()).hexdigest() for fmt, out in outputs.items()}
    assert digests == DEFAULT_REPORT_SHA256


def test_row_dict_matches_dataclasses_asdict_on_the_default_tables(default_report):
    rows = default_report.rows
    assert len(rows) == 589
    for row in rows:
        got, want = row.to_dict(), dataclasses.asdict(row)
        assert list(got.items()) == list(want.items()), row.spec
        for key in ("witness_pair", "expected_no_walk_pair"):
            assert got[key] is None or got[key] is not getattr(row, key)


def test_route_1_runs_once_per_row(monkeypatch):
    """One row per table: the trace recursion runs once per built row,
    inside minimal_polynomial or from build_row; the mod-P search runs
    only on rows where no start vector is cyclic mod 2, and the Z
    certificate only on derogatory rows."""
    rows = {
        "cdc": "family=DCn_i_nmi n=8",  # e_1 cyclic mod 2
        "cdf": "family=ADF n=14",  # a seeded vector cyclic mod 2
        "cdw": "family=ADW n=13",  # A mod 2 derogatory: mod P, non-derogatory
        "derived": "family=Zn_loop n=9 j=4",
        "complements": "family=UDWc n=9",  # derogatory
        "exponents": "family=DCc n=10",  # no minimal polynomial
    }
    assert set(rows) == set(TABLE_NAMES)
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    route_1 = counted("charpoly_exact", spectra.charpoly_exact)
    monkeypatch.setattr(spectra, "charpoly_exact", route_1)
    monkeypatch.setattr(verify, "charpoly_exact", route_1)
    for name in ("_minimal_polynomial_mod_p", "_annihilates"):
        monkeypatch.setattr(spectra, name, counted(name, getattr(spectra, name)))
    kinds = set()
    for table, text in rows.items():
        spec = parse_family_spec(text)
        columns = spectra._columns_mod_2(build_family(spec))
        e1_mod_2 = spectra._cyclic_mod_2(columns, 1)
        calls.clear()
        row = build_row(table, spec)
        assert row.skipped is None and calls["charpoly_exact"] == 1, text
        mod_p = "_minimal_polynomial_mod_p" in calls
        if table != "exponents":
            assert mod_p is not any(
                spectra._cyclic_mod_2(columns, u) for u in spectra._start_vectors_mod_2(spec.n)
            ), text
        if not mod_p:
            assert "_annihilates" not in calls, text
        kinds.add((e1_mod_2, mod_p, row.non_derogatory, "_annihilates" in calls))
    assert {
        (True, False, True, False),
        (False, False, True, False),
        (False, True, True, False),
        (False, True, False, True),
    } <= kinds


def test_squarefree_mod_2_is_tested_only_when_squarefree_over_q(monkeypatch):
    fields = []

    def counted(f, field="Q"):
        fields.append(field)
        return is_squarefree(f, field)

    monkeypatch.setattr(verify, "is_squarefree", counted)
    seen = set()
    for table in ("cdw", "complements"):
        for spec in table_specs(table, 5, 9):
            del fields[:]
            row = build_row(table, spec)
            if row.skipped is not None:
                continue
            psi = IntPolynomial.parse(row.computed_charpoly)
            assert row.squarefree_q is (gcd_over_q(psi, psi.derivative()).degree == 0)
            assert fields == (["Q", "F2"] if row.squarefree_q else ["Q"]), row.spec
            seen.add((row.squarefree_f2, row.squarefree_q))
    assert seen == {(True, True), (False, True), (False, False)}


def test_json_doc_equals_whole_document_dump():
    report = build_report("cdw", (5, 6))
    for rows in (report.rows, []):
        r = VerificationReport(rows=rows)
        whole = {"rows": [row.to_dict() for row in rows], "summary": r.summary}
        assert r.to_json_doc() == json.dumps(whole, sort_keys=True, separators=(",", ":"))


# -- distinct-eigenvalue methods --------------------------------------


class TestDistinctness:
    def test_gcd_over_q(self):
        out = distinctness_check(parse_family_spec("family=DCn_m n=8 m=5"), "gcdQ")
        assert out["verdict"] is True
        assert out["gcd"] == "1"

    def test_gcd_over_q_detects_repeated_roots(self):
        out = distinctness_check(FamilySpec("Zn_loop", 5, j=2), "gcdQ")
        assert out["verdict"] is False
        assert out["gcd"] == "x^3"

    def test_gcd_over_f2(self):
        out = distinctness_check(FamilySpec("ADF", 7), "gcdF2")
        assert out["verdict"] is True
        assert out["gcd_mod2"] == "1"
        assert "implies" in out["note"]

    def test_cyclotomic_odd_wheel(self):
        out = distinctness_check(FamilySpec("ADW", 11), "cyclotomic")
        assert out["cubic"] == "x^3 - x - 5"
        assert out["remainder_zero"] is True
        assert out["verdict"] is True
        assert out["leftover"] == "1"
        assert out["cyclotomic_indices"]

    def test_cyclotomic_reversed_wheel(self):
        out = distinctness_check(FamilySpec("RADW", 11), "cyclotomic")
        assert out["cubic"] == "x^3 - 2x - 5"
        assert out["remainder_zero"] is True
        assert out["verdict"] is True

    def test_cyclotomic_rejects_other_families(self):
        with pytest.raises(ValueError):
            distinctness_check(FamilySpec("PDF", 5), "cyclotomic")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            distinctness_check(FamilySpec("ADF", 7), "nope")

