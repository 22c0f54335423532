"""Tests of the benchmark itself: answer checks, metrics, the tracer,
the verdict rules, and an independent sympy cross-check of the
reference answers."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from digraph_spectra import exponents, families, polynomial, verify  # noqa: E402
from digraph_spectra.families import FamilySpec  # noqa: E402

REFERENCE = workloads.load_reference()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _items(workload: str, max_n: int, kinds=None, tables=None) -> list:
    return [
        item
        for item in workloads.canonical_items(workload)
        if item.spec.n <= max_n
        and (kinds is None or item.kind in kinds)
        and (tables is None or item.table in tables)
    ]


def _checker(workload: str, items: list, reference: dict = REFERENCE, sweep=None):
    """Run and check a subset of a workload.  The report summary of a
    subset is not in the reference, so it is taken from the subset."""
    sweep = sweep or run.run_sweep(workloads, items, items, workload in workloads.COLD_PER_ITEM)
    reference = dict(reference)
    if isinstance(sweep.doc, str):
        summary = json.loads(sweep.doc)["summary"]
        reference[workloads.summary_key(workload)] = workloads.summary_answer(summary)
    checker = run.Checker(workloads, workload, items, reference)
    checker.digest(sweep)
    return checker


def test_reference_covers_every_item():
    sizes = {"tables": 589, "exponents-large": 132, "certify-cold": 417}
    for workload, size in sizes.items():
        items = workloads.canonical_items(workload)
        assert len(items) == size
        assert len({item.key for item in items}) == size
        assert all(item.key in REFERENCE for item in items)
    summary = REFERENCE[workloads.summary_key("tables")]
    assert (summary["rows"], summary["computed"], summary["skipped"]) == (589, 573, 16)
    assert summary["hard_failures"] == 0


def test_pdf_rows_keep_the_refuted_witness_pair():
    pdf = [
        answer
        for key, answer in REFERENCE.items()
        if key.startswith("exponents|family=PDF ")
    ]
    assert len(pdf) == 11 + 12  # n = 10..20 and 21..32
    assert all(answer["witness_zero_ok"] is False for answer in pdf)


def test_planted_wrong_answer_is_counted():
    items = _items("tables", 5, tables=("cdc", "cdf")) + _items("certify-cold", 5)
    kinds = {item.kind for item in items}
    assert kinds == {"row", "distinct", "perron", "brauer", "certificate"}
    assert _checker("tables", items).failures == []

    for item in (
        next(i for i in items if i.kind == "row" and i.spec.family == "PDF"),
        next(i for i in items if i.kind == "distinct"),
        next(i for i in items if i.kind == "certificate"),
    ):
        planted = dict(REFERENCE)
        answer = dict(planted[item.key])
        if item.kind == "row":
            answer["computed_charpoly"] = "x^5 - 1"
        elif item.kind == "distinct":
            answer["verdict"] = not answer["verdict"]
        else:
            answer["found"] = not answer["found"]
        planted[item.key] = answer
        checker = _checker("tables", items, planted)
        assert [f.split(":")[0] for f in checker.failures] == [item.key]
        metrics = run.end_to_end_metrics(checker, [_fake_sweep()], [0.1], 1.0)
        assert 0 < 1 - metrics["correct_frac"][0]


def test_route_disagreement_and_raised_items_fail():
    item = _items("tables", 4, tables=("cdf",))[0]
    row = workloads.run_item(item)
    assert workloads.check_item(item, row, REFERENCE[item.key]) is None
    bad = dataclasses.replace(row, ldsg_agreement=False)
    assert "disagree" in workloads.check_item(item, bad, REFERENCE[item.key])
    assert "raised" in workloads.check_item(item, ValueError("x"), REFERENCE[item.key])


def test_fewer_dual_checked_rows_lower_routes_per_charpoly(monkeypatch):
    items = _items("tables", 6, tables=("cdf", "cdw"))
    default = _checker("tables", items)
    monkeypatch.setenv("DIGRAPH_SPECTRA_CAP", "4")
    capped = _checker("tables", items)
    assert default.failures == [] and capped.failures == []
    assert capped.routes_per_charpoly < default.routes_per_charpoly <= 2


def test_certificate_check_is_independent_of_the_search():
    item = next(
        i
        for i in _items("certify-cold", 6, kinds=("certificate",))
        if REFERENCE[i.key]["found"]
    )
    adjacency = families.build_family(item.spec).adjacency_matrix()
    cert = workloads.run_item(item)
    assert workloads.certificate_problem(adjacency, cert) is None
    rows, cols = cert.row_order, cert.col_order
    broken = [
        dataclasses.replace(cert, row_order=rows[::-1], col_order=cols[::-1]),
        dataclasses.replace(cert, removed_row=cert.removed_col, removed_col=cert.removed_row),
        dataclasses.replace(cert, col_order=cols[1:] + cols[:1]),
    ]
    for candidate in broken:
        assert workloads.certificate_problem(adjacency, candidate) is not None


def test_tracer_rebinds_caller_side_names_and_restores_them():
    originals = (verify.charpoly_exact, verify.compute_exponent, polynomial.IntPolynomial.divrem)
    trace = tracer.Tracer()
    with trace.installed():
        assert verify.compute_exponent is exponents.exponent is not originals[1]
        verify.build_row("cdf", FamilySpec("ADF", 5))
    assert (verify.charpoly_exact, verify.compute_exponent, polynomial.IntPolynomial.divrem) == originals
    assert verify.compute_exponent is exponents.exponent
    stats = trace.layer_stats()
    for name in (
        "verify.build_row",
        "spectra.charpoly_exact",
        "spectra.charpoly_ldsg",
        "spectra.minimal_polynomial",
        "exponents.exponent",
        "families.closed_form_charpoly",
        "polynomial.gcd_over_q",
    ):
        assert stats[name]["calls"] >= 1, name
    assert trace.probes["spectra.minimal_polynomial.degree_sum"] == 5


def test_tracer_nests_cyclotomic_recursion():
    workloads.clear_caches()
    trace = tracer.Tracer()
    with trace.installed():
        polynomial.cyclotomic(12)
    names = [span[0] for span in trace.spans]
    # 12 misses into its proper divisors 1, 2, 3, 4, 6, which hit each other
    assert names.count("polynomial.cyclotomic") == 1 + 5 + 7
    outer = trace.spans[0]
    assert outer[0] == "polynomial.cyclotomic" and outer[3] == -1
    assert all(span[3] >= 0 for span in trace.spans[1:])
    stats = trace.layer_stats()["polynomial.cyclotomic"]
    assert stats["busy_s"] == pytest.approx(outer[2] - outer[1])
    total_self = sum(s["self_s"] for s in trace.layer_stats().values())
    assert total_self == pytest.approx(outer[2] - outer[1])
    assert workloads.CYCLOTOMIC.cache_info().misses == 6


def _fake_sweep():
    return run.Sweep(1.0, 0.9, [0.001, 0.002, 0.003], {}, None, 0, 0)


def test_metric_names_and_units_match_benchmark_json():
    items = _items("tables", 4, tables=("cdf",))
    plain = run.run_sweep(workloads, items, items, False)
    traced = run.run_sweep(workloads, items, items, False, tracer.Tracer())
    checker = _checker("tables", items, sweep=plain)
    layer = run.per_layer_metrics(checker, [plain], [traced])
    end = run.end_to_end_metrics(checker, [plain], [0.1, 0.2], 1.0)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in end.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v, _ in end.values())


def test_compare_verdicts_follow_the_pairing_rule():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0]

    def judge(change, better="lower", bound=0.1):
        return compare.verdict(parent, change, list(zip(parent, change)), better, bound)[0]

    assert judge(faster) == "improved"
    assert judge(slower) == "regressed"
    assert judge(parent) == "unchanged"
    assert judge(noisy) == "unresolved"
    assert judge(slower, better="higher") == "improved"


def test_compare_reports_verdicts_self_time_and_counts(tmp_path, capsys):
    def records(path, scale, calls):
        with open(path, "w") as fh:
            for seed in range(10):
                jitter = 1 + seed / 1000
                end = {m["name"]: 1.0 for m in BENCHMARK["end_to_end"]}
                end["cpu_s"] = 20.0 * scale * jitter
                layer = {m["name"]: 0.0 for m in BENCHMARK["per_layer"]}
                layer["trace.cpu_s"] = 20.0 * scale * jitter
                layer["spectra.minimal_polynomial.self_share"] = 0.5
                layer["spectra.minimal_polynomial.calls"] = calls
                for trace, metrics in ((0, end), (1, layer)):
                    result = {"metrics": {k: {"value": v} for k, v in metrics.items()}}
                    rec = {"workload": "tables", "seed": seed, "trace": trace, "result": result}
                    fh.write(json.dumps(rec) + "\n")

    records(tmp_path / "a.jsonl", 1.0, 458)
    records(tmp_path / "b.jsonl", 0.5, 400)
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("tables ")]
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert verdicts[("tables", "cpu_s")] == "improved"
    assert verdicts[("tables", "setup_s")] == "unchanged"
    delta = [line.split() for line in out.splitlines() if "minimal_polynomial.self_s" in line]
    assert delta == [["spectra.minimal_polynomial.self_s", "10.045", "->", "5.0225", "(-5.022", "s)"]]
    assert "spectra.minimal_polynomial.calls" in out


# -- independent oracle -------------------------------------------------


def test_reference_agrees_with_sympy():
    sp = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        implicit_multiplication_application,
        parse_expr,
        standard_transformations,
    )

    x = sp.Symbol("x")
    transforms = standard_transformations + (implicit_multiplication_application,)

    def poly(text: str, modulus=None):
        expr = parse_expr(text.replace("^", "**"), local_dict={"x": x}, transformations=transforms)
        return sp.Poly(expr, x, modulus=modulus) if modulus else sp.Poly(expr, x)

    def matrix(spec):
        return sp.Matrix(families.build_family(spec).adjacency_matrix())

    def at_matrix(p, a):
        acc = sp.zeros(*a.shape)
        for c in p.all_coeffs():
            acc = acc * a + c * sp.eye(a.shape[0])
        return acc

    rng = random.Random(20261017)
    rows = [i for i in _items("tables", 9) if REFERENCE[i.key]["skipped"] is None]
    rows = rng.sample(rows, 16) + _items("exponents-large", 21)[:4]
    for item in rows:
        ans = REFERENCE[item.key]
        a = matrix(item.spec)
        n = a.shape[0]
        psi = a.charpoly(x)
        assert psi == poly(ans["computed_charpoly"]), item.key
        assert ans["charpoly_match"] == (poly(ans["closed_form"]) == psi), item.key
        if ans["min_poly"] is not None:
            mp = poly(ans["min_poly"])
            assert at_matrix(mp, a) == sp.zeros(n, n), item.key
            assert psi.rem(mp).is_zero and ans["non_derogatory"] == (mp.degree() == n)
            assert ans["squarefree_q"] == (sp.gcd(psi, psi.diff(x)).degree() == 0)
            psi2 = sp.Poly(psi.as_expr(), x, modulus=2)
            assert ans["squarefree_f2"] == (sp.gcd(psi2, psi2.diff(x)).degree() == 0)
        positive = lambda m: all(v > 0 for v in m)  # noqa: E731
        wielandt = (n - 1) ** 2 + 1
        if ans["primitive"]:
            e = ans["exponent"]
            before = a ** (e - 1)
            assert positive(a**e) and not positive(before), item.key
            zeros = [(i + 1, j + 1) for i in range(n) for j in range(n) if before[i, j] == 0]
            assert ans["witness_pair"] == list(zeros[0])
            if ans["expected_no_walk_pair"] is not None:
                i, j = ans["expected_no_walk_pair"]
                assert ans["witness_zero_ok"] == (before[i - 1, j - 1] == 0)
        elif n <= 12:
            assert not positive(a**wielandt), item.key

    certify = workloads.canonical_items("certify-cold")
    gcd_items = [i for i in certify if i.kind == "distinct" and i.method != "cyclotomic"]
    cyclo_items = [i for i in certify if i.method == "cyclotomic" and i.spec.n <= 11]
    for item in rng.sample(gcd_items, 8) + cyclo_items:
        ans = REFERENCE[item.key]
        psi = matrix(item.spec).charpoly(x)
        assert psi == poly(ans["charpoly"]), item.key
        if item.method == "gcdQ":
            g = sp.gcd(psi, psi.diff(x))
            assert poly(ans["gcd"]) == g and ans["verdict"] == (g.degree() == 0)
        elif item.method == "gcdF2":
            psi2 = sp.Poly(psi.as_expr(), x, modulus=2)
            g = sp.gcd(psi2, psi2.diff(x))
            assert poly(ans["gcd_mod2"], modulus=2) == g
            assert ans["verdict"] == (g.degree() == 0)
        else:
            product = poly(ans["cubic"])
            for d in ans["cyclotomic_indices"]:
                product *= sp.Poly(sp.cyclotomic_poly(d, x), x)
            assert product == psi and ans["leftover"] == "1", item.key
            factors = sp.factor_list(psi)[1]
            assert ans["verdict"] == all(mult == 1 for _, mult in factors)

    irreducible = [i for i in certify if i.kind in ("perron", "brauer")]
    for item in rng.sample(irreducible, 10):
        ans = REFERENCE[item.key]
        psi = matrix(item.spec).charpoly(x)
        assert psi == poly(ans["charpoly"]), item.key
        factors = sp.factor_list(psi)[1]
        if ans.get("perron") or ans.get("brauer") in ("F", "G"):
            assert len(factors) == 1 and factors[0][1] == 1, item.key
        if "factor" in ans:
            limit = min(3, psi.degree() - 1)
            small = any(f.degree() <= limit for f, _ in factors if len(factors) > 1 or factors[0][1] > 1)
            assert (ans["factor"] is not None) == small, item.key

    found = [i for i in certify if i.kind == "certificate" and REFERENCE[i.key]["found"]]
    for item in rng.sample(found, 6):
        cert = workloads.run_item(item)
        n = item.spec.n
        xi_minus_a = x * sp.eye(n) - matrix(item.spec)
        keep_r = [r - 1 for r in range(1, n + 1) if r != cert.removed_row]
        keep_c = [c - 1 for c in range(1, n + 1) if c != cert.removed_col]
        minor = sp.expand(xi_minus_a.extract(keep_r, keep_c).det())
        assert minor.is_number and minor != 0, item.key
