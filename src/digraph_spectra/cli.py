"""Command-line interface.

Subcommands: build, charpoly, verify, distinct, exponent, minpoly,
nonderogatory.  Family instances are given as key=value tokens
(``family=ADF n=7``); digraphs can also come from a file in the text or
JSON serialization.  Exit codes: 0 success, 1 input or usage error (one
``error:`` line on stderr), 2 hard assertion failure (the two
characteristic-polynomial routes disagree).  JSON output is
deterministic: sorted keys, compact separators.
"""

from __future__ import annotations

import argparse
import sys

from . import digraph as dg
from .digraph import Digraph
from .exponents import exponent as compute_exponent
from .families import (
    TABLE_NAMES,
    FamilySpec,
    build_family,
    closed_form_charpoly,
    has_closed_form,
    parse_family_spec,
)
from .spectra import (
    TooLargeForSearch,
    charpoly_exact,
    charpoly_ldsg,
    minimal_polynomial,
    minimal_polynomial_degree,
    triangular_certificate,
)
from .verify import DISTINCT_METHODS, _dump_json, build_report, distinctness_check

_METHODS = ("exact", "ldsg", "closed-form", "all")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_doc(doc: dict, args) -> None:
    """One JSON line, or one ``key: value`` line per entry."""
    if args.format == "json":
        _emit(_dump_json(doc) + "\n", args.out)
    else:
        _emit("".join(f"{key}: {value}\n" for key, value in doc.items()), args.out)


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        bounds = (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError:
        raise ValueError(f"--n range must be n or lo..hi with integers, got {text!r}") from None
    if bounds[0] < 1 or bounds[0] > bounds[1]:
        raise ValueError(f"--n range must satisfy 1 <= lo <= hi, got {text!r}")
    return bounds


def _spec_from_args(args) -> FamilySpec:
    if not args.spec:
        raise ValueError("missing family spec tokens (family=<name> n=<count> ...)")
    return parse_family_spec(" ".join(args.spec))


def _load_digraph(path: str) -> Digraph:
    with open(path) as fh:
        content = fh.read()
    if content.lstrip().startswith("{"):
        return dg.from_json(content)
    return dg.from_text(content)


def _graph_from_args(args) -> tuple[Digraph, FamilySpec | None, str]:
    if getattr(args, "file", None):
        return _load_digraph(args.file), None, args.file
    spec = _spec_from_args(args)
    return build_family(spec), spec, spec.to_text()


# -- subcommands ------------------------------------------------------


def cmd_build(args) -> int:
    graph = build_family(_spec_from_args(args))
    if args.format == "json":
        _emit(_dump_json(dg.to_json_dict(graph)) + "\n", args.out)
    else:
        _emit(dg.to_text(graph), args.out)
    return 0


def cmd_charpoly(args) -> int:
    graph, spec, source = _graph_from_args(args)
    method = args.method
    results: dict[str, str | None] = {}
    coeffs: dict[str, list[int]] = {}
    if method in ("exact", "all"):
        poly = charpoly_exact(graph)
        results["exact"] = str(poly)
        coeffs["exact"] = poly.to_coeff_list()
    if method in ("ldsg", "all"):
        poly = charpoly_ldsg(graph)
        results["ldsg"] = str(poly)
        coeffs["ldsg"] = poly.to_coeff_list()
    if method in ("closed-form", "all"):
        if spec is None and method == "closed-form":
            raise ValueError("closed-form method needs a family spec, not a file")
        if method == "all" and (spec is None or not has_closed_form(spec.family)):
            results["closed_form"] = None
        else:
            poly = closed_form_charpoly(spec)
            results["closed_form"] = str(poly)
            coeffs["closed_form"] = poly.to_coeff_list()
    known = {name: text for name, text in results.items() if text is not None}

    def agree(a: str, b: str) -> bool | None:
        return known[a] == known[b] if a in known and b in known else None

    agreement = {
        "exact_ldsg": agree("exact", "ldsg"),
        "exact_closed_form": agree("exact", "closed_form"),
    }
    hard_fail = agreement["exact_ldsg"] is False
    diff = _first_difference(coeffs["exact"], coeffs["ldsg"]) if hard_fail else None
    if args.format == "json":
        doc = {
            "source": source,
            "n": graph.n,
            "results": results,
            "coeffs": coeffs,
            "agreement": agreement,
        }
        if diff is not None:
            degree, exact, ldsg = diff
            doc["first_difference"] = {"degree": degree, "exact": exact, "ldsg": ldsg}
        _emit(_dump_json(doc) + "\n", args.out)
    else:
        lines = [f"{name}: {text if text is not None else '(skipped)'}" for name, text in results.items()]
        if method == "all":
            lines.append(f"agreement: {agreement}")
        if diff is not None:
            lines.append("first difference: x^{} exact={} ldsg={}".format(*diff))
        _emit("\n".join(lines) + "\n", args.out)
    return 2 if hard_fail else 0


def _first_difference(a: list[int], b: list[int]) -> tuple[int, int, int] | None:
    """(k, a_k, b_k) for the highest degree k at which two coefficient
    lists (constant term first) differ."""
    for k in range(max(len(a), len(b)) - 1, -1, -1):
        ak = a[k] if k < len(a) else 0
        bk = b[k] if k < len(b) else 0
        if ak != bk:
            return k, ak, bk
    return None


def cmd_verify(args) -> int:
    n_range = _parse_n_range(args.n) if args.n is not None else None
    report = build_report(args.table, n_range=n_range)
    if args.format == "json":
        text = report.to_json_doc() + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    elif args.format == "md":
        text = report.to_markdown()
    else:
        text = report.to_text()
    _emit(text, args.out)
    return 2 if report.hard_failures else 0


def cmd_distinct(args) -> int:
    spec = _spec_from_args(args)
    result = distinctness_check(spec, args.method)
    _emit_doc(result, args)
    return 0


def cmd_exponent(args) -> int:
    graph, _, source = _graph_from_args(args)
    result = compute_exponent(graph)
    doc = {
        "source": source,
        "primitive": result.primitive,
        "exponent": result.exponent,
        "witness_pair": list(result.witness_pair) if result.witness_pair else None,
    }
    _emit_doc(doc, args)
    return 0


def cmd_minpoly(args) -> int:
    graph, _, source = _graph_from_args(args)
    poly = minimal_polynomial(graph)
    doc = {
        "source": source,
        "min_poly": str(poly),
        "coeffs": poly.to_coeff_list(),
        "degree": poly.degree,
        "non_derogatory": poly.degree == graph.n,
    }
    _emit_doc(doc, args)
    return 0


def cmd_nonderogatory(args) -> int:
    graph, _, source = _graph_from_args(args)
    degree = minimal_polynomial_degree(graph)
    doc: dict = {
        "source": source,
        "non_derogatory": degree == graph.n,
        "min_poly_degree": degree,
    }
    try:
        cert = triangular_certificate(graph)
        doc["certificate_searched"] = True
        doc["certificate"] = (
            {
                "removed_row": cert.removed_row,
                "removed_col": cert.removed_col,
                "row_order": list(cert.row_order),
                "col_order": list(cert.col_order),
            }
            if cert is not None
            else None
        )
    except TooLargeForSearch:
        doc["certificate_searched"] = False
        doc["certificate"] = None
    _emit_doc(doc, args)
    return 0


# -- parser -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become one ``error:`` line and exit 1 through
    :func:`main`, rather than a usage block and exit 2, the code of a
    route disagreement."""

    def error(self, message):
        raise ValueError(f"{message} (usage: {self.prog} --help)")


def _add_common(sub, spec_positional=True, file_option=False, formats=("text", "json")):
    if spec_positional:
        sub.add_argument("spec", nargs="*", help="family spec tokens, e.g. family=ADF n=7")
    if file_option:
        sub.add_argument("--file", help="digraph file (text or JSON serialization)")
    sub.add_argument("--format", default="text", choices=formats)
    sub.add_argument("--out", help="write output to this path instead of stdout")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digraph-spectra",
        description="Exact spectra, certificates and exponents for structured digraph families",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build a family instance and print it")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("charpoly", help="characteristic polynomial by one or all routes")
    _add_common(p, file_option=True)
    p.add_argument("--method", default="exact", choices=_METHODS)
    p.set_defaults(func=cmd_charpoly)

    p = subs.add_parser("verify", help="rebuild and cross-check the family tables")
    p.add_argument("--table", default="all", choices=(*TABLE_NAMES, "all"))
    p.add_argument("--n", help="n range a..b (default: per-table sweep)")
    _add_common(p, spec_positional=False, formats=("text", "json", "csv", "md"))
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("distinct", help="distinct-eigenvalue verdict with certificate")
    _add_common(p)
    p.add_argument("--method", default="gcdQ", choices=DISTINCT_METHODS)
    p.set_defaults(func=cmd_distinct)

    p = subs.add_parser("exponent", help="primitivity, exponent and witness pair")
    _add_common(p, file_option=True)
    p.set_defaults(func=cmd_exponent)

    p = subs.add_parser("minpoly", help="minimal polynomial")
    _add_common(p, file_option=True)
    p.set_defaults(func=cmd_minpoly)

    p = subs.add_parser("nonderogatory", help="non-derogatory verdict and certificate")
    _add_common(p, file_option=True)
    p.set_defaults(func=cmd_nonderogatory)

    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
