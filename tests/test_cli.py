"""Command-line interface.

Core claims:
    - every subcommand produces the worked outputs with exit code 0
    - nested Complement specs parse; invalid specs (an unbalanced
      inner=( group, a repeated key and 1000 nested inner=( groups among
      them), parameters and files exit 1 with an error line;
      malformed and deeply nested digraph files, empty, reversed or
      non-integer --n ranges and a nonpositive DIGRAPH_SPECTRA_CAP exit 1
      with one error line and no traceback
    - usage errors (unknown subcommand, option or choice, a --format the
      subcommand does not offer, a leftover --cap) return 1 from main
      with one error line, not argparse's exit 2; --help exits 0
    - charpoly runs every route it is asked for at any n; only verify
      rows above DIGRAPH_SPECTRA_CAP (default 20, the largest n of the
      default tables) skip the second route
    - charpoly --method=all on a Complement spec reports a null closed
      form; --method=closed-form on it exits 1 with one error line
    - a route disagreement exits 2 and names the first differing
      coefficient; agreeing output carries no such line or key
    - JSON output is deterministic, byte for byte
    - bad input is checked through cli.main in this interpreter; module
      invocation, the no-argument usage and a deeply nested digraph file
      also run as python -m digraph_spectra in a fresh one
    - --file accepts both serializations, --out writes instead of
      printing, --n parses a..b ranges
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from subprocess import CompletedProcess

import pytest

from conftest import run_python
from digraph_spectra import IntPolynomial, cli
from digraph_spectra.cli import main

WORKED = "x^8 - x^5 - x^3 - x - 1"


def run_process(*argv):
    """The CLI in a fresh interpreter that imports this package."""
    return run_python("-m", "digraph_spectra", *argv)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_in_process(*argv):
    """``cli.main(argv)`` in this interpreter, shaped like a finished
    process: main returns its exit code and never exits."""
    return CompletedProcess(argv, *run_cli(*argv))


# -- build ------------------------------------------------------------


class TestBuild:
    def test_fan_json_arcs(self):
        rc, out, _ = run_cli("build", "family=ADF", "n=5", "--format=json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["n"] == 5
        arcs = {(i, j) for i, j, _ in doc["arcs"]}
        assert arcs == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (3, 1), (5, 1)}

    def test_triangle_text(self):
        rc, out, _ = run_cli("build", "family=DCn", "n=3")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "3"
        assert set(lines[1:]) == {"1 2", "2 3", "3 1"}

    def test_invalid_parameter_exits_1(self):
        rc, out, err = run_cli("build", "family=Zn_loop", "n=5", "j=7")
        assert rc == 1
        assert out == ""
        assert "j" in err

    def test_unknown_family_exits_1(self):
        rc, _, err = run_cli("build", "family=Wat", "n=5")
        assert rc == 1 and "family" in err

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "g.json"
        rc, out, _ = run_cli(
            "build", "family=DCn", "n=4", "--format=json", f"--out={target}"
        )
        assert rc == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4


# -- charpoly ---------------------------------------------------------


class TestCharpoly:
    def test_all_methods_agree(self):
        rc, out, _ = run_cli("charpoly", "family=DCn_i_nmi", "n=8", "--method=all")
        assert rc == 0
        assert out.count(WORKED) == 3
        assert "'exact_ldsg': True" in out
        assert "first difference" not in out
        rc, out, _ = run_cli(
            "charpoly", "family=DCn_i_nmi", "n=8", "--method=all", "--format=json"
        )
        assert rc == 0 and "first_difference" not in json.loads(out)

    def test_disagreement_names_first_difference(self, monkeypatch):
        real = cli.charpoly_ldsg

        def perturbed(d):
            coeffs = real(d).to_coeff_list()
            coeffs[1] += 2
            coeffs[3] += 7  # the highest differing degree is named
            return IntPolynomial(coeffs)

        monkeypatch.setattr(cli, "charpoly_ldsg", perturbed)
        argv = ("charpoly", "family=DCn_i_nmi", "n=8", "--method=all")
        rc, out, _ = run_cli(*argv)
        assert rc == 2
        assert out.splitlines()[-1] == "first difference: x^3 exact=-1 ldsg=6"
        rc, out, _ = run_cli(*argv, "--format=json")
        assert rc == 2
        assert json.loads(out)["first_difference"] == {"degree": 3, "exact": -1, "ldsg": 6}

    def test_all_methods_on_complement_spec(self):
        argv = ("charpoly", "family=Complement", "n=6", "inner=(family=DCn n=6)")
        rc, out, err = run_cli(*argv, "--method=all")
        assert rc == 0 and err == ""
        assert "closed_form: (skipped)" in out
        assert "'exact_ldsg': True, 'exact_closed_form': None" in out
        rc, out, _ = run_cli(*argv, "--method=all", "--format=json")
        doc = json.loads(out)
        assert rc == 0 and doc["results"]["closed_form"] is None
        assert doc["results"]["exact"] == doc["results"]["ldsg"]
        assert "closed_form" not in doc["coeffs"]

    def test_closed_form_method_on_complement_spec_exits_1(self):
        argv = ("charpoly", "family=Complement", "n=6", "inner=(family=DCn n=6)")
        rc, out, err = run_cli(*argv, "--method=closed-form")
        assert rc == 1 and out == ""
        assert err == "error: no closed form for family 'Complement'\n"

    def test_exact_only(self):
        rc, out, _ = run_cli("charpoly", "family=UDW", "n=4", "--method=exact")
        assert rc == 0
        assert "x^4 - x" in out

    def test_from_text_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n1 2\n2 3\n3 1\n")
        rc, out, _ = run_cli("charpoly", f"--file={path}", "--method=exact")
        assert rc == 0 and "x^3 - 1" in out

    def test_from_json_file(self, tmp_path):
        rc, built, _ = run_cli("build", "family=DCn", "n=4", "--format=json")
        path = tmp_path / "g.json"
        path.write_text(built)
        rc, out, _ = run_cli("charpoly", f"--file={path}", "--method=exact")
        assert rc == 0 and "x^4 - 1" in out

    def test_all_routes_above_the_verify_cap(self):
        rc, out, err = run_cli("charpoly", "family=DCc", "n=20", "--method=all")
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("exact: x^20 - 170x^18")
        assert lines[1] == "ldsg: " + lines[0][len("exact: "):]
        assert "'exact_ldsg': True" in lines[-1]

    def test_missing_file_exits_1(self):
        rc, _, err = run_cli("charpoly", "--file=/no/such/file")
        assert rc == 1 and err


# -- verify -----------------------------------------------------------


class TestVerify:
    def test_single_row_table(self):
        rc, out, _ = run_cli("verify", "--table=cdc", "--n=8..8", "--format=json")
        assert rc == 0
        doc = json.loads(out)
        worked = [r for r in doc["rows"] if r["family"] == "DCn_i_nmi"]
        assert worked[0]["charpoly_match"] is True
        assert doc["summary"]["hard_failures"] == 0

    def test_degenerate_range_produces_skips(self):
        rc, out, _ = run_cli("verify", "--table=all", "--n=3..5", "--format=json")
        assert rc == 0
        doc = json.loads(out)
        assert any(r["skipped"] for r in doc["rows"])

    def test_deterministic_bytes(self):
        a = run_cli("verify", "--table=cdf", "--n=4..6", "--format=json")
        b = run_cli("verify", "--table=cdf", "--n=4..6", "--format=json")
        assert a == b

    def test_cap_env_lowers_dual_checked_rows(self, monkeypatch):
        def ldsg_checked():
            rc, out, _ = run_cli("verify", "--table=cdf", "--format=json")
            assert rc == 0
            return json.loads(out)["summary"]["ldsg_checked"]

        default = ldsg_checked()
        monkeypatch.setenv("DIGRAPH_SPECTRA_CAP", "4")
        assert 0 < ldsg_checked() < default

    def test_markdown_format(self):
        rc, out, _ = run_cli("verify", "--table=cdw", "--n=5..6", "--format=md")
        assert rc == 0 and out.startswith("|")

    def test_single_number_is_a_point_range(self):
        rc, out, _ = run_cli("verify", "--table=cdc", "--n=8", "--format=json")
        assert rc == 0
        assert {r["n"] for r in json.loads(out)["rows"]} == {8}

    def test_bad_range_exits_1(self):
        rc, _, err = run_cli("verify", "--table=cdc", "--n=a..z")
        assert rc == 1 and err


# -- distinct ---------------------------------------------------------


class TestDistinct:
    def test_gcd_q(self):
        rc, out, _ = run_cli(
            "distinct", "family=DCn_m", "n=8", "m=5", "--method=gcdQ", "--format=json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] is True and doc["gcd"] == "1"

    def test_gcd_f2(self):
        rc, out, _ = run_cli("distinct", "family=ADF", "n=7", "--method=gcdF2")
        assert rc == 0 and "verdict: True" in out

    def test_cyclotomic(self):
        rc, out, _ = run_cli(
            "distinct", "family=ADW", "n=11", "--method=cyclotomic", "--format=json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["cubic"] == "x^3 - x - 5" and doc["remainder_zero"] is True

    def test_wrong_family_for_method_exits_1(self):
        rc, _, err = run_cli("distinct", "family=PDF", "n=5", "--method=cyclotomic")
        assert rc == 1 and "ADW" in err


# -- exponent / minpoly / nonderogatory -------------------------------


class TestAnalysis:
    def test_exponent(self):
        rc, out, _ = run_cli("exponent", "family=ADF", "n=7")
        assert rc == 0
        assert "exponent: 9" in out

    def test_exponent_json(self):
        rc, out, _ = run_cli("exponent", "family=ADF", "n=7", "--format=json")
        doc = json.loads(out)
        assert doc["exponent"] == 9 and doc["primitive"] is True

    def test_minpoly_degree_drop(self):
        rc, out, _ = run_cli("minpoly", "family=UDWc", "n=9", "--format=json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["degree"] == 8 and doc["non_derogatory"] is False

    def test_nonderogatory_false_still_exit_0(self):
        rc, out, _ = run_cli("nonderogatory", "family=UDWc", "n=9")
        assert rc == 0
        assert "non_derogatory: False" in out

    def test_minpoly_of_nested_complement(self):
        inner = "inner=(family=Complement n=5 inner=(family=DCn n=5))"
        rc, out, _ = run_cli("minpoly", "family=Complement", "n=5", *inner.split())
        assert rc == 0
        assert f"source: family=Complement n=5 {inner}" in out
        assert "min_poly: x^5 - 1" in out

    def test_nonderogatory_with_certificate(self):
        rc, out, _ = run_cli("nonderogatory", "family=DCn", "n=5", "--format=json")
        doc = json.loads(out)
        assert doc["non_derogatory"] is True
        assert doc["certificate"] is not None


# -- process-level smoke ----------------------------------------------


class TestProcess:
    def test_module_invocation(self):
        proc = run_process("charpoly", "family=DCn", "n=5")
        assert proc.returncode == 0
        assert "x^5 - 1" in proc.stdout

    def test_no_arguments_shows_usage(self):
        proc = run_process()
        assert proc.returncode != 0
        assert "usage" in (proc.stderr + proc.stdout).lower()

    def test_deeply_nested_json_digraph(self, tmp_path):
        """The interpreter's own recursion limit and stack, not pytest's."""
        path = tmp_path / "deep.json"
        path.write_text('{"n": 3, "arcs": ' + "[" * 100000)
        proc = run_process("charpoly", f"--file={path}")
        TestBadInput._assert_one_line_error(proc, "nests too deeply")


class TestBadInput:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n": 3, "arcs": [[1, 2, "x"], [2, 3], [3, 1]]}, "must be an integer"),
            ({"n": 3.0, "arcs": [[1, 2], [2, 3], [3, 1]]}, "vertex count"),
            ({"n": True, "arcs": []}, "vertex count"),
            ({"n": 3, "arcs": [[1, 2], 5]}, "arc entries"),
            ({"n": 3, "arcs": 5}, "must be a list"),
        ],
    )
    def test_malformed_json_digraph(self, tmp_path, doc, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        self._assert_one_line_error(run_in_process("charpoly", f"--file={path}"), message)

    def test_unbalanced_inner_spec(self):
        proc = run_in_process("minpoly", "family=Complement", "n=5", "inner=(family=DCn", "n=5")
        self._assert_one_line_error(proc, "unbalanced parentheses after inner=(")

    def test_repeated_spec_key(self):
        proc = run_in_process("charpoly", "family=DCn", "n=5", "n=7")
        self._assert_one_line_error(proc, "repeated spec key 'n'")

    def test_deeply_nested_spec(self):
        spec = "family=Complement n=3"
        for _ in range(1000):
            spec = f"family=Complement n=3 inner=({spec})"
        self._assert_one_line_error(
            run_in_process("build", *spec.split(" ", 2)), "nests more than"
        )

    def test_deeply_nested_json_digraph(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 3, "arcs": ' + "[" * 100000)
        self._assert_one_line_error(
            run_in_process("charpoly", f"--file={path}"), "nests too deeply"
        )

    @pytest.mark.parametrize("n_range", ["9..5", "0..3", "-2"])
    def test_empty_or_nonpositive_n_range(self, n_range):
        proc = run_in_process("verify", "--table=cdf", f"--n={n_range}")
        self._assert_one_line_error(proc, "--n range")

    @pytest.mark.parametrize("n_range", ["", "3..x", "..4"])
    def test_malformed_n_range(self, n_range):
        proc = run_in_process("verify", "--table=cdf", f"--n={n_range}")
        self._assert_one_line_error(
            proc, f"--n range must be n or lo..hi with integers, got {n_range!r}"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--cap=abc"), "unrecognized arguments: --cap=abc"),
            (("verify", "--table=nope"), "argument --table: invalid choice: 'nope'"),
            (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
            (("verify", "--table=cdc", "--cap=5"), "unrecognized arguments: --cap=5"),
            (
                ("charpoly", "family=DCn", "n=4", "--method=all", "--cap=5"),
                "unrecognized arguments: --cap=5",
            ),
            (("build", "family=DCn", "n=4", "--format=csv"), "argument --format: invalid choice"),
        ],
        ids=[
            "cap-abc",
            "unknown-table",
            "unknown-subcommand",
            "leftover-cap-verify",
            "leftover-cap-charpoly",
            "build-csv",
        ],
    )
    def test_usage_error_returns_1(self, argv, message):
        proc = run_in_process(*argv)
        self._assert_one_line_error(proc, message)
        assert "usage" in proc.stderr

    def test_help_still_exits_0(self):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify", "--help")
        assert exit_info.value.code == 0

    @pytest.mark.parametrize("command", [("verify", "--table=cdc", "--n=5..5")])
    def test_nonpositive_cap_env(self, monkeypatch, command):
        monkeypatch.setenv("DIGRAPH_SPECTRA_CAP", "-1")
        proc = run_in_process(*command)
        self._assert_one_line_error(proc, "DIGRAPH_SPECTRA_CAP must be at least 1")

    @staticmethod
    def _assert_one_line_error(proc, message):
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert message in proc.stderr
