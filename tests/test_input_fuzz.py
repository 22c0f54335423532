"""Fuzzing the input boundary: spec texts, spec JSON objects, digraph
text and JSON files, and the CLI commands that read them.

Core claims:
    - parse_family_spec, family_spec_from_json_dict, from_text and
      from_json either return or raise a ValueError subclass, on spec
      texts built from the spec alphabet, on arbitrary JSON values and
      on digraph texts and JSON documents
    - ``build`` on a spec text and ``charpoly --file`` on a digraph file
      exit 0 or 1; on 1 stdout is empty and stderr is exactly one
      ``error:`` line
    - every generated spec s round-trips through both forms:
      parse_family_spec(s.to_text()) == family_spec_from_json_dict(
      s.to_json_dict()) == s

Examples are derandomized and few, and every number is small, so no
example builds a large digraph.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_spectra import (
    FAMILY_NAMES,
    FamilySpec,
    cli,
    family_spec_from_json_dict,
    parse_family_spec,
)
from digraph_spectra import digraph as dg

fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=50)

_SPEC_KEYS = ("family", "n", "j", "m", "tips", "arcs", "inner")
_numbers = st.integers(0, 99).map(str)
_small = st.integers(0, 12)

# Spec texts from the spec alphabet alone: keys, '=', numbers of at
# most two digits, commas, parentheses, 'inner=(' and spaces.
alphabet_texts = st.lists(
    st.sampled_from([*_SPEC_KEYS, "=", ",", "(", ")", "inner=(", " ", " "]) | _numbers,
    max_size=24,
).map("".join)

# Spec texts as key=value tokens, each value mostly of the key's kind,
# with nested inner=(...) groups, so that many of them are valid specs.
_values = {
    "family": st.sampled_from(FAMILY_NAMES),
    "n": _small.map(str),
    "j": _small.map(str),
    "m": _small.map(str),
    "tips": st.lists(_small.map(str), max_size=3).map(",".join),
    "arcs": st.lists(_small.map(str), max_size=3).map(",".join),
    "inner": st.sampled_from(FAMILY_NAMES),
}
_junk = st.sampled_from(["", ",", "(", "x", "=1", *_values])


def _tokens(keys, junk_share):
    """key=value tokens over keys; about junk_share of the values are
    junk, the rest of the key's kind."""
    return st.tuples(st.sampled_from(keys), st.floats(0, 1)).flatmap(
        lambda t: (_junk if t[1] < junk_share else _values[t[0]]).map(lambda v: f"{t[0]}={v}")
    )


_token_texts = st.tuples(
    st.sampled_from(FAMILY_NAMES),
    _small,
    st.lists(_tokens(("j", "m", "tips", "arcs"), 0.1), max_size=2, unique_by=lambda t: t.split("=")[0]),
).map(lambda t: " ".join([f"family={t[0]}", f"n={t[1]}", *t[2]])) | st.lists(
    _tokens(_SPEC_KEYS, 0.5), max_size=4
).map(" ".join)
spec_texts = alphabet_texts | st.recursive(
    _token_texts,
    lambda inner: st.tuples(_token_texts, inner).map(lambda t: f"{t[0]} inner=({t[1]})"),
    max_leaves=3,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from(["", "x", "1", *FAMILY_NAMES]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from([*_SPEC_KEYS, "x"]), children, max_size=4),
    max_leaves=8,
)

# Spec objects with the required keys and some optional ones, each
# value mostly of the key's kind.
_small_lists = st.lists(_small, max_size=3)
spec_objects = json_values | st.recursive(
    st.fixed_dictionaries(
        {"family": st.sampled_from(FAMILY_NAMES), "n": _small | json_values},
        optional={"j": _small, "m": _small, "tips": _small_lists, "arcs": _small_lists, "x": _small},
    ),
    lambda inner: st.fixed_dictionaries(
        {"family": st.sampled_from(FAMILY_NAMES), "n": _small, "inner": inner | json_values}
    ),
    max_leaves=3,
)

specs = st.recursive(
    st.builds(
        FamilySpec,
        family=st.sampled_from(FAMILY_NAMES),
        n=st.integers(-3, 99),
        j=st.none() | st.integers(-3, 99),
        m=st.none() | st.integers(-3, 99),
        tips=st.none() | _small_lists.map(lambda v: tuple(sorted(v))),
        arcs=st.none() | _small_lists.map(lambda v: tuple(sorted(v))),
    ),
    lambda inner: st.builds(
        FamilySpec, family=st.sampled_from(FAMILY_NAMES), n=st.integers(1, 9), inner=inner
    ),
    max_leaves=4,
)

# Digraph texts: a vertex count line, then arc lines, mostly of small
# in-range integers and now and then malformed.
_junk_line = st.lists(st.sampled_from(["0", "-1", "x", "2.5", "7"]), max_size=4).map(" ".join)
digraph_texts = st.tuples(
    st.integers(1, 6).map(str) | _junk_line,
    st.lists(st.lists(st.integers(1, 6).map(str), min_size=2, max_size=3).map(" ".join) | _junk_line, max_size=8),
).map(lambda t: "\n".join([t[0], *t[1]]))

_arc_entries = st.lists(st.integers(0, 6), min_size=2, max_size=3) | json_values
digraph_docs = json_values | st.fixed_dictionaries(
    {"n": st.integers(1, 6) | json_values, "arcs": st.lists(_arc_entries, max_size=8) | json_values}
)


def _returns_or_value_error(parse, value):
    try:
        parse(value)
    except ValueError:
        pass


def _assert_exit_0_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1), (argv, rc)
    if rc == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


@pytest.fixture(scope="module")
def digraph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g"


class TestSpecInput:
    @fuzz
    @given(spec_texts)
    def test_parse_family_spec(self, text):
        _returns_or_value_error(parse_family_spec, text)

    @fuzz
    @given(spec_objects)
    def test_family_spec_from_json_dict(self, obj):
        _returns_or_value_error(family_spec_from_json_dict, obj)

    @fuzz
    @given(spec_texts)
    def test_build_command(self, text):
        _assert_exit_0_or_one_error_line(["build", *text.split()])

    @fuzz
    @given(specs)
    def test_both_forms_round_trip(self, spec):
        assert parse_family_spec(spec.to_text()) == spec
        assert family_spec_from_json_dict(spec.to_json_dict()) == spec


class TestDigraphInput:
    @fuzz
    @given(digraph_texts)
    def test_from_text(self, text):
        _returns_or_value_error(dg.from_text, text)

    @fuzz
    @given(digraph_docs)
    def test_from_json(self, doc):
        _returns_or_value_error(dg.from_json, json.dumps(doc))

    @fuzz
    @given(digraph_texts | digraph_docs.map(json.dumps))
    def test_charpoly_file_command(self, digraph_file, content):
        digraph_file.write_text(content)
        _assert_exit_0_or_one_error_line(["charpoly", f"--file={digraph_file}"])
