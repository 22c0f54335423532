"""Family registry: specs, constructions, closed forms, table sweeps.

Core claims:
    - spec text and JSON forms round-trip, including Complement specs
      nested to depth 3 and to the bound MAX_SPEC_DEPTH; deeper nesting
      (1000) raises InvalidParameter, never RecursionError; malformed
      specs, unbalanced inner=( groups,
      repeated keys, wrongly typed JSON values and out-of-range
      parameters raise a ValueError subclass with a reason
    - constructed arc sets match the worked instances exactly
    - closed_form_charpoly agrees with the computed polynomial on the
      spot-checked instances and on a sweep of every family;
      complement_closed_form is closed_form_charpoly for DCc and UDWc
      and rejects n below the bound with the registry's text
    - chorded-cycle families have all non-leading coefficients <= 0
    - no family ever produces parallel non-loop arcs; loops appear only
      in the loop-derived families
    - the even fan satisfies the x * (odd fan) recursion
    - the registry's outputs (default table rows, their closed forms or
      skip reasons, tabulated exponent data for n = 3..40, validate's
      verdicts on a parameter grid) hash to a pinned SHA-256 digest
    - the README's name block lists exactly FAMILY_NAMES
"""

import hashlib
import itertools
from pathlib import Path

import pytest

from digraph_spectra import (
    FAMILY_NAMES,
    NotAnInteger,
    FamilySpec,
    IntPolynomial,
    InvalidParameter,
    TABLE_NAMES,
    build_family,
    charpoly_exact,
    closed_form_charpoly,
    complement,
    complement_closed_form,
    cyclotomic,
    expected_exponent,
    expected_no_walk_pair,
    family_spec_from_json_dict,
    parse_family_spec,
    table_specs,
)
from digraph_spectra.families import _FAMILIES, DEFAULT_RANGES, MAX_SPEC_DEPTH, validate

X = IntPolynomial.x()


def _arcs(d):
    out = set()
    for i in range(1, d.n + 1):
        for j, mult in d.successors(i):
            out.add((i, j, mult))
    return out


def _sweep(lo=3, hi=10):
    seen = set()
    for table in TABLE_NAMES:
        for spec in table_specs(table, lo, hi):
            if spec.to_text() in seen:
                continue
            seen.add(spec.to_text())
            try:
                yield spec, build_family(spec)
            except InvalidParameter:
                continue


# -- spec forms -------------------------------------------------------


class TestSpecForms:
    def test_text_round_trip(self):
        for text in [
            "family=DCn n=8",
            "family=DCn_i_kpjpi n=9 j=2",
            "family=DCn_tips n=8 tips=2,4",
            "family=Xn_loops n=6 m=4",
            "family=Yn_arcs_loops n=7 m=3 arcs=3,5",
            "family=Complement n=5 inner=(family=DCn n=5)",
        ]:
            spec = parse_family_spec(text)
            assert spec.to_text() == text
            assert parse_family_spec(spec.to_text()) == spec

    def test_json_round_trip(self):
        spec = parse_family_spec("family=Complement n=5 inner=(family=ADF n=5)")
        assert family_spec_from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize("depth", [2, 3])
    def test_nested_complement_round_trip(self, depth):
        spec = FamilySpec("DCn", 5)
        for _ in range(depth):
            spec = FamilySpec("Complement", 5, inner=spec)
        text = spec.to_text()
        assert text.count("inner=(") == depth
        assert parse_family_spec(text) == spec
        assert family_spec_from_json_dict(spec.to_json_dict()) == spec
        # a complement taken twice gives the digraph back
        expected = FamilySpec("DCn", 5) if depth % 2 == 0 else FamilySpec("DCc", 5)
        assert build_family(spec) == build_family(expected)

    def test_nesting_bound(self):
        spec = FamilySpec("DCn", 5)
        for _ in range(MAX_SPEC_DEPTH):
            spec = FamilySpec("Complement", 5, inner=spec)
        assert parse_family_spec(spec.to_text()) == spec
        assert family_spec_from_json_dict(spec.to_json_dict()) == spec
        assert build_family(spec) == build_family(FamilySpec("DCn", 5))
        text, obj = "family=DCn n=5", {"family": "DCn", "n": 5}
        for _ in range(1000):
            text = f"family=Complement n=5 inner=({text})"
            obj = {"family": "Complement", "n": 5, "inner": obj}
        with pytest.raises(InvalidParameter, match=f"nests more than {MAX_SPEC_DEPTH} inner"):
            parse_family_spec(text)
        with pytest.raises(InvalidParameter, match=f"nests more than {MAX_SPEC_DEPTH} inner"):
            family_spec_from_json_dict(obj)

    @pytest.mark.parametrize(
        "text",
        [
            "family=Complement n=5 inner=(family=DCn n=5",
            "family=Complement n=5 inner=(family=Complement n=5 inner=(family=DCn n=5)",
        ],
    )
    def test_unbalanced_inner_group(self, text):
        with pytest.raises(ValueError, match="unbalanced parentheses after inner="):
            parse_family_spec(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("family=DCn n=5 n=7", "n"),
            ("family=DCn family=ADF n=5", "family"),
            ("family=DCn_tips n=6 tips=1 tips=2", "tips"),
            (
                "family=Complement n=5 inner=(family=ADF n=5) inner=(family=DCn n=5)",
                "inner",
            ),
        ],
    )
    def test_repeated_key(self, text, key):
        with pytest.raises(ValueError, match=f"repeated spec key '{key}'"):
            parse_family_spec(text)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_family_spec("ADF(5)")
        with pytest.raises(ValueError):
            parse_family_spec("family=ADF")
        with pytest.raises(ValueError):
            parse_family_spec("family=ADF n=five")
        with pytest.raises(ValueError):
            parse_family_spec("family=ADF n=5 color=red")
        with pytest.raises(InvalidParameter):
            parse_family_spec("family=NoSuchFamily n=5")

    def test_json_unknown_key(self):
        with pytest.raises(ValueError):
            family_spec_from_json_dict({"family": "ADF", "n": 5, "extra": 1})

    @pytest.mark.parametrize(
        "obj, error, message",
        [
            ({"family": 5, "n": 5}, InvalidParameter, "key family needs a string"),
            ({"family": "ADF", "n": "5"}, NotAnInteger, "key n must be an integer"),
            ({"family": "ADF", "n": True}, NotAnInteger, "key n must be an integer"),
            ({"family": "DCn_i_kpjpi", "n": 9, "j": 2.0}, NotAnInteger, "key j"),
            ({"family": "Xn_loops", "n": 6, "m": "4"}, NotAnInteger, "key m"),
            ({"family": "DCn_tips", "n": 8, "tips": 5}, InvalidParameter, "key tips needs a list"),
            ({"family": "DCn_tips", "n": 8, "tips": ["a", 1]}, NotAnInteger, "key tips entry"),
            (
                {"family": "Yn_arcs_loops", "n": 7, "m": 3, "arcs": "3,5"},
                InvalidParameter,
                "key arcs needs a list",
            ),
            (
                {"family": "Yn_arcs_loops", "n": 7, "m": 3, "arcs": [3, None]},
                NotAnInteger,
                "key arcs entry",
            ),
            (
                {"family": "Complement", "n": 5, "inner": "family=DCn n=5"},
                InvalidParameter,
                "key inner needs a JSON object",
            ),
            (
                {"family": "Complement", "n": 5, "inner": {"family": "DCn", "n": "5"}},
                NotAnInteger,
                "key n",
            ),
        ],
    )
    def test_json_value_types(self, obj, error, message):
        with pytest.raises(error, match=message):
            family_spec_from_json_dict(obj)

    def test_registry_names(self):
        assert "DCn" in FAMILY_NAMES and "Complement" in FAMILY_NAMES
        assert set(DEFAULT_RANGES) == set(TABLE_NAMES)

    def test_readme_lists_the_registered_names(self):
        """The README's name block, one group per line with its label
        after a wide gap, lists exactly FAMILY_NAMES in order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("The registered names:\n\n```\n", 1)[1].split("```", 1)[0]
        names = [name for line in block.splitlines() for name in line.split("  ")[0].split()]
        assert tuple(names) == FAMILY_NAMES


class TestValidation:
    @pytest.mark.parametrize(
        "text",
        [
            "family=DCn n=2",
            "family=UDW n=3",
            "family=ADW n=3",
            "family=DCc n=4",
            "family=Zn_loop n=5 j=7",
            "family=Zn_loop n=5 j=1",
            "family=DCn_i_kpjpi n=9 j=9",
            "family=DCn_tips n=8 tips=7",
            "family=DCn_m n=9 m=9",
            "family=Yn_arcs_loops n=7 m=2 arcs=3,5",
        ],
    )
    def test_out_of_range_parameters(self, text):
        with pytest.raises(InvalidParameter):
            build_family(parse_family_spec(text))

    def test_missing_parameter(self):
        with pytest.raises(InvalidParameter):
            build_family(FamilySpec("Zn_loop", 5))

    def test_complement_rejects_extra_parameters(self):
        inner = FamilySpec("DCn", 5)
        with pytest.raises(InvalidParameter):
            build_family(FamilySpec("Complement", 5, j=2, inner=inner))

    def test_complement_needs_matching_n(self):
        inner = FamilySpec("DCn", 5)
        with pytest.raises(InvalidParameter):
            build_family(FamilySpec("Complement", 6, inner=inner))


# -- worked constructions ---------------------------------------------


class TestConstructions:
    def test_chorded_cycle_octagon(self):
        d = build_family(FamilySpec("DCn_i_nmi", 8))
        cycle = {(i, i % 8 + 1, 1) for i in range(1, 9)}
        chords = {(1, 7, 1), (2, 6, 1), (3, 5, 1)}
        assert _arcs(d) == cycle | chords

    def test_tipped_cycle(self):
        d = build_family(FamilySpec("DCn_tips", 8, tips=(2, 4)))
        cycle = {(i, i % 8 + 1, 1) for i in range(1, 9)}
        assert _arcs(d) == cycle | {(8, 3, 1), (8, 5, 1)}

    def test_alternating_fan_five(self):
        d = build_family(FamilySpec("ADF", 5))
        path = {(2, 3, 1), (3, 4, 1), (4, 5, 1)}
        spokes = {(1, 2, 1), (1, 4, 1), (3, 1, 1), (5, 1, 1)}
        assert _arcs(d) == path | spokes

    def test_unidirectional_wheel_four(self):
        d = build_family(FamilySpec("UDW", 4))
        rim = {(1, 2, 1), (2, 3, 1), (3, 1, 1)}
        spokes = {(4, 1, 1), (4, 2, 1), (4, 3, 1)}
        assert _arcs(d) == rim | spokes

    def test_full_fan_has_hub_loop(self):
        d = build_family(FamilySpec("PDF", 5))
        assert d.multiplicity(1, 1) == 1
        assert d.has_arc(5, 1)
        assert d.has_arc(1, 5)

    def test_loop_families_carry_multiplicities(self):
        d = build_family(FamilySpec("Xn_loops", 6, m=4))
        assert d.multiplicity(1, 1) == 1 + 3  # hub loop plus m-1 extras

    def test_complement_family_equals_generic_complement(self):
        direct = build_family(FamilySpec("DCc", 7))
        generic = build_family(
            FamilySpec("Complement", 7, inner=FamilySpec("DCn", 7))
        )
        assert direct == generic
        assert direct == complement(build_family(FamilySpec("DCn", 7)))


# -- closed forms -----------------------------------------------------


class TestClosedForms:
    def test_worked_example(self):
        spec = FamilySpec("DCn_i_nmi", 8)
        assert str(closed_form_charpoly(spec)) == "x^8 - x^5 - x^3 - x - 1"

    def test_loop_on_cycle(self):
        spec = FamilySpec("Zn_loop", 5, j=3)
        assert str(closed_form_charpoly(spec)) == "x^5 - 2x^4 - 1"

    def test_odd_fan(self):
        assert str(closed_form_charpoly(FamilySpec("ADF", 5))) == "x^5 - 2x^2 - 1"

    def test_wheel(self):
        assert str(closed_form_charpoly(FamilySpec("UDW", 4))) == "x^4 - x"

    def test_closed_forms_match_computation_on_sweep(self):
        checked = 0
        for spec, graph in _sweep(3, 10):
            if spec.family == "Complement":
                continue
            assert closed_form_charpoly(spec) == charpoly_exact(graph), spec.to_text()
            checked += 1
        assert checked > 80

    def test_even_fan_recursion(self):
        for n in (6, 8, 10, 12):
            even = closed_form_charpoly(FamilySpec("ADF", n))
            odd = closed_form_charpoly(FamilySpec("ADF", n - 1))
            assert even == odd.shift(1)

    def test_cycle_complement_odd(self):
        # (x - (n-2)) * prod_{d | n, d > 1} Phi_d(-(x+1)) at n = 5
        formula = (X - IntPolynomial.constant(3)) * cyclotomic(5).substitute_linear(-1, -1)
        assert complement_closed_form("DCc", 5) == formula
        computed = charpoly_exact(build_family(FamilySpec("DCc", 5)))
        assert computed == formula

    def test_cycle_complement_even(self):
        # x (x - (n-2)) prod of the remaining cyclotomic substitutions, n = 6
        formula = X * (X - IntPolynomial.constant(4))
        for d in (3, 6):
            formula = formula * cyclotomic(d).substitute_linear(-1, -1)
        assert complement_closed_form("DCc", 6) == formula
        assert charpoly_exact(build_family(FamilySpec("DCc", 6))) == formula

    def test_wheel_complement_sweep(self):
        for n in range(4, 11):
            computed = charpoly_exact(build_family(FamilySpec("UDWc", n)))
            assert computed == complement_closed_form("UDWc", n), n

    def test_complement_closed_form_bad_kind(self):
        with pytest.raises(ValueError):
            complement_closed_form("ADFc", 6)

    def test_complement_closed_form_n_bound_is_the_registry_text(self):
        with pytest.raises(InvalidParameter, match=r"^DCc needs n >= 5, got n=4$"):
            complement_closed_form("DCc", 4)
        for kind, n in (("DCc", 7), ("UDWc", 9)):
            assert complement_closed_form(kind, n) == closed_form_charpoly(FamilySpec(kind, n))


# -- structural invariants --------------------------------------------


class TestStructuralInvariants:
    def test_no_parallel_non_loop_arcs(self):
        loop_families = {"ADF_loops", "Xn_loops", "Yn_arcs_loops", "Zn_loop", "PDF"}
        for spec, graph in _sweep(3, 10):
            for i in range(1, graph.n + 1):
                for j, mult in graph.successors(i):
                    if i != j:
                        assert mult == 1, spec.to_text()
                    elif spec.family not in loop_families and spec.family != "Complement":
                        assert mult == 0, spec.to_text()

    def test_loop_multiplicity_above_one_only_in_loop_derived(self):
        multi = {"Xn_loops", "Yn_arcs_loops", "ADF_loops"}
        for spec, graph in _sweep(3, 10):
            for v in range(1, graph.n + 1):
                if graph.multiplicity(v, v) > 1:
                    assert spec.family in multi, spec.to_text()

    def test_chorded_cycles_have_nonpositive_coefficients(self):
        chord_families = ("DCn_i_nmi", "DCn_i_kmi", "DCn_i_kpjpi", "DCn_tips", "DCn_m")
        for spec in table_specs("cdc", 3, 12):
            if spec.family not in chord_families:
                continue
            try:
                graph = build_family(spec)
            except InvalidParameter:
                continue
            psi = charpoly_exact(graph)
            assert all(c <= 0 for c in psi.coeffs[:-1]), spec.to_text()

    def test_table_specs_unknown_table(self):
        with pytest.raises(ValueError):
            table_specs("nope", 3, 5)

    def test_exponent_table_has_complement_rows(self):
        families = {s.family for s in table_specs("exponents", 10, 12)}
        assert "DCc" in families and "PDF" in families


# -- registry pin -----------------------------------------------------

_PIN_GRID = {
    "j": (None, 0, 1, 3, 9),
    "m": (None, 0, 1, 3, 4),
    "tips": (None, (), (2, 4), (1, 1), (8,)),
    "arcs": (None, (), (2, 4), (3, 3), (1,)),
}
_PIN_INNERS = (
    None,
    FamilySpec("DCn", 5),
    FamilySpec("DCn", 6),
    FamilySpec("UDW", 3),
    FamilySpec("Complement", 5, inner=FamilySpec("ADF", 5)),
)
_REGISTRY_DIGEST = "7663a3e93625a39b01f2b810bcdb9ea245ad712d11cd44e0d9a74cd2ab044ddf"


def _verdict(check, spec) -> str:
    try:
        out = check(spec)
    except InvalidParameter as err:
        return f"reject: {err}"
    return "accept" if out is None else str(out)


def _registry_listing() -> list[str]:
    """Every output the family registry determines: the default table
    rows, their closed forms (or skip reasons), the tabulated exponent
    data for n = 3..40 and validate's verdict on a parameter grid."""
    lines = []
    specs = []
    for table in TABLE_NAMES:
        for spec in table_specs(table, *DEFAULT_RANGES[table]):
            lines.append(f"{table}|{spec.to_text()}")
            specs.append(spec)
    for spec in specs:
        lines.append(f"closed|{spec.to_text()}|{_verdict(closed_form_charpoly, spec)}")
    for family in FAMILY_NAMES:
        for n in range(3, 41):
            lines.append(
                f"exp|{family}|{n}|{expected_exponent(family, n)}"
                f"|{expected_no_walk_pair(family, n)}"
            )
    for family in FAMILY_NAMES + ("Nope",):
        for n in (1, 2, 3, 4, 5, 6, 9):
            for j, m, tips, arcs in itertools.product(*_PIN_GRID.values()):
                spec = FamilySpec(family, n, j=j, m=m, tips=tips, arcs=arcs)
                lines.append(f"valid|{spec!r}|{_verdict(validate, spec)}")
            for inner, j in itertools.product(_PIN_INNERS, (None, 1)):
                spec = FamilySpec(family, n, j=j, inner=inner)
                lines.append(f"valid|{spec!r}|{_verdict(validate, spec)}")
    return lines


class TestRegistryPin:
    def test_listing_digest(self):
        """The registry's outputs hash to the value captured before the
        per-family dispatch became one registry; on a mismatch the
        listing is printed for a diff against that revision."""
        lines = _registry_listing()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        if digest != _REGISTRY_DIGEST:
            print("\n".join(lines))
        assert sum(line.count("|") == 1 for line in lines) == 589
        assert digest == _REGISTRY_DIGEST

    def test_records_name_only_report_tables(self):
        """A table misspelt in a record would drop its rows silently."""
        named = {table for family in _FAMILIES.values() for table in family.tables}
        assert named == set(TABLE_NAMES)
