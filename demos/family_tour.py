#!/usr/bin/env python3
"""Quick tour: build one member of each registered digraph family and
compare the computed characteristic polynomial against the shipped
closed form."""

import json

from digraph_spectra import (
    FAMILY_NAMES,
    TABLE_NAMES,
    FamilySpec,
    InvalidParameter,
    build_family,
    charpoly_exact,
    closed_form_charpoly,
    family_spec_from_json_dict,
    has_closed_form,
    parse_family_spec,
    table_specs,
)
from digraph_spectra.families import DEFAULT_RANGES

# each family's first valid row of the verification tables; Complement
# wraps any inner spec, so it has no table rows and gets one here
picks = {"Complement": parse_family_spec("family=Complement n=6 inner=(family=DCn n=6)")}
for table in TABLE_NAMES:
    for spec in table_specs(table, *DEFAULT_RANGES[table]):
        if spec.family in picks:
            continue
        try:
            build_family(spec)
        except InvalidParameter:
            continue  # e.g. RADW at even n
        picks[spec.family] = spec

for name in FAMILY_NAMES:
    spec = picks[name]
    d = build_family(spec)
    phi = charpoly_exact(d)
    if has_closed_form(name):
        tag = "closed form ok" if closed_form_charpoly(spec) == phi else "CLOSED FORM MISMATCH"
    else:
        tag = "no closed form"
    print(f"{spec.to_text():48s} n={d.n:2d}  {str(phi):36s} {tag}")

# specs round trip through text and json untouched
spec = parse_family_spec("family=DCn_m n=10 m=4")
assert parse_family_spec(spec.to_text()) == spec
assert family_spec_from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec
print()
print("round trips:", spec.to_text(), "|", json.dumps(spec.to_json_dict()))

# out-of-range parameters are rejected up front, not at build time
try:
    build_family(FamilySpec("DCn_m", 6, m=9))
except InvalidParameter as exc:
    print("rejected:", exc)

print()
print("registered families:", " ".join(FAMILY_NAMES))
