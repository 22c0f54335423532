"""Coefficient tests for irreducibility over Q, checked against brute
factor search.

Two cheap certificates apply to many of the family polynomials.  The
dominant-coefficient test: for monic x^n + a_1 x^(n-1) + ... + a_n,
irreducibility follows when |a_1| > 1 + |a_2| + ... + |a_n| (one root
swallows the others, so no proper factor can balance).  The form tests:
all-negative weakly decreasing coefficients (form F), or an odd-degree
alternating gap pattern (form G).  find_monic_factor() is the ground
truth: a complete search for low-degree monic factors, exponential in
the degree bound, that interpolates every divisor tuple of f's values
from one Lagrange basis per degree and trial-divides only the
candidates whose values divide f's at two further points.
"""

from digraph_spectra import (
    FamilySpec,
    IntPolynomial,
    brauer_form,
    build_family,
    charpoly_exact,
    closed_form_charpoly,
    find_monic_factor,
    parse_family_spec,
    perron_irreducible,
    perron_margin,
)

# hub loop multiplicity m pushes |a_1| past the rest of the coefficients
for m in (1, 4, 9):
    spec = parse_family_spec(f"family=Xn_loops n=7 m={m}")
    phi = charpoly_exact(build_family(spec))
    lhs, rhs = perron_margin(phi)
    print(
        f"{spec.to_text():28s} {str(phi):42s} margin {lhs} > {rhs}? "
        f"{perron_irreducible(phi)}"
    )
print()

# every full-fan polynomial is form F: x^n - x^(n-1) - ... - 1
for n in (5, 8, 11):
    phi = closed_form_charpoly(FamilySpec("PDF", n))
    print(f"PDF n={n:2d}: {str(phi):44s} {brauer_form(phi).name}")

# the 2-chord cycle x^9 - 2x^5 - 1 fits neither pattern, and with
# cause: x = -1 is a root.  The complete search exhibits the factor.
# (Had it returned None, irreducibility would follow: a factorization
# of a degree-9 polynomial always has a side of degree <= 4.)
phi = closed_form_charpoly(parse_family_spec("family=DCn_i_kpjpi n=9 j=2"))
print(f"\n{phi}: {brauer_form(phi).name}, perron {perron_irreducible(phi)}")
print("monic factor of degree <= 4:", find_monic_factor(phi, 4))
assert phi(-1) == 0

# sanity: the search does find factors when they exist
x = IntPolynomial.x()
reducible = (x**2 - 2) * (x**3 - x - 1)
print(f"{reducible} has factor:", find_monic_factor(reducible, 2))
