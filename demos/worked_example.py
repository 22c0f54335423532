"""
The octagon with three chords, coefficient by coefficient
=========================================================

Builds the 8-cycle with chords 1->7, 2->6, 3->5 and recovers its
characteristic polynomial x^8 - x^5 - x^3 - x - 1 three ways: by the
exact trace recursion, by the signed count of linear directed
subgraphs (summed as clow sequences), and by reading single
coefficients off the subgraph lists.
"""

from digraph_spectra import (
    FamilySpec,
    build_family,
    charpoly_exact,
    charpoly_ldsg,
    enumerate_ldsgs,
    is_non_derogatory,
    minimal_polynomial,
)

d = build_family(FamilySpec("DCn_i_nmi", 8))
print("order:", d.n)
print("arcs: ", [(i, j) for i, j, _ in d.arcs])
print()

# Route one: fraction-free trace recursion on the adjacency matrix.
phi = charpoly_exact(d)
print("trace recursion:   ", phi)

# Route two: sum over linear directed subgraphs (disjoint cycle unions),
# each contributing (-1)^(number of cycles) times its arc-weight product,
# computed as a sum over clow sequences (closed walks with increasing
# smallest vertices) in which the non-covers cancel in pairs.
psi = charpoly_ldsg(d)
print("subgraph counting: ", psi)
assert phi == psi

# The x^(n-i) coefficient only sees subgraphs covering exactly i
# vertices.  On 3 vertices there is a single one, the triangle closed
# by the chord: 1 -> 7 -> 8 -> 1.
covers3 = enumerate_ldsgs(d, 3)
print()
print("subgraphs on 3 vertices:", [lds.cycles for lds in covers3])
print("so the x^5 coefficient is (-1)^1 * 1 =", phi.coefficient(5))

# On all 8 vertices only the outer cycle survives: any chord cycle
# leaves a vertex set that no disjoint cycle family can cover.
covers8 = enumerate_ldsgs(d, 8)
for lds in covers8:
    sign = (-1) ** len(lds.cycles)
    print("full cover", lds.cycles, "sign", sign)
print("constant term:", phi.coefficient(0))

# The minimal polynomial has full degree here, so the adjacency matrix
# is non-derogatory: no smaller polynomial kills it.
mu = minimal_polynomial(d)
print()
print("minimal polynomial:", mu)
print("non-derogatory:    ", is_non_derogatory(d))
assert mu == phi
