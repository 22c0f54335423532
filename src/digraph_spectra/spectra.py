"""Exact characteristic and minimal polynomials of digraphs.

Two independent routes to the characteristic polynomial:

* :func:`charpoly_exact` runs the trace recursion on exact integer
  matrices (each division is provably exact and checked), each row
  packed into one int in slots sized by Hadamard's bound on the
  coefficients of adj(xI - A), which needs only the row norms of A, so
  a row of A M is one big-int add per arc and the trace is read from
  one slot of the rows shifted and summed; a vertex with more
  successors than non-successors instead subtracts its non-successors'
  rows from the column-sum row;
* :func:`charpoly_ldsg` computes the signed sum over linear directed
  subgraphs (collections of vertex-disjoint directed cycles, signed by
  component count and weighted by loop multiplicities) as Mahajan and
  Vinay's clow-sequence sum: one walk pass for all heads (the vertices
  an arc from a vertex at or above them re-enters), each in its own bit
  slot of one int per vertex, under the rotation or reflection of the
  labels with the fewest heads.
  :func:`enumerate_ldsgs` lists the subgraphs themselves, one by one.

The two routes share no arithmetic, only the successor table ``d.rows``,
so their agreement is a real cross-check and is treated as a hard
assertion by the verification pipeline.  Both run at any n.

The minimal polynomial comes from Krylov sequences in two tiers.  The
first works mod 2 on bitmasks, from e_1 and then up to n seeded 0/1
start vectors u: when u, A u, ..., A^(n-1) u are independent mod 2, u
is a cyclic vector over Q and the minimal polynomial is the
characteristic polynomial.  Every vector misses, after n + 1 passes,
when A mod 2 is derogatory; a digraph that all of them miss goes on to
the second tier, where the minimal polynomial is the lcm of the Krylov
minimal polynomials of seeded small-integer start vectors
modulo the prime P = 2^61 - 1, each read off one elimination by
back-substitution, while one echelon basis mod P tracks the joint rank
of their Krylov spaces; each Krylov step is one ``Digraph.times``.  The
search stops at degree n or joint rank n.  Degree n mod P is degree n
over Q, so the result is then the characteristic polynomial; below
degree n the lifted result is certified over Z on the processed vectors,
with a fraction-free integer elimination as the fallback.  A digraph is
non-derogatory when the minimal polynomial has full degree n, which the
Krylov ranks alone show.

:func:`triangular_certificate` searches for a sufficient witness: an
ordered arc matching on n-1 rows and columns of xI - A whose staircase
shape forces a constant nonzero (n-1)-minor, hence gcd of the
(n-1)-minors 1, hence a non-derogatory digraph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .digraph import Digraph
from .polynomial import MINPOLY_PRIME, ExactnessCheckFailed, IntPolynomial

# -- route 1: trace recursion -----------------------------------------


def charpoly_exact(d: Digraph) -> IntPolynomial:
    """det(xI - A) via the trace recursion, exact over Z.

    Iterates M_0 = I, M_k = A M_(k-1) + c_k I with
    c_k = -trace(A M_(k-1)) / k; every division is exact for integer
    matrices and is checked, and M_n = 0 (Cayley-Hamilton) is checked at
    the end; a failed check raises ExactnessCheckFailed.  The update
    + c_k I is skipped when c_k = 0.

    Each row of M is one int, entry j in slot j: M[i][j] * 2^(s*j)
    summed over j, with s from :func:`_slot_bits`.  Row v of A M is
    then one big-int add per arc of v, and a vertex with one successor
    reuses that successor's int.  When v has more successors than
    non-successors, the row is instead the column-sum row (the sum of
    all rows, formed once per step) minus the rows of v's
    non-successors; the form is chosen per vertex.  Either way a loop of
    multiplicity w > 1 adds (w - 1) times its row once more.

    Trace read.  Row i shifted left by s*(n-1-i) moves its diagonal
    slot i to slot n-1, so slot n-1 of the sum of the shifted rows
    (formed by Horner steps, x <- (x << s) + row) is trace(A M_(k-1));
    slot n-1+j-i holds the sum of the entries (i, j) with that j - i, at
    most n of them.  That one slot is rounded and sign-folded once.

    Slot bound.  Packing is linear and exact whatever the slots hold,
    so only the slots of that sum need a bound.  M_k is the coefficient
    of x^(n-1-k) in adj(xI - A), so each of its entries is a signed sum
    of k-row minors of A on distinct row sets.  By Hadamard's inequality
    a minor is at most the product of its rows' 2-norms, each at most
    rho_v = ceil(||row v||_2), so |M_k[i][j]| <= e_k(rho) <=
    prod_v (1 + rho_v), e_k being the elementary symmetric polynomial;
    |c_k|, a sum of principal k-minors, obeys the same bound.  Hence
    A M_(k-1) = M_k - c_k I has entries at most 2 prod_v (1 + rho_v),
    and a slot of the sum at most 2n prod_v (1 + rho_v) < 2^(s-2).  The
    slots below slot n-1 add up to less than
    2^(s-2) * 2^(s*(n-1)) / (2^s - 1) <= 2^(s*(n-1) - 1) in size, so
    rounding the sum to the nearest multiple of 2^(s*(n-1)),
    ((x >> (s*(n-1) - 1)) + 1) >> 1, absorbs their borrows; the trace is
    then the low s bits, sign-folded.
    """
    n = d.n
    s = _slot_bits(d)
    size = 1 << s
    rows = d.rows
    first = [row[0][0] if row else n for row in rows]  # the row that v's row of A M starts from
    adds = []  # (vertex, rows added, rows subtracted) after that first row
    for v, row in enumerate(rows):
        if 2 * len(row) > n:
            first[v] = n + 1
            adds.append((v, [], sorted(set(range(n)).difference([h for h, _ in row]))))
        elif len(row) > 1:
            adds.append((v, [h for h, _ in row[1:]], []))
    dense = n + 1 in first
    excess = [(v, h, w - 1) for v, row in enumerate(rows) for h, w in row if w > 1]
    diagonal = [s * i for i in range(n)]
    low = s * (n - 1) - 1  # slot n-1 has no lower slots to round away when n = 1
    m = [1 << shift for shift in diagonal]
    coeffs = [1]  # leading coefficient of x^n
    for k in range(1, n + 1):
        m.append(0)  # row n: the zero row of a sink
        if dense:
            m.append(sum(m))  # row n + 1: the column sums
        am = [m[h] for h in first]
        for v, plus, minus in adds:
            x = am[v]
            for h in plus:
                x += m[h]
            for h in minus:
                x -= m[h]
            am[v] = x
        for v, h, w in excess:
            am[v] += w * m[h]
        lifted = 0  # row i shifted left by s*(n-1-i), summed
        for x in am:
            lifted = (lifted << s) + x
        u = (lifted if low < 0 else ((lifted >> low) + 1) >> 1) & (size - 1)
        t = u - size if u >= size >> 1 else u
        if t % k:
            raise ExactnessCheckFailed("trace recursion produced a non-integer coefficient")
        ck = -t // k
        coeffs.append(ck)
        if ck:
            am = [x + (ck << shift) for x, shift in zip(am, diagonal)]
        m = am
    if any(m):
        raise ExactnessCheckFailed("trace recursion did not end in the zero matrix")
    return IntPolynomial(reversed(coeffs))


def _slot_bits(d: Digraph) -> int:
    """Slot width s of :func:`charpoly_exact`: the least s with
    2n prod_v (1 + rho_v) < 2^(s-2), rho_v = ceil(||row v||_2) over the
    arc multiplicities of v."""
    bound = 2 * d.n
    for row in d.rows:
        q = sum([w * w for _, w in row])
        rho = math.isqrt(q)
        bound *= 1 + rho + (rho * rho < q)
    return bound.bit_length() + 2


# -- route 2: linear directed subgraphs -------------------------------


@dataclass(frozen=True)
class Ldsg:
    """A linear directed subgraph: vertex-disjoint directed cycles.

    Cycles are canonical tuples starting at their smallest vertex, a
    self loop being the 1-tuple.  ``weight`` is the product of the arc
    multiplicities used (only loops can contribute more than 1).
    """

    cycles: tuple[tuple[int, ...], ...]
    length: int
    components: int
    weight: int = 1


def enumerate_ldsgs(d: Digraph, i: int) -> list[Ldsg]:
    """All linear directed subgraphs on exactly i vertices, in
    deterministic (lexicographic) order.

    Vertices are processed in increasing order; a cycle is built only
    from its smallest vertex, so each collection of vertex-disjoint
    cycles is produced exactly once, in lexicographic order of its
    canonical cycle tuples.
    """
    if not (1 <= i <= d.n):
        raise ValueError(f"ldsg size must satisfy 1 <= i <= {d.n}, got {i}")
    n = d.n
    rows = d.rows
    found: list[Ldsg] = []
    chosen: list[tuple[int, ...]] = []

    def choose(v: int, used: frozenset[int], weight: int) -> None:
        if v == n:
            if len(used) == i:
                cycles = tuple(chosen)
                found.append(Ldsg(cycles=cycles, length=i, components=len(cycles), weight=weight))
            return
        if v in used:
            choose(v + 1, used, weight)
            return
        choose(v + 1, used, weight)  # leave v uncovered
        path = [v + 1]  # the cycle in 1-based labels

        def extend(u: int, used_now: frozenset[int], w: int) -> None:
            for head, mult in rows[u]:
                if head == v and (len(path) > 1 or u == v):
                    chosen.append(tuple(path))
                    choose(v + 1, used_now, w * mult)
                    chosen.pop()
                elif head > v and head not in used_now:
                    path.append(head + 1)
                    extend(head, used_now | {head}, w * mult)
                    path.pop()

        extend(v, used | {v}, weight)

    choose(0, frozenset(), 1)
    return found


def charpoly_ldsg(d: Digraph) -> IntPolynomial:
    """det(xI - A) from the signed count of linear directed subgraphs:
    the coefficient of x^(n-i) is the sum over ldsgs on i vertices of
    (-1)^components * weight.

    Computed as the clow-sequence sum of Mahajan and Vinay (1997).  A
    clow with head h is a closed walk h -> ... -> h whose other vertices
    all exceed h; a clow sequence has strictly increasing heads and
    contributes (-1)^(number of clows) times the product of its arc
    multiplicities.  The sequences that are not sets of disjoint cycles
    cancel in pairs, so the sum over sequences of total length i is the
    ldsg coefficient.  Heads are independent, so the sum is the product
    over h of (1 - sum_l clows_h[l] t^l) truncated at degree n, with
    clows_h[l] the weight of the length-l clows with head h from
    :func:`_clows`.  A clow ends on an arc u -> h with u >= h (u = h for
    a loop), so only such re-entered vertices are heads.  Relabelling
    leaves det(xI - A) unchanged, so the labels are those of
    :func:`_fewest_heads`.  No size limit.
    """
    n = d.n
    by_head = _clows(n, *_fewest_heads(d.rows)) or [[0] * (n + 1)]
    coeffs = [1] + [-c for c in by_head[0][1:]]  # coeffs[i]: coefficient of x^(n-i)
    for clows in by_head[1:]:
        lengths = [length for length in range(1, n + 1) if clows[length]]
        for i in range(n, 0, -1):  # multiply by 1 - clows(t), high degrees first
            coeffs[i] -= sum([clows[k] * coeffs[i - k] for k in lengths if k <= i])
    coeffs.reverse()
    return IntPolynomial(coeffs)


def _fewest_heads(rows) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The arcs (u, v, multiplicity) and their heads, in order, under
    the rotation or reflection of the labels anchored at the first
    vertex of largest out-degree, with the fewer heads; the given labels
    when they have at most two heads or neither has fewer."""
    n = len(rows)
    arcs = given = [(u, v, w) for u, row in enumerate(rows) for v, w in row]
    heads = {v for u, v, _ in arcs if u >= v}
    if len(heads) > 2:
        a = max(range(n), key=lambda v: len(rows[v]))
        for sign in (1, -1):
            label = [sign * (v - a) % n for v in range(n)]
            found = {label[v] for u, v, _ in given if label[u] >= label[v]}
            if len(found) < len(heads):
                heads, arcs = found, [(label[u], label[v], w) for u, v, w in given]
    return arcs, sorted(heads)


def _clows(n: int, arcs: list[tuple[int, int, int]], heads: list[int]) -> list[list[int]]:
    """clows_h[0..n] for each head h, in order, from one walk pass.

    Slot i (s bits) of P[u] is the weight of the walks from the i-th
    head to u through vertices above it, so it is zero unless that head
    is at most u.  A step sums w * P[u] over the arcs u -> v.  Only a
    head v can receive slots at or above its own: its own slot of the
    sum is v's clows of that length, and the sum keeps the slots of the
    heads below v.  A slot of a length-l sum is at most R^l, R the
    largest weighted out-degree, and never negative, so for l <= n the
    slots of bit_length(R^n) + 1 bits never carry into each other."""
    preds: list[list[int]] = [[] for _ in range(n)]
    degrees = [0] * n
    for u, v, w in arcs:
        preds[v].append(u)
        degrees[u] += w
    excess = [(v, u, w - 1) for u, v, w in arcs if w > 1]
    s = (max(degrees) ** n).bit_length() + 1
    field = (1 << s) - 1
    first = [us[0] if us else n for us in preds] + [n]  # P[n] = 0
    more = [(v, u) for v, us in enumerate(preds) for u in us[1:]]
    start = {h: 1 << (i * s) for i, h in enumerate(heads)}
    walks = [start.get(v, 0) for v in range(n + 1)]
    clows = [[0] * (n + 1) for _ in heads]
    closing = [(v, i * s, (1 << (i * s)) - 1, clows[i]) for i, v in enumerate(heads)]
    for length in range(1, n + 1):
        arrival = [walks[u] for u in first]
        for v, u in more:
            arrival[v] += walks[u]
        for v, u, w in excess:
            arrival[v] += w * walks[u]
        for v, shift, below, counts in closing:
            x = arrival[v]
            counts[length] = (x >> shift) & field
            arrival[v] = x & below
        walks = arrival
    return clows


# -- minimal polynomial -----------------------------------------------


def minimal_polynomial(d: Digraph) -> IntPolynomial:
    """Monic generator of the polynomials f with f(A) = 0.

    First tier, mod 2: e_1, then up to n seeded 0/1 vectors u.  When
    :func:`_cyclic_mod_2` finds u, A u, ..., A^(n-1) u independent mod
    2, the integer Krylov matrix has an odd, hence nonzero, determinant,
    so u is a cyclic vector over Q and the minimal polynomial is the
    characteristic polynomial.  No u passes when A mod 2 is itself
    derogatory, so such a digraph costs n + 1 passes mod 2 before the
    second tier.

    Second tier, mod P = ``MINPOLY_PRIME``: Krylov sequences of start
    vectors u (Wiedemann 1986), seeded ones with entries in -3..3 first.
    For each u it forms v = m(A) u, finds the minimal polynomial g of
    v's sequence v, Av, A^2 v, ... and replaces m by m g =
    lcm(m, minpoly(u)); it also joins u, Au, ... to one echelon basis of
    the processed vectors' Krylov spaces.  It stops when deg m = n or
    that joint rank is n; m is then A's minimal polynomial mod P, lifted
    to (-P/2, P/2].  The true minimal polynomial is a monic integer
    polynomial that m divides mod P.

    So either tier reaching degree n means the characteristic
    polynomial, and the result is ``charpoly_exact(d)``, whose divisions
    and Cayley-Hamilton check are exact: a caller that needs both
    polynomials reads a degree-n result as the characteristic
    polynomial.

    Below degree n the processed vectors' Krylov spaces span Q^n, since
    their rank mod P is n, so m(A) u = 0 checked exactly on each u proves
    m(A) = 0 (m(A) A^k u = A^k m(A) u); an integer annihilator is a
    multiple of the true minimal polynomial, so m is it.  If the check
    fails (the degree dropped mod P, or a true coefficient lies outside
    the lift range), the fraction-free elimination over Z reruns the
    search.
    """
    found = _krylov_tiers(d)
    if found is None:
        return charpoly_exact(d)
    m, vectors = found
    return _certified(m, d, vectors)


def _krylov_tiers(d: Digraph) -> tuple[IntPolynomial, list[list[int]]] | None:
    """None when a tier reaches degree n, so the minimal polynomial is
    the characteristic polynomial; else the mod-P search's m, of lower
    degree, and the start vectors it processed."""
    if _some_cyclic_mod_2(_columns_mod_2(d)):
        return None
    m, vectors = _minimal_polynomial_mod_p(d)
    return None if m.degree == d.n else (m, vectors)


def _columns_mod_2(d: Digraph) -> list[int]:
    """A mod 2 as n column bitmasks: bit v of column h is set when arc
    (v, h) has odd multiplicity."""
    columns = [0] * d.n
    for v, row in enumerate(d.rows):
        for h, w in row:
            if w & 1:
                columns[h] |= 1 << v
    return columns


def _start_vectors_mod_2(n: int):
    """The GF(2) tier's seeded 0/1 start vectors as bitmasks, n of
    them."""
    rng = random.Random(KRYLOV_SEED)
    for _ in range(n):
        yield rng.getrandbits(n)


def _some_cyclic_mod_2(columns: list[int]) -> bool:
    """Whether e_1 or one of the n seeded 0/1 vectors of
    :func:`_start_vectors_mod_2` is cyclic mod 2, tried in that order up
    to the first that passes."""
    if _cyclic_mod_2(columns, 1):
        return True
    return any(_cyclic_mod_2(columns, u) for u in _start_vectors_mod_2(len(columns)))


def _cyclic_mod_2(columns: list[int], u: int) -> bool:
    """Whether u, A u, ..., A^(n-1) u have rank n mod 2, for the 0/1
    vector u given as a bitmask and A mod 2 as :func:`_columns_mod_2`.

    A v mod 2 is the XOR of the columns at v's set bits.  Each Krylov
    vector is reduced by XOR against the basis rows with its leading
    bit; the first one that reduces to zero ends the sequence below rank
    n.  Rank n mod 2 means the integer Krylov matrix of u has an odd,
    hence nonzero, determinant, so u is a cyclic vector over Q."""
    n = len(columns)
    basis: dict[int, int] = {}  # leading bit -> basis row
    v = u
    for k in range(n):
        x = v
        while x:
            top = x.bit_length() - 1
            if top not in basis:
                basis[top] = x
                break
            x ^= basis[top]
        else:
            return False
        if k < n - 1:
            acc = 0
            while v:
                low = v & -v
                acc ^= columns[low.bit_length() - 1]
                v ^= low
            v = acc
    return True


KRYLOV_SEED = 1986  # seeds the start vectors of the GF(2) tier and the mod-P search


def _start_vectors(n: int):
    """The mod-P search's start vectors: n seeded ones with entries in
    -3..3, then the unit vectors, which span and so end any search."""
    rng = random.Random(KRYLOV_SEED)
    for _ in range(n):
        yield rng.choices(range(-3, 4), k=n)
    yield from _unit_vectors(n)


def _unit_vectors(n: int) -> list[list[int]]:
    return [[int(i == j) for i in range(n)] for j in range(n)]


def _minimal_polynomial_mod_p(d: Digraph) -> tuple[IntPolynomial, list[list[int]]]:
    """A's minimal polynomial mod P, lifted to Z, and the start vectors
    the search processed; a start vector whose Krylov space adds nothing
    to the span is passed over.  Below degree n their Krylov spaces
    have joint rank n mod P."""
    p = MINPOLY_PRIME
    n = d.n
    m = [1]  # coefficients mod P, constant term first
    span: list[tuple[int, list[int]]] = []  # echelon basis of the processed Krylov spaces
    vectors = []
    for u in _start_vectors(n):
        rank = len(span)
        if not rank:  # m = 1, so v = u and its Krylov basis is the span
            m, span = _krylov_minpoly_mod_p(d, u)
        else:
            # join u, Au, ... up to the first power already in the span,
            # which then stays A-invariant
            w = u
            while len(span) < n and _reduce_mod_p(span, w, []):
                w = [x % p for x in d.times(w)]
            if len(span) > rank:
                v = u  # Horner from m's leading coefficient 1: v <- A v + c u
                for c in reversed(m[:-1]):
                    v = [(x + c * y) % p for x, y in zip(d.times(v), u)]
                if any(v):
                    g, _ = _krylov_minpoly_mod_p(d, v)
                    m = [c % p for c in (IntPolynomial(m) * IntPolynomial(g)).coeffs]
        if len(span) > rank:
            vectors.append(u)
        if len(m) > n or len(span) == n:
            break
    half = p // 2
    return IntPolynomial([c - p if c > half else c for c in m]), vectors


def _reduce_mod_p(basis: list[tuple[int, list[int]]], vec: list[int], mults: list[int]) -> int:
    """Reduce vec mod P against the echelon basis of (pivot, row with 1
    at the pivot), appending each multiplier subtracted to ``mults``.  A
    nonzero residual is scaled to 1 at its first nonzero entry and
    appended to the basis, and the inverse of its pivot entry returned;
    0 means vec lay in the span."""
    p = MINPOLY_PRIME
    for pivot, bvec in basis:
        mult = vec[pivot]
        mults.append(mult)
        if mult:
            vec = [(x - mult * y) % p for x, y in zip(vec, bvec)]
    pivot = next((idx for idx, x in enumerate(vec) if x), None)
    if pivot is None:
        return 0
    inv = pow(vec[pivot], -1, p)
    basis.append((pivot, [x * inv % p for x in vec]))
    return inv


def _krylov_minpoly_mod_p(
    d: Digraph, v: list[int]
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Monic first dependence among v, Av, A^2 v, ... mod P, constant
    term first, and the echelon basis of their span.  Reducing A^k v
    against the echelon basis b_0, b_1, ... records the multipliers
    L[k][i] and the residue's pivot L[k][k]: A^k v = sum_i L[k][i] b_i,
    L lower triangular.  The first dependent A^r v = sum_i f_i b_i =
    sum_k c_k A^k v then gives c from sum_k c_k L[k][i] = f_i by
    back-substitution."""
    p = MINPOLY_PRIME
    basis: list[tuple[int, list[int]]] = []
    lower: list[list[int]] = []  # row k: L[k][0..k-1], then 1 / L[k][k]
    while True:
        f: list[int] = []
        inv = _reduce_mod_p(basis, v, f)
        if not inv:
            break
        lower.append(f + [inv])
        v = [x % p for x in d.times(v)]
    r = len(lower)
    c = [0] * r
    for i in range(r - 1, -1, -1):
        rest = sum([c[k] * lower[k][i] for k in range(i + 1, r)])
        c[i] = (f[i] - rest) * lower[i][i] % p
    return [-x % p for x in c] + [1], basis


def _annihilates(f: IntPolynomial, d: Digraph, vectors: list[list[int]]) -> bool:
    """f(A) u == 0 over Z for every u in ``vectors``, by Horner steps
    r <- A r + c u."""
    for u in vectors:
        r = [0] * d.n
        for c in reversed(f.coeffs):
            r = [x + c * y for x, y in zip(d.times(r), u)]
        if any(r):
            return False
    return True


def _certified(m: IntPolynomial, d: Digraph, vectors: list[list[int]]) -> IntPolynomial:
    """m when m(A) u = 0 over Z for every processed u, else the
    fraction-free rerun."""
    if _annihilates(m, d, vectors):
        return m
    m = _minimal_polynomial_rational(d)
    if not _annihilates(m, d, _unit_vectors(d.n)):
        raise ExactnessCheckFailed("rational minimal polynomial does not annihilate A")
    return m


def _minimal_polynomial_rational(d: Digraph) -> IntPolynomial:
    """First dependence over Q among the flattened powers I, A, A^2, ...,
    by fraction-free elimination over Z.  A new row v and its
    combination of powers are reduced by v <- a v - b w against each
    basis row w, a being w's pivot entry and b v's entry there, and both
    are then divided by their content.  At the dependence the
    combination, divided by its leading coefficient, is the minimal
    polynomial; those divisions are exact for integer matrices
    (checked).  The fallback of the modular search, and its reference
    in the tests.  A^k is kept as its columns, each pushed by A v."""
    n = d.n
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, row, combination)
    columns = _unit_vectors(n)
    for power in range(n + 1):
        vec = [x for col in columns for x in col]
        combo = [int(k == power) for k in range(n + 1)]
        for pivot, bvec, bcombo in basis:
            b = vec[pivot]
            if b:
                a = bvec[pivot]
                vec = [a * x - b * y for x, y in zip(vec, bvec)]
                combo = [a * x - b * y for x, y in zip(combo, bcombo)]
                g = math.gcd(*vec, *combo)
                vec = [x // g for x in vec]
                combo = [x // g for x in combo]
        pivot = next((idx for idx, x in enumerate(vec) if x), None)
        if pivot is None:
            # combo expresses the zero matrix; its leading term is x^power.
            lead = combo[power]
            if any(c % lead for c in combo):
                raise ExactnessCheckFailed("rational minimal polynomial is not monic and integral")
            return IntPolynomial([c // lead for c in combo])
        basis.append((pivot, vec, combo))
        columns = [d.times(col) for col in columns]
    raise ExactnessCheckFailed("no dependence found within n+1 powers")


def minimal_polynomial_degree(d: Digraph) -> int:
    """Degree of the minimal polynomial: the tiers of
    :func:`minimal_polynomial` run once, certified only below degree n,
    never forming the characteristic polynomial."""
    found = _krylov_tiers(d)
    if found is None:
        return d.n
    m, vectors = found
    return _certified(m, d, vectors).degree


def is_non_derogatory(d: Digraph) -> bool:
    """True iff the minimal polynomial has full degree n."""
    return minimal_polynomial_degree(d) == d.n


# -- triangular certificate -------------------------------------------


@dataclass(frozen=True)
class TriangularCertificate:
    """Witness that one (n-1)-minor of xI - A is a nonzero constant.

    Delete ``removed_row`` and ``removed_col``; list the remaining rows
    and columns in the orders given.  Each stage pairs row_order[t] with
    col_order[t] on a nonzero off-diagonal entry of A, and that row is
    zero in xI - A against every later column, so the reordered minor is
    triangular with constant nonzero diagonal.  The gcd of all
    (n-1)-minors is then 1 and the digraph is non-derogatory.
    """

    removed_row: int
    removed_col: int
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]


def triangular_certificate(d: Digraph) -> TriangularCertificate | None:
    """The witness of the first row/column deletion whose stage order
    (forced, see :func:`_stage_search`) reaches the end; None when no
    deletion has one (inconclusive, not a derogatory verdict).

    No size limit: n(n-1) deletions of at most n stages, each scanning
    O(n^3) entries, so O(n^6) at worst; 0.03-0.15 s at n = 20 and
    0.2-1.1 s at n = 32 on HDW, ADF, kDW, DCc and UDWc (CPython 3.11,
    shared 2-vCPU VM)."""
    n = d.n
    if n == 1:
        # xI - A is 1x1; the empty minor is the constant 1.
        return TriangularCertificate(1, 1, (), ())
    a = d.adjacency_matrix()
    vertices = list(range(1, n + 1))
    for removed_row in vertices:
        for removed_col in vertices:
            if removed_row == removed_col:
                continue  # the diagonal transversal would have to be strictly triangular
            rows = [v for v in vertices if v != removed_row]
            cols = [v for v in vertices if v != removed_col]
            order = _stage_search(a, rows, cols)
            if order is not None:
                return TriangularCertificate(
                    removed_row=removed_row,
                    removed_col=removed_col,
                    # tuple() of lists: a generator's tuple leaves free-list memory
                    row_order=tuple([r for r, _ in order]),
                    col_order=tuple([c for _, c in order]),
                )
    return None


def _stage_search(
    a: list[list[int]], rows: list[int], cols: list[int]
) -> list[tuple[int, int]] | None:
    """Order the rows/cols into stages (r, c): A[r][c] != 0, r != c, and
    row r meets every remaining later column only in zeros of xI - A
    (so A[r][c'] == 0 and r != c' for all of them).  Each state takes
    its first qualifying pair in row-then-column order; None at the
    first state with none.

    No state has a second one.  A stage row is never a remaining column,
    and the only remaining row that is not a column is ``removed_col``
    at first, then the previous stage's column: staging (r, c) drops r
    from the rows and c from the columns.  So r is forced, and c is its
    only nonzero remaining column."""
    rows, cols = list(rows), list(cols)
    order: list[tuple[int, int]] = []
    while rows:
        step = next(
            (
                (r, c)
                for r in rows
                for c in cols
                if r != c
                and a[r - 1][c - 1]
                and not any(c2 != c and (c2 == r or a[r - 1][c2 - 1]) for c2 in cols)
            ),
            None,
        )
        if step is None:
            return None
        order.append(step)
        rows.remove(step[0])
        cols.remove(step[1])
    return order
