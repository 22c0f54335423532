"""Primitivity and exponents of digraphs.

A digraph is primitive iff it is strongly connected and the gcd of its
cycle lengths is 1, which one search forward from vertex 1 (whose levels
give the cycle gcd) and one backward decide; its exponent is the least
k with every entry of A^k positive.  The iteration packs each boolean
row into an int bitmask and forms A^(k+1) = A A^k by pushing the powers
through the successor table ``d.rows``: row i is the OR of the rows of
A^k at i's successors.  As in the trace recursion's rows, a vertex with
one successor reuses that successor's row of A^k, so a step costs one
OR per arc beyond each vertex's first, and "every row full" is one
count of the full mask.  It is guarded by the (n-1)^2 + 1 bound on
primitive exponents, which is a checked theorem, not a tunable: passing
it raises ExactnessCheckFailed.

The witness pair of an exponent result is the lexicographically
smallest (i, j) with no walk of length exponent-1 from i to j, the
standard sharpness certificate.

:func:`alternating_fan_walks_length9` emits, for an odd alternating fan
on n >= 7 vertices, one explicit length-9 walk for every ordered vertex
pair, organized by hub/parity cases; checking the list against the
digraph (and 9 against the computed exponent) gives a constructive
proof of the fan exponent value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, _strong_cycle_gcd
from .polynomial import ExactnessCheckFailed


@dataclass(frozen=True)
class ExponentResult:
    primitive: bool
    exponent: int | None
    witness_pair: tuple[int, int] | None


def is_primitive(d: Digraph) -> bool:
    """Strongly connected with cycle gcd 1."""
    return _strong_cycle_gcd(d) == 1


def exponent(d: Digraph) -> ExponentResult:
    """Exponent and sharpness witness of a primitive digraph;
    (False, None, None) when not primitive."""
    if not is_primitive(d):
        return ExponentResult(primitive=False, exponent=None, witness_pair=None)
    n = d.n
    full = (1 << n) - 1
    rows = d.rows
    first = [row[0][0] for row in rows]  # a primitive digraph has no sink
    extra = [(v, [h for h, _ in row[1:]]) for v, row in enumerate(rows) if len(row) > 1]
    power = [sum([1 << h for h, _ in row]) for row in rows]
    previous = None
    e = 1
    bound = (n - 1) * (n - 1) + 1
    while power.count(full) < n:
        previous = power
        # A^(e+1) = A A^e: row i is the OR of A^e's rows at i's successors
        power = [previous[h] for h in first]
        for v, heads in extra:
            acc = power[v]
            for h in heads:
                acc |= previous[h]
            power[v] = acc
        e += 1
        if e > bound:
            raise ExactnessCheckFailed("exponent exceeded the primitive-digraph bound")
    witness = None
    if previous is not None:
        for i in range(n):
            missing = full & ~previous[i]
            if missing:
                witness = (i + 1, (missing & -missing).bit_length())
                break
    return ExponentResult(primitive=True, exponent=e, witness_pair=witness)


# -- explicit walk checking -------------------------------------------


def check_walks(
    d: Digraph, walks: list[tuple[int, ...]]
) -> list[str | None]:
    """Per-walk verdicts: None when the vertex sequence is a valid
    directed walk in d, else a reason string."""
    verdicts: list[str | None] = []
    for walk in walks:
        if len(walk) < 2:
            verdicts.append(f"walk {walk} has no arcs")
            continue
        problem = None
        for u, v in zip(walk, walk[1:]):
            if not (1 <= u <= d.n and 1 <= v <= d.n):
                problem = f"walk {walk} leaves the vertex range 1..{d.n}"
                break
            if not d.has_arc(u, v):
                problem = f"walk {walk} uses the missing arc ({u}, {v})"
                break
        verdicts.append(problem)
    return verdicts


def verify_walk_list(d: Digraph, walks: list[tuple[int, ...]]) -> bool:
    """True iff every listed vertex sequence is a valid directed walk."""
    return all(v is None for v in check_walks(d, walks))


def alternating_fan_walks_length9(n: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """For the odd alternating fan on n >= 7 vertices: a length-9 walk
    for every ordered pair (source, target), covering all parity cases.

    Hub is vertex 1; rim vertices 2..n; arcs are the rim path
    i -> i+1, hub spokes 1 -> even i, and returns odd i -> 1.
    """
    if n < 7 or n % 2 == 0:
        raise ValueError(f"walk templates need odd n >= 7, got n={n}")
    walks: dict[tuple[int, int], tuple[int, ...]] = {}
    walks[(1, 1)] = (1, 2, 3, 1, 2, 3, 1, 2, 3, 1)
    for i in range(2, n + 1):
        if i % 2 == 0:
            walks[(1, i)] = (1, 2, 3, 1, 2, 3, 4, 5, 1, i)
            walks[(i, 1)] = (i, i + 1, 1, 2, 3, 4, 5, 6, 7, 1)
        else:
            walks[(1, i)] = (1, 2, 3, 4, 5, 6, 7, 1, i - 1, i)
            walks[(i, 1)] = (i, 1, 2, 3, 4, 5, 1, i - 1, i, 1)
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if i % 2 == 0 and j % 2 == 0:
                walks[(i, j)] = (i, i + 1, 1, i, i + 1, 1, i, i + 1, 1, j)
            elif i % 2 == 1 and j % 2 == 1:
                walks[(i, j)] = (i, 1, 2, 3, 1, 2, 3, 1, j - 1, j)
            elif i % 2 == 0:
                walks[(i, j)] = (i, i + 1, 1, 2, 3, 4, 5, 1, j - 1, j)
            else:
                walks[(i, j)] = (i, 1, 2, 3, 4, 5, 6, 7, 1, j)
    return walks
