"""Labeled digraphs with exact walk counting.

Vertices are 1..n.  Arcs are ordered pairs; multiplicity greater than
one is permitted only on self loops, so the adjacency matrix is 0/1 off
the diagonal with nonnegative diagonal entries.  All arithmetic is on
Python ints, so walk counts are exact at any length.

Every kernel reads one cached 0-based successor table, ``Digraph.rows``;
:meth:`Digraph.times` is A v over it and :func:`walk_row` the walk push.

Serialization: a text form (first line ``n``, then one ``i j`` or
``i j mult`` per arc, sorted) and a JSON form
``{"n": n, "arcs": [[i, j, mult], ...]}``; both round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd


class IndexOutOfRange(ValueError):
    """An arc endpoint lies outside 1..n."""


class NotAnInteger(ValueError):
    """The vertex count or an arc component is not an int (bools excluded)."""


class ParallelNonLoopArc(ValueError):
    """A non-loop arc was given more than once or with multiplicity > 1."""


class NotSimple(ValueError):
    """The operation needs a loopless digraph without multiplicities."""


class NotStronglyConnected(ValueError):
    """The operation needs a strongly connected digraph."""


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph; build via :func:`build_digraph`."""

    n: int
    arcs: tuple[tuple[int, int, int], ...]  # sorted (tail, head, multiplicity)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """0-based successor table: row i holds the (head - 1,
        multiplicity) pairs of the arcs leaving vertex i + 1, sorted."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, j, m in self.arcs:
            out[i - 1].append((j - 1, m))
        return tuple([tuple(row) for row in out])

    def successors(self, v: int) -> tuple[tuple[int, int], ...]:
        """(head, multiplicity) pairs of arcs leaving v, 1-based."""
        if not 1 <= v <= self.n:
            raise IndexOutOfRange(f"vertex {v} outside 1..{self.n}")
        return tuple([(h + 1, m) for h, m in self.rows[v - 1]])

    def times(self, v: list[int]) -> list[int]:
        """A v over Z, for v indexed by 0-based vertex."""
        return [sum([w * v[h] for h, w in row]) for row in self.rows]

    def adjacency_matrix(self) -> list[list[int]]:
        """Fresh n x n multiplicity matrix, 0-based rows/columns."""
        mat = [[0] * self.n for _ in range(self.n)]
        for i, j, m in self.arcs:
            mat[i - 1][j - 1] = m
        return mat

    def multiplicity(self, i: int, j: int) -> int:
        """Multiplicity of arc (i, j); 0 when absent or out of range."""
        if not 1 <= i <= self.n:
            return 0  # a bare rows[i - 1] would wrap around to the last rows
        for head, m in self.rows[i - 1]:
            if head == j - 1:
                return m
        return 0

    def has_arc(self, i: int, j: int) -> bool:
        return self.multiplicity(i, j) > 0

    @property
    def arc_count(self) -> int:
        return sum(m for _, _, m in self.arcs)

    @property
    def is_simple(self) -> bool:
        return all(i != j and m == 1 for i, j, m in self.arcs)


def build_digraph(n: int, arcs) -> Digraph:
    """Validate and build a digraph on vertices 1..n.

    ``arcs`` holds (i, j) or (i, j, mult) entries.  Repeated loops merge
    by summing multiplicities; a repeated non-loop arc, or a non-loop
    arc with multiplicity > 1, is rejected.
    """
    _require_int(n, "vertex count")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    merged: dict[tuple[int, int], int] = {}
    for entry in arcs:
        if not isinstance(entry, (tuple, list)) or len(entry) not in (2, 3):
            raise ValueError(f"arc entries must be (i, j) or (i, j, mult), got {entry!r}")
        i, j, m = entry if len(entry) == 3 else (*entry, 1)
        if not (type(i) is int and type(j) is int and type(m) is int):
            for value in (i, j, m):
                _require_int(value, f"arc {entry!r} component")
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"arc ({i}, {j}) outside vertex range 1..{n}")
        if m < 1:
            raise ValueError(f"arc ({i}, {j}) has multiplicity {m} < 1")
        if i == j:
            merged[(i, j)] = merged.get((i, j), 0) + m
        else:
            if m > 1 or (i, j) in merged:
                raise ParallelNonLoopArc(f"parallel non-loop arc ({i}, {j})")
            merged[(i, j)] = 1
    triples = tuple(sorted([(i, j, m) for (i, j), m in merged.items()]))
    return Digraph(n=n, arcs=triples)


def _require_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise NotAnInteger(f"{what} must be an integer, got {value!r}")


def complement(d: Digraph) -> Digraph:
    """Loopless complement: arc (i, j), i != j, present iff absent in d."""
    if not d.is_simple:
        raise NotSimple("complement is defined for simple digraphs only")
    present = {(i, j) for i, j, _ in d.arcs}
    # Generated sorted, in range and simple, so no revalidation is needed.
    arcs = tuple([
        (i, j, 1)
        for i in range(1, d.n + 1)
        for j in range(1, d.n + 1)
        if i != j and (i, j) not in present
    ])
    return Digraph(n=d.n, arcs=arcs)


def _levels(rows) -> list[int]:
    """Breadth-first levels from vertex 0 along the (head, multiplicity)
    rows; -1 marks a vertex the search does not reach."""
    level = [-1] * len(rows)
    level[0] = 0
    queue = [0]
    for u in queue:  # the queue grows while it is read
        next_level = level[u] + 1
        for v, _ in rows[u]:
            if level[v] < 0:
                level[v] = next_level
                queue.append(v)
    return level


def is_strongly_connected(d: Digraph) -> bool:
    """Vertex 1 reaches every vertex along the successor rows, and
    every vertex reaches it: vertex 1 reaches all along the predecessor
    rows built from them."""
    return _strong_cycle_gcd(d) is not None


def cycle_gcd(d: Digraph) -> int:
    """gcd of all directed cycle lengths.

    Computed from a BFS level assignment: every arc (u, v) closes the
    residue level[u] + 1 - level[v], and the gcd of those residues over
    all arcs equals the cycle gcd.  Returns 0 for a single vertex with
    no loop (no cycles at all).
    """
    g = _strong_cycle_gcd(d)
    if g is None:
        raise NotStronglyConnected("cycle gcd needs a strongly connected digraph")
    return g


def _strong_cycle_gcd(d: Digraph) -> int | None:
    """cycle_gcd of d, or None when d is not strongly connected.  The
    forward search that gives the levels also shows whether vertex 1
    reaches every vertex, so only the backward search runs besides it;
    the residues stop at the first gcd of 1, which no further residue
    changes."""
    level = _levels(d.rows)
    if -1 in level:
        return None
    tails: list[list[tuple[int, int]]] = [[] for _ in d.rows]
    for v, row in enumerate(d.rows):
        for h, m in row:
            tails[h].append((v, m))
    if -1 in _levels(tails):
        return None
    g = 0
    for i, j, _ in d.arcs:
        g = gcd(g, abs(level[i - 1] + 1 - level[j - 1]))
        if g == 1:
            break
    return g


@dataclass(frozen=True)
class WalkCountMatrix:
    """Entry (i, j) counts directed walks of the given length from i to j."""

    power: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        n = len(self.entries)
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside 1..{n}")
        return self.entries[i - 1][j - 1]


def walk_row(d: Digraph, i: int, k: int) -> list[int]:
    """Row i (vertex i + 1) of A^k, 0-based: the unit row pushed along
    the arcs k times, skipping its zero entries."""
    if k < 0:
        raise ValueError("walk length must be nonnegative")
    if not 0 <= i < d.n:
        raise IndexOutOfRange(f"row {i} outside 0..{d.n - 1}")
    rows = d.rows
    row = [0] * d.n
    row[i] = 1
    for _ in range(k):
        step = [0] * d.n
        for u, count in enumerate(row):
            if count:
                for h, w in rows[u]:
                    step[h] += count * w
        row = step
    return row


def walk_count(d: Digraph, k: int) -> WalkCountMatrix:
    """Exact k-th power of the adjacency matrix, one :func:`walk_row`
    per row."""
    # tuple() of a list, not of a generator: a generator's tuple is built
    # by resizing, which leaves memory on free lists that only a full
    # garbage collection empties.
    return WalkCountMatrix(power=k, entries=tuple([tuple(walk_row(d, i, k)) for i in range(d.n)]))


# -- serialization ----------------------------------------------------


def to_text(d: Digraph) -> str:
    lines = [str(d.n)]
    for i, j, m in d.arcs:
        lines.append(f"{i} {j}" if m == 1 else f"{i} {j} {m}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Digraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty digraph text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}")
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"arc line must be 'i j' or 'i j mult', got {ln!r}")
        arcs.append(tuple(int(p) for p in parts))
    return build_digraph(n, arcs)


def to_json_dict(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [[i, j, m] for i, j, m in d.arcs]}


def from_json_dict(obj: dict) -> Digraph:
    if not isinstance(obj, dict) or "n" not in obj or "arcs" not in obj:
        raise ValueError("digraph JSON needs keys 'n' and 'arcs'")
    if not isinstance(obj["arcs"], list):
        raise ValueError(f"digraph JSON 'arcs' must be a list, got {obj['arcs']!r}")
    return build_digraph(obj["n"], obj["arcs"])


def to_json(d: Digraph) -> str:
    return json.dumps(to_json_dict(d), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Digraph:
    """A nesting too deep for the JSON reader or for an error message's
    repr is a ValueError too, so the CLI reports it in one line."""
    try:
        return from_json_dict(json.loads(text))
    except RecursionError:
        raise ValueError("digraph JSON nests too deeply") from None
