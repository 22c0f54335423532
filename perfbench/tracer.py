"""Span tracer that wraps the package's public functions from outside.

The package binds many functions by name into other modules (``verify``
imports ``charpoly_exact``, ``cyclotomic`` and ``exponent`` as
``compute_exponent``; ``polynomial.is_squarefree`` calls the module
global ``gcd_over_q``), so patching only the defining module would miss
most calls.  :meth:`Tracer.installed` therefore rebinds every attribute
of every loaded ``digraph_spectra`` module that *is* a traced function,
and wraps methods on their class.  Because ``cyclotomic`` recurses
through its module global, its recursive calls nest as child spans.

Spans stay in memory as tuples ``(name, start, end, parent, outermost)``
and are written out as JSON lines once, after the run.  Times are process
CPU seconds, the clock of the benchmark's end-to-end ``cpu_s``, so self
times add up to it.  A layer's self time is its span durations minus the
time covered by its child spans; its busy time counts only spans with no
ancestor of the same name, so a recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "digraph_spectra"


@dataclass(frozen=True)
class Layer:
    """One traced public function: ``module.attr``, or a method on
    ``module.owner`` when ``owner`` is set.  ``probe`` maps a return
    value to a number summed into the layer's ``probe_name`` counter."""

    name: str
    module: str
    attr: str
    owner: str | None = None
    probe_name: str | None = None
    probe: Callable[[object], int] | None = None


LAYERS = (
    Layer("spectra.charpoly_exact", "spectra", "charpoly_exact"),
    Layer("spectra.charpoly_ldsg", "spectra", "charpoly_ldsg"),
    Layer(
        "spectra.minimal_polynomial",
        "spectra",
        "minimal_polynomial",
        probe_name="degree_sum",
        probe=lambda mp: mp.degree,
    ),
    Layer(
        "spectra.triangular_certificate",
        "spectra",
        "triangular_certificate",
        probe_name="found",
        probe=lambda cert: int(cert is not None),
    ),
    Layer("polynomial.cyclotomic", "polynomial", "cyclotomic"),
    Layer("polynomial.divrem", "polynomial", "divrem", owner="IntPolynomial"),
    Layer("polynomial.gcd_over_q", "polynomial", "gcd_over_q"),
    Layer("polynomial.gcd_over_f2", "polynomial", "gcd_over_f2"),
    Layer("polynomial.is_squarefree", "polynomial", "is_squarefree"),
    Layer("polynomial.perron_irreducible", "polynomial", "perron_irreducible"),
    Layer("polynomial.brauer_form", "polynomial", "brauer_form"),
    Layer("polynomial.find_monic_factor", "polynomial", "find_monic_factor"),
    Layer(
        "exponents.exponent",
        "exponents",
        "exponent",
        probe_name="iterations",
        probe=lambda result: result.exponent or 0,
    ),
    Layer("digraph.walk_count", "digraph", "walk_count"),
    Layer("families.build_family", "families", "build_family"),
    Layer("families.closed_form_charpoly", "families", "closed_form_charpoly"),
    Layer("verify.build_row", "verify", "build_row"),
    Layer("verify.distinctness_check", "verify", "distinctness_check"),
    Layer("verify.to_json_doc", "verify", "to_json_doc", owner="VerificationReport"),
)


class Tracer:
    """Collects spans while installed; one instance per traced sweep."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.probes: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        probes = self.probes
        clock = time.process_time
        name = layer.name
        probe = layer.probe
        probe_key = f"{name}.{layer.probe_name}"
        active = [0]  # open spans of this layer, to flag the outermost

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[0] == 0
            stack.append(index)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, outermost)
            if probe is not None:
                probes[probe_key] = probes.get(probe_key, 0) + probe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        try:
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer.module}")
                if layer.owner is not None:
                    owner = getattr(module, layer.owner)
                    original = owner.__dict__[layer.attr]
                    setattr(owner, layer.attr, self._wrap(layer, original))
                    restore.append((owner, layer.attr, original))
                    continue
                original = getattr(module, layer.attr)
                wrapped = self._wrap(layer, original)
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            restore.append((mod, key, original))
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s for every layer (zero when unused)."""
        stats = {
            layer.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS
        }
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, outermost) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            if outermost:
                entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return stats

    def write_jsonl(self, fh, sweep: int) -> None:
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            record = {
                "sweep": sweep,
                "id": index,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
