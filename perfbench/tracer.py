"""In-memory span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files, at the module
attributes the package looks up when it calls across a layer boundary
(``dickestark.scan.build_hamiltonian``, ``numpy.linalg.eigh``, ...), and are
removed again when the traced phase ends. The untraced run never imports
this module's wrappers, so its timings carry no tracing cost.

A span is ``[name, start, end, parent_index, op_id]``. Self time is a span's
duration minus the time its child spans cover; one thread runs, so children
never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer span name, "module:attribute" or "module:Class.method") pairs. A layer
# that the package reaches through several imported names is wrapped at each.
WRAP_POINTS = (
    ("model.build_hamiltonian", "dickestark.scan:build_hamiltonian"),
    ("model.build_hamiltonian", "dickestark.protocol:build_hamiltonian"),
    ("model.require_hermitian", "dickestark.model:Operator.require_hermitian"),
    ("dynamics.eigh", "numpy.linalg:eigh"),
    ("dynamics.propagate", "dickestark.scan:propagate"),
    ("dynamics.evolve", "dickestark.protocol:evolve"),
    ("dynamics.observables", "dickestark.scan:observables"),
    ("dynamics.observables", "dickestark.dynamics:observables"),
    ("scan.resonance_scan", "dickestark.scan:resonance_scan"),
    ("scan.peak_report", "dickestark.scan:peak_report"),
    ("scan.detect_peaks", "dickestark.scan:detect_peaks"),
    ("effective.solve_resonance", "dickestark.effective:solve_resonance"),
    ("effective.solve_resonance", "dickestark.protocol:solve_resonance"),
    ("effective.tilde_frequency", "dickestark.effective:tilde_frequency"),
    ("effective.pulse_duration", "dickestark.effective:pulse_duration"),
    ("effective.pulse_duration", "dickestark.protocol:pulse_duration"),
    ("effective.rwa_validity_report", "dickestark.effective:rwa_validity_report"),
    ("protocol.compile", "dickestark.protocol:compile_dicke_ladder"),
    ("protocol.compile", "dickestark.protocol:compile_ghz4"),
    ("protocol.run_protocol", "dickestark.protocol:run_protocol"),
    ("validate.run_validation", "dickestark.validate:run_validation"),
    ("cli.main", "dickestark.cli:main"),
    # the CLI imports the layers' functions by name
    ("dynamics.observables", "dickestark.cli:observables"),
    ("scan.resonance_scan", "dickestark.cli:resonance_scan"),
    ("scan.peak_report", "dickestark.cli:peak_report"),
    ("effective.solve_resonance", "dickestark.cli:solve_resonance"),
    ("effective.pulse_duration", "dickestark.cli:pulse_duration"),
    ("effective.rwa_validity_report", "dickestark.cli:rwa_validity_report"),
    ("protocol.compile", "dickestark.cli:compile_dicke_ladder"),
    ("protocol.compile", "dickestark.cli:compile_ghz4"),
    ("protocol.run_protocol", "dickestark.cli:run_protocol"),
)


def _eigh_counts(tracer: "Tracer", args, kwargs) -> None:
    matrix = args[0] if args else kwargs["a"]
    tracer.add("dynamics.eigh.dim3_sum", int(matrix.shape[-1]) ** 3)
    tracer.add("dynamics.eigh.bytes_in", int(matrix.nbytes))


def _evolve_counts(tracer: "Tracer", args, kwargs) -> None:
    samples = kwargs.get("samples", args[3] if len(args) > 3 else 400)
    tracer.add("dynamics.evolve.samples", int(samples))


# Counts recorded at the same boundaries as the spans.
_COUNTERS = {"dynamics.eigh": _eigh_counts, "dynamics.evolve": _evolve_counts}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        for name, where in WRAP_POINTS:
            module_name, attr = where.split(":")
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and total self time in milliseconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_ms"] += own * 1e3
        return dict(out)


def merge_summaries(into: dict, other: dict) -> None:
    for name, entry in other.items():
        target = into.setdefault(name, {"calls": 0, "self_ms": 0.0})
        target["calls"] += entry["calls"]
        target["self_ms"] += entry["self_ms"]
