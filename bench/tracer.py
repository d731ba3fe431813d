"""In-memory span tracer that wraps the package's public functions.

Each wrapped function is replaced, at the module attribute its callers
look it up by, with a wrapper that records a span: name, layer, start,
end, parent span and op id. Self time is a span's duration minus the
time of its direct children. Functions called once per matrix entry or
per Pauli string (``HOT``) keep only an aggregate count and time, which
is still subtracted from the enclosing span's self time.

Spans are kept in memory and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# (module, attribute, layer) for every lookup the workloads reach. A
# function gets one entry per module that looks it up, because
# ``from x import f`` binds a separate name in each importing module.
TARGETS = [
    ("paulibridge.cli", "main", "cli"),
    ("paulibridge.cli", "parse_pauli_sum", "pauli"),
    ("paulibridge.cli", "serialize_pauli_sum", "pauli"),
    ("paulibridge.cli", "to_dense", "pauli"),
    ("paulibridge.cli", "load_fermion_terms", "fermion"),
    ("paulibridge.cli", "map_hamiltonian", "fermion"),
    ("paulibridge.cli", "compile_bridge", "bridge"),
    ("paulibridge.cli", "decomposition_to_json", "bridge"),
    ("paulibridge.cli", "decomposition_from_json", "bridge"),
    ("paulibridge.cli", "structural_hash", "bridge"),
    ("paulibridge.cli", "reconstruct", "bridge"),
    ("paulibridge.cli", "build_mpo_qr", "mpo"),
    ("paulibridge.cli", "mpo_to_json", "mpo"),
    ("paulibridge.cli", "mpo_from_json", "mpo"),
    ("paulibridge.cli", "mpo_to_dense", "mpo"),
    ("paulibridge.cli", "ground_state_reference", "mps"),
    ("paulibridge.cli", "mps_to_json", "mps"),
    ("paulibridge.cli", "mps_from_json", "mps"),
    ("paulibridge.cli", "sample_strings", "sampler"),
    ("paulibridge.cli", "curate", "sampler"),
    ("paulibridge.cli", "samples_to_text", "sampler"),
    ("paulibridge.cli", "samples_from_text", "sampler"),
    ("paulibridge.cli", "pool_to_text", "sampler"),
    ("paulibridge.cli", "pool_from_text", "sampler"),
    ("paulibridge.cli", "compile_lcu", "lcu"),
    ("paulibridge.cli", "update_coefficients", "lcu"),
    ("paulibridge.cli", "emit_gates", "lcu"),
    ("paulibridge.cli", "program_to_json", "lcu"),
    ("paulibridge.cli", "program_from_json", "lcu"),
    ("paulibridge.cli", "block_encoding_dense", "lcu"),
    ("paulibridge.pauli", "parse_pauli_sum", "pauli"),
    ("paulibridge.pauli", "pauli_product", "pauli"),
    ("paulibridge.pauli", "apply_string", "pauli"),
    ("paulibridge.fermion", "multiply", "pauli"),
    ("paulibridge.mps", "to_dense", "pauli"),
    ("paulibridge.mps", "ground_state_reference", "mps"),
    ("paulibridge.mps", "dense_to_mps", "mps"),
    ("paulibridge.mps", "canonicalize_mps", "mps"),
    ("paulibridge.mps", "mps_to_json", "mps"),
    ("paulibridge.sampler", "sample_strings", "sampler"),
    ("paulibridge.sampler", "curate", "sampler"),
    ("paulibridge.sampler", "pool_from_text", "sampler"),
    ("paulibridge.lcu", "compile_lcu", "lcu"),
    ("paulibridge.lcu", "prep_dense", "lcu"),
    ("paulibridge.lcu", "select_dense", "lcu"),
    ("paulibridge.lcu", "dense_string", "pauli"),
    ("paulibridge.varopt", "pauli_product", "pauli"),
    ("paulibridge.varopt", "apply_string", "pauli"),
    ("paulibridge.varopt", "string_expectation", "mps"),
    ("paulibridge.varopt", "to_dense", "pauli"),
    ("paulibridge.varopt", "sample_strings", "sampler"),
    ("paulibridge.varopt", "curate", "sampler"),
    ("paulibridge.varopt", "assemble_pencil", "varopt"),
    ("paulibridge.varopt", "solve_ritz_dense", "varopt"),
    ("paulibridge.varopt", "solve_ritz_lobpcg", "varopt"),
    ("paulibridge.varopt", "energy_vs_samples_sweep", "varopt"),
]

HOT = {"pauli_product", "string_expectation", "apply_string"}

LAYERS = ("pauli", "fermion", "bridge", "mpo", "mps", "sampler", "varopt", "lcu", "cli")


def _attrs(name, args, result) -> dict:
    """Sizes read off a finished call; kept cheap, it runs inside the parent span."""
    if name == "main":
        return {"rc": result}
    if name == "to_dense":
        return {"dense_bytes": 16 * 4 ** args[0].n_sites}
    if name == "map_hamiltonian":
        return {"terms_out": result.n_terms}
    if name == "compile_bridge":
        return {
            "fragments": len(result.left) + len(result.right),
            "active_pairs": len(result.bridge.active_pairs),
        }
    if name == "build_mpo_qr":
        bonds = result.bond_dims[1:-1]
        return {"bond_sum": sum(bonds), "bond_max": max(bonds, default=1)}
    if name == "sample_strings":
        return {"samples": int(result.size)}
    if name == "curate":
        return {"pool": len(result.strings), "pool_samples": result.n_samples}
    if name == "assemble_pencil":
        k = result.size
        return {"k": k, "lookups": k * k * (args[0].n_terms + 1)}
    if name in ("solve_ritz_dense", "solve_ritz_lobpcg"):
        return {"n_kept": result.n_kept, "iterations": result.iterations}
    if name == "block_encoding_dense":
        return {"dim": result.shape[0]}
    return {}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    op: str | None
    end: float = 0.0
    child_s: float = 0.0
    hot: Counter = field(default_factory=Counter)
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrap = self._wrap_hot if attr in HOT else self._wrap_span
            setattr(module, attr, wrap(original, attr, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.hot = defaultdict(lambda: [0, 0.0])

    def _wrap_span(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, time.perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            span.attrs = _attrs(name, args, result)
            return result

        return wrapper

    def _wrap_hot(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                agg = self.hot[(name, layer)]
                agg[0] += 1
                agg[1] += elapsed
                if self._stack:
                    parent = self.spans[self._stack[-1]]
                    parent.child_s += elapsed
                    parent.hot[name] += 1

        return wrapper

    def round_record(self) -> dict:
        """Spans and hot aggregates of the round traced since the last reset."""
        return {
            "spans": [
                {
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "self_s": s.self_s,
                    "hot": dict(s.hot),
                    "attrs": s.attrs,
                    "error": s.error,
                }
                for s in self.spans
            ],
            "hot": [
                {"name": n, "layer": l, "calls": c, "seconds": t}
                for (n, l), (c, t) in sorted(self.hot.items())
            ],
        }


def dump(path, rounds: list[dict], meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rounds": rounds}, fh)
