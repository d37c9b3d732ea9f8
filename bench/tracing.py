"""Span tracing installed from outside the program, and the per-layer metrics.

Each traced function of a ``yaxter`` module is replaced by a wrapper that
records one span per call: name, start, end, parent span, op id and, for the
entangle decisions, the outcome. The modules import public names directly
(``from .baxterize import build_R``), so the wrapper is bound under every name
that referred to the original, in every loaded ``yaxter`` module and in
module-level lists such as ``suite.CRITERIA``. ``uninstall`` restores them.

Spans stay in memory until the run ends; ``write`` then saves them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "suite", "verify", "baxterize", "catalog", "entangle", "dynamics",
          "gates", "linalg")

CRITERIA = ("braid", "qybe", "asymptotics", "unitarity", "inverse_unitarity",
            "universality", "hamiltonians", "evolution", "cnot", "bell")

QYBE_VARIANTS = ("verify.qybe_residual", "verify.qybe_residual_additive",
                 "verify.qybe_residual_rational")

#: functions wrapped per layer: the public calls the per-layer metrics read.
TRACED = {
    "cli": ("main",),
    "suite": ("run_suite",) + tuple(f"criterion_{c}" for c in CRITERIA),
    "verify": ("scan_qybe", "scan_unitarity", "scan_braid", "qybe_residual",
               "qybe_residual_additive", "qybe_residual_rational",
               "unitarity_residual", "conjugate_partner"),
    "baxterize": ("build_R",),
    "catalog": ("build_b", "braid_residual"),
    "entangle": ("classify", "brylinski_witness", "apply"),
    "dynamics": ("hamiltonian_fd", "gauge_unitary", "hamiltonian_closed", "evolve"),
    "gates": ("theorem1_decomposition", "cnot_via_evolution"),
    "linalg": ("expm_hermitian", "inverse"),
}

#: real floating-point operations of one QYBE residual (the 8x8 triple-product
#: gap), counted from its kernels rather than measured:
#: 4 complex 8x8 products (512 multiply-adds of 8 flops each) = 16384,
#: 6 Kronecker products 2x2 (x) 4x4 (64 complex products of 6 flops) = 2304,
#: the 64-entry complex difference = 128, and the Frobenius norm = 256.
QYBE_FLOPS_PER_CALL = 4 * 512 * 8 + 6 * 64 * 6 + 64 * 2 + 64 * 4

#: (metric, aggregate, spans summed): calls, self or inclusive ms, per traced op.
SPAN_METRICS = (
    ("cli.main.self_ms", "self_ms", ("cli.main",)),
    *((f"suite.criterion_{c}.ms", "ms", (f"suite.criterion_{c}",)) for c in CRITERIA),
    ("verify.scan_qybe.self_ms", "self_ms", ("verify.scan_qybe",)),
    ("verify.scan_unitarity.self_ms", "self_ms", ("verify.scan_unitarity",)),
    ("verify.scan_braid.self_ms", "self_ms", ("verify.scan_braid",)),
    ("verify.qybe_residual.calls", "calls", QYBE_VARIANTS),
    ("verify.qybe_residual.self_ms", "self_ms", QYBE_VARIANTS),
    ("verify.unitarity_residual.calls", "calls", ("verify.unitarity_residual",)),
    ("verify.unitarity_residual.self_ms", "self_ms", ("verify.unitarity_residual",)),
    ("verify.conjugate_partner.calls", "calls", ("verify.conjugate_partner",)),
    ("baxterize.build_R.calls", "calls", ("baxterize.build_R",)),
    ("baxterize.build_R.self_ms", "self_ms", ("baxterize.build_R",)),
    ("catalog.build_b.calls", "calls", ("catalog.build_b",)),
    ("catalog.braid_residual.calls", "calls", ("catalog.braid_residual",)),
    ("catalog.braid_residual.self_ms", "self_ms", ("catalog.braid_residual",)),
    ("entangle.classify.calls", "calls", ("entangle.classify",)),
    ("entangle.classify.self_ms", "self_ms", ("entangle.classify",)),
    ("entangle.brylinski_witness.calls", "calls", ("entangle.brylinski_witness",)),
    ("entangle.brylinski_witness.self_ms", "self_ms", ("entangle.brylinski_witness",)),
    ("entangle.apply.calls", "calls", ("entangle.apply",)),
    ("dynamics.hamiltonian_fd.calls", "calls", ("dynamics.hamiltonian_fd",)),
    ("dynamics.hamiltonian_fd.self_ms", "self_ms", ("dynamics.hamiltonian_fd",)),
    ("dynamics.gauge_unitary.calls", "calls", ("dynamics.gauge_unitary",)),
    ("dynamics.hamiltonian_closed.self_ms", "self_ms", ("dynamics.hamiltonian_closed",)),
    ("dynamics.evolve.calls", "calls", ("dynamics.evolve",)),
    ("gates.theorem1_decomposition.ms", "ms", ("gates.theorem1_decomposition",)),
    ("gates.cnot_via_evolution.ms", "ms", ("gates.cnot_via_evolution",)),
    ("linalg.expm_hermitian.calls", "calls", ("linalg.expm_hermitian",)),
    ("linalg.inverse.calls", "calls", ("linalg.inverse",)),
)

_UNITS = {"calls": "count/op", "self_ms": "ms/op", "ms": "ms/op"}

#: every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    *((name, _UNITS[agg]) for name, agg, _ in SPAN_METRICS),
    ("verify.qybe.mflop_per_s_computed", "Mflop/s"),
    ("entangle.witness_hit_ratio", "ratio"),
    ("entangle.unknown", "count"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.ops", "count"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.count_mismatches", "count"),
)

#: outcome recorded on the spans of the entangle decisions.
_OUTCOMES = {
    "entangle.classify": lambda result: getattr(getattr(result, "classification", None),
                                                "value", None),
    "entangle.brylinski_witness": lambda result: "miss" if result is None else "hit",
}


class Tracer:
    """Spans ``(name id, start ns, end ns, parent index, op, outcome)`` in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.missing: list[str] = []    # traced names the program no longer defines
        self.op = -1
        self._op_first: dict[int, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer, functions in TRACED.items():
            module = sys.modules[f"yaxter.{layer}"]
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrappers[id(original)] = self._wrap(layer, f"{layer}.{fn_name}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "yaxter" and not mod_name.startswith("yaxter."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, list):
                    for k, item in enumerate(value):
                        if id(item) in wrappers:
                            self._restore.append((value, k, item))
                            value[k] = wrappers[id(item)]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, list):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, errors = self.spans, self._stack, self.errors
        outcome_of = _OUTCOMES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outcome = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome_of is not None:
                    outcome = outcome_of(result)
                return result
            except Exception:
                errors[layer] += 1
                raise
            finally:
                spans[index] = (name_id, start, clock(), parent, self.op, outcome)
                stack.pop()

        return wrapper

    def write(self, path) -> None:
        """Save the names and spans as gzipped JSON."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "outcome"],
                       "names": self.names, "spans": self.spans}, f)

    def begin_op(self, op: int) -> None:
        """Tag the spans that follow with ``op``."""
        self.op = op
        self._op_first[op] = len(self.spans)

    def op_counts(self, op: int, name: str, within: tuple[str, int] | None = None) -> int:
        """Calls of ``name`` in one op; with ``within=(ancestor, k)`` only those
        under the k-th call (0-based) of ``ancestor`` in that op."""
        first = self._op_first[op]
        last = min((i for i in self._op_first.values() if i > first), default=len(self.spans))
        ids = {n: i for i, n in enumerate(self.names)}
        if name not in ids or (within is not None and within[0] not in ids):
            return 0
        ancestor = None
        if within is not None:
            calls = [i for i in range(first, last) if self.spans[i][0] == ids[within[0]]]
            if within[1] >= len(calls):
                return 0
            ancestor = calls[within[1]]
        count = 0
        for i in range(first, last):
            if self.spans[i][0] != ids[name]:
                continue
            parent = self.spans[i][3]
            if ancestor is not None:
                while parent > ancestor:
                    parent = self.spans[parent][3]
            count += ancestor is None or parent == ancestor
        return count


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics over ``ops`` traced ops; self time excludes child spans."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, total_ns, self_ns, outcomes = Counter(), Counter(), Counter(), Counter()
    for i, (name_id, start, end, _, _, outcome) in enumerate(spans):
        name = tracer.names[name_id]
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        if outcome is not None:
            outcomes[(name, outcome)] += 1
    per_op = max(ops, 1)
    source = {"calls": calls, "self_ms": self_ns, "ms": total_ns}
    scale = {"calls": 1.0, "self_ms": 1e-6, "ms": 1e-6}
    out = {}
    for metric, agg, names in SPAN_METRICS:
        out[metric] = sum(source[agg][n] for n in names) * scale[agg] / per_op
    qybe_calls = sum(calls[n] for n in QYBE_VARIANTS)
    qybe_self_s = sum(self_ns[n] for n in QYBE_VARIANTS) * 1e-9
    out["verify.qybe.mflop_per_s_computed"] = (
        qybe_calls * QYBE_FLOPS_PER_CALL / qybe_self_s / 1e6 if qybe_self_s > 0 else 0.0)
    searches = calls["entangle.brylinski_witness"]
    hits = outcomes[("entangle.brylinski_witness", "hit")]
    out["entangle.witness_hit_ratio"] = hits / searches if searches else 0.0
    out["entangle.unknown"] = outcomes[("entangle.classify", "unknown")]
    for layer in LAYERS:
        out[f"{layer}.errors"] = tracer.errors[layer]
    out["trace.ops"] = ops
    return out
