"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of the hardyconj package
with a wrapper, at every module that binds it (the defining module, the
package namespace and every module that imported it by name), so calls
made inside the library are seen too. Each call records one span
(name, start, end, parent span, request id) in memory. Spans are written
out once, when the run ends, and self times are computed from them then.

Nothing here is imported by the untraced timing; the traced run always
happens in its own interpreter.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: Wrapped functions by layer; the layer is the defining module.
WRAPPED = {
    "core": ("apply_antilinear", "frobenius_norm"),
    "conjugations": (
        "orthonormalize",
        "random_unitary",
        "conjugation_from_unitary",
        "sequence_conjugation",
        "phase_conjugation",
        "rotation_conjugation",
        "canonical_conjugation",
        "verify_conjugation",
    ),
    "toeplitz": (
        "explore_symmetry",
        "run_trial",
        "symmetry_report",
        "toeplitz_section",
        "symmetry_residual",
        "matrix_bandwidth",
        "diagonal_multipliers",
        "onesided_condition",
        "entrywise_condition",
        "generate_symmetric_symbol",
        "summarize_exploration",
    ),
    "jsonio": (
        "conjugation_from_spec",
        "load_symbol",
        "save_symbol",
        "record_to_json",
        "report_to_json",
        "cert_to_json",
        "json_line",
        "canonical_json",
    ),
    "cli": ("main",),
}

MODULES = ("hardyconj", *(f"hardyconj.{layer}" for layer in WRAPPED))

CONSTRUCTORS = (
    "conjugations.conjugation_from_unitary",
    "conjugations.sequence_conjugation",
    "conjugations.phase_conjugation",
    "conjugations.rotation_conjugation",
    "conjugations.canonical_conjugation",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for layer, names in WRAPPED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_ms"] = "ms"
    for layer in WRAPPED:
        units[f"{layer}.self_share"] = "ratio"
    units.update({
        "setup.import_scipy_linalg_ms": "ms",
        "setup.import_hardyconj_ms": "ms",
        "toeplitz.residual_gflop": "Gflop-computed",
        "conjugations.a_fill_ratio": "ratio",
        "jsonio.bytes_out": "bytes",
        "trace.overhead_ratio": "ratio",
        "trace.coverage": "ratio",
    })
    return units


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.request_id = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"hardyconj.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observer(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_name, start, end, parent, self.request_id)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, span_name: str):
        """Counter update run after the span closes, outside its time."""
        counters = self.counters
        if span_name in ("jsonio.json_line", "jsonio.canonical_json"):
            def observe(args, result):
                counters["bytes_out"] += len(result.encode("utf-8"))
        elif span_name == "toeplitz.symmetry_residual":
            def observe(args, result):
                n = args[0].dim
                # two complex n x n products, 8 n^3 real flop each
                counters["residual_flop"] += 16 * n**3
        elif span_name in CONSTRUCTORS:
            def observe(args, result):
                a = result.a_matrix
                counters["a_nonzero"] += int(np.count_nonzero(a))
                counters["a_entries"] += a.size
        else:
            return None
        return observe

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")

    def summary(self, requests: int, request_wall_s: float) -> dict[str, float]:
        """Per-request counts and self times, layer shares and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        total_self = sum(self_s.values())
        metrics = {}
        for layer, names in WRAPPED.items():
            layer_self = 0.0
            for name in names:
                key = f"{layer}.{name}"
                metrics[f"{key}.calls"] = calls[key] / requests
                metrics[f"{key}.self_ms"] = self_s[key] * 1e3 / requests
                layer_self += self_s[key]
            metrics[f"{layer}.self_share"] = layer_self / total_self
        c = self.counters
        metrics["toeplitz.residual_gflop"] = c["residual_flop"] / 1e9 / requests
        metrics["conjugations.a_fill_ratio"] = (
            c["a_nonzero"] / c["a_entries"] if c["a_entries"] else 0.0
        )
        metrics["jsonio.bytes_out"] = c["bytes_out"] / requests
        metrics["trace.coverage"] = total_self / request_wall_s
        return metrics
