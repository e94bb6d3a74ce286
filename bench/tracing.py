"""Per-layer tracing of one ``vqclass`` CLI invocation, from outside the package.

Run as a script, this is the traced child process:

    PYTHONPATH=src python3 bench/tracing.py OUT.json -- report --config cfg.json

It imports the package, replaces module-level functions with timing
wrappers at the names the CLI looks them up under, runs
``vqclass.cli.main`` and writes the raw spans and work counters to
OUT.json. Nothing under ``src/`` is edited. ``summarize`` turns the raw
records of one or more children into the per-layer metrics listed in
``LAYER_METRICS``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

# (module, attribute, span name). A span is named after the layer that
# implements the function, whichever module the caller looks it up in;
# the featmap encoder, for instance, is reached through vqc and qkernel.
PATCHES = [
    ("vqclass.cli", "cmd_prep", "cli.cmd_prep"),
    ("vqclass.cli", "cmd_train", "cli.cmd_train"),
    ("vqclass.cli", "cmd_eval", "cli.cmd_eval"),
    ("vqclass.cli", "cmd_kernel", "cli.cmd_kernel"),
    ("vqclass.cli", "cmd_report", "cli.cmd_report"),
    ("vqclass.cli", "kernel_matrix", "qkernel.kernel_matrix"),
    ("vqclass.cli", "kernel_to_csv", "qkernel.kernel_to_csv"),
    ("vqclass.vqc", "encode", "featmap.encode"),
    ("vqclass.qkernel", "encode", "featmap.encode"),
    ("vqclass.featmap", "run_circuit", "statevec.run_circuit"),
    ("vqclass.vqc", "apply_ops", "statevec.apply_ops"),
    ("vqclass.vqc", "sample_counts", "statevec.sample_counts"),
    ("vqclass.vqc", "build_ansatz", "ansatz.build_ansatz"),
    ("vqclass.ansatz", "build_ansatz", "ansatz.build_ansatz"),
    ("vqclass.vqc", "apply_ansatz", "ansatz.apply_ansatz"),
    ("vqclass.vqc", "spsa_minimize", "spsa.spsa_minimize"),
    ("vqclass.vqc", "train", "vqc.train"),
    ("vqclass.vqc", "predict_batch", "vqc.predict_batch"),
]
# Every public function of these modules is wrapped as "<layer>.<name>";
# the CLI reaches them as attributes of the module object.
WHOLE_MODULES = ("prep", "metrics")
LOSS_SPAN = "vqc.loss_eval"

# Per-layer metrics: (name, unit, better, end-to-end metric it should
# move, workloads where it should move it, workloads where it is
# predicted idle). "computed" in a name marks a count derived from
# shapes, not a measurement.
LAYER_METRICS = [
    ("statevec.apply_ops.s", "s", "lower", "pipeline_s", "hw174_n5_exact hw174_n12_exact", "kernel_n8_1200"),
    ("statevec.apply_ops.calls", "count", "lower", "pipeline_s", "hw174_n5_exact hw174_n12_exact", "kernel_n8_1200"),
    ("statevec.gate_applications", "count", "lower", "pipeline_s", "hw174_n5_exact hw174_n12_exact", "kernel_n8_1200"),
    ("statevec.bytes_moved_computed", "B", "lower", "pipeline_s", "hw174_n5_exact hw174_n12_exact", "kernel_n8_1200"),
    ("statevec.sample_counts.s", "s", "lower", "pipeline_s", "hw174_n5_shots", "hw174_n5_exact hw174_n12_exact"),
    ("statevec.sample_counts.calls", "count", "lower", "pipeline_s", "hw174_n5_shots", "hw174_n5_exact hw174_n12_exact"),
    ("statevec.run_circuit.s", "s", "lower", "pipeline_s", "kernel_n8_1200 hw174_n12_exact", ""),
    ("vqc.loss_eval.self_s", "s", "lower", "pipeline_s", "hw174_n5_shots", "hw174_n5_exact hw174_n12_exact"),
    ("vqc.loss_eval.calls", "count", "lower", "pipeline_s", "hw174_n5_exact hw174_n5_shots hw174_n12_exact", "kernel_n8_1200"),
    ("vqc.loss_eval.ms_p50", "ms", "lower", "pipeline_s", "hw174_n5_exact hw174_n5_shots hw174_n12_exact", "kernel_n8_1200"),
    ("vqc.loss_eval.ms_p90", "ms", "lower", "pipeline_s", "hw174_n5_exact hw174_n5_shots hw174_n12_exact", "kernel_n8_1200"),
    ("vqc.predict_batch.s", "s", "lower", "pipeline_s", "hw174_n12_exact", "kernel_n8_1200"),
    ("featmap.encode.s", "s", "lower", "pipeline_s", "kernel_n8_1200 hw174_n12_exact", ""),
    ("featmap.encode.self_s", "s", "lower", "pipeline_s", "kernel_n8_1200 hw174_n12_exact", ""),
    ("featmap.encode.calls", "count", "lower", "pipeline_s", "kernel_n8_1200 hw174_n12_exact", ""),
    ("featmap.encodes_per_sample", "ratio", "lower", "pipeline_s", "kernel_n8_1200 hw174_n12_exact", ""),
    ("qkernel.kernel_matrix.s", "s", "lower", "pipeline_s", "kernel_n8_1200", ""),
    ("qkernel.kernel_matrix.self_s", "s", "lower", "pipeline_s", "kernel_n8_1200", ""),
    ("qkernel.entries", "count", "lower", "pipeline_s", "kernel_n8_1200", ""),
    ("qkernel.gemm_flops_computed", "flop", "lower", "pipeline_s", "kernel_n8_1200", ""),
    ("qkernel.kernel_to_csv.s", "s", "lower", "pipeline_s", "kernel_n8_1200", ""),
    ("ansatz.build_ansatz.calls", "count", "lower", "pipeline_s", "hw174_n12_exact", "kernel_n8_1200"),
    ("ansatz.apply_ansatz.s", "s", "lower", "pipeline_s", "hw174_n12_exact", "kernel_n8_1200"),
    ("ansatz.apply_ansatz.calls", "count", "lower", "pipeline_s", "hw174_n12_exact", "kernel_n8_1200"),
    ("spsa.iterations", "count", "lower", "pipeline_s", "hw174_n5_exact", "kernel_n8_1200"),
    ("spsa.self_s", "s", "lower", "pipeline_s", "hw174_n5_exact", "kernel_n8_1200"),
    ("prep.s", "s", "lower", "setup_s", "all", ""),
    ("prep.load_csv.calls", "count", "lower", "setup_s", "all", ""),
    ("metrics.full_report.s", "s", "lower", "pipeline_s", "all", ""),
    ("cli.import_s", "s", "lower", "setup_s", "all", ""),
    ("cli.cmd_prep.s", "s", "lower", "pipeline_s", "all", ""),
    ("cli.cmd_train.s", "s", "lower", "pipeline_s", "hw174_n5_exact hw174_n5_shots hw174_n12_exact", "kernel_n8_1200"),
    ("cli.cmd_eval.s", "s", "lower", "pipeline_s", "hw174_n5_exact hw174_n5_shots hw174_n12_exact", "kernel_n8_1200"),
    ("cli.cmd_kernel.s", "s", "lower", "pipeline_s", "all", ""),
    ("cli.self_s", "s", "lower", "pipeline_s", "all", ""),
    ("trace.pipeline_s", "s", "lower", "", "", ""),
    ("trace.untraced_pipeline_s", "s", "lower", "", "", ""),
    ("trace.overhead_ratio", "ratio", "lower", "", "", ""),
    ("trace.coverage", "ratio", "higher", "", "", ""),
]
LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}
LAYER_NOTES = {
    name: (f"moves {moves} on {on}" if moves else "") + (f"; idle on {idle}" if idle else "")
    for name, _, _, moves, on, idle in LAYER_METRICS
}


class Tracer:
    """Nested spans kept in memory: calls, inclusive and self time per name.

    Self time is inclusive time minus the time of wrapped callees.
    """

    def __init__(self) -> None:
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {LOSS_SPAN: []}
        self.absent: set[str] = set()
        self._child_time = [0.0]

    def record(self, name: str, duration: float, child: float) -> None:
        span = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        span["calls"] += 1
        span["s"] += duration
        span["self_s"] += duration - child
        if name in self.durations:
            self.durations[name].append(duration)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name: str, on_result=None):
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                self.record(name, duration, child)
            if on_result is not None:
                try:
                    on_result(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.absent.add(f"work counter of {name}")
            return result

        return wrapper


def _count_apply_ops(tracer: Tracer, args, kwargs, result) -> None:
    amps = args[0] if args else kwargs["amplitudes"]
    ops = args[2] if len(args) > 2 else kwargs["ops"]
    rows = amps.size // amps.shape[-1]
    gates = len(ops) * rows
    tracer.count("statevec.gate_applications", gates)
    # each gate reads and writes every amplitude once: 16 B complex, twice
    tracer.count("statevec.bytes_moved_computed", gates * amps.shape[-1] * 16 * 2)


def _count_kernel(tracer: Tracer, args, kwargs, result) -> None:
    rows, cols = result.values.shape
    a = args[0] if args else kwargs["samples_a"]
    dim = 1 << len(a[0])  # one qubit per feature column
    tracer.count("qkernel.entries", rows * cols)
    # complex multiply-add is 8 real flops
    tracer.count("qkernel.gemm_flops_computed", 8 * rows * cols * dim)


def _count_spsa(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("spsa.iterations", len(result.loss_history))


COUNTERS = {
    "statevec.apply_ops": _count_apply_ops,
    "qkernel.kernel_matrix": _count_kernel,
    "spsa.spsa_minimize": _count_spsa,
}


def install(tracer: Tracer) -> None:
    """Wrap every patch target; record the missing ones as absent."""
    targets = list(PATCHES)
    for layer in WHOLE_MODULES:
        try:
            mod = importlib.import_module(f"vqclass.{layer}")
        except ImportError:
            tracer.absent.add(f"vqclass.{layer}")
            continue
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__):
                targets.append((mod.__name__, attr, f"{layer}.{attr}"))
    replaced: dict[int, object] = {}  # id(original) -> wrapper
    for module_name, attr, name in targets:
        try:
            mod = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.add(f"{module_name}.{attr}")
            continue
        fn = getattr(mod, attr, None)
        if not callable(fn):
            tracer.absent.add(f"{module_name}.{attr}")
            continue
        if id(fn) not in replaced:
            impl = _objective_timer(tracer, fn) if name == "spsa.spsa_minimize" else fn
            replaced[id(fn)] = tracer.wrap(impl, name, COUNTERS.get(name))
        setattr(mod, attr, replaced[id(fn)])
    # the CLI dispatches verbs through a name -> function table built at import
    for value in vars(importlib.import_module("vqclass.cli")).values():
        if isinstance(value, dict):
            for key, fn in list(value.items()):
                if id(fn) in replaced:
                    value[key] = replaced[id(fn)]


def _objective_timer(tracer: Tracer, spsa_minimize):
    """spsa_minimize with its objective wrapped as one loss-evaluation span."""

    def run(objective, *args, **kwargs):
        return spsa_minimize(tracer.wrap(objective, LOSS_SPAN), *args, **kwargs)

    return run


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py OUT.json -- <vqclass arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("vqclass.cli")
    tracer.record("cli.import", time.perf_counter() - start, 0.0)
    install(tracer)
    rc = tracer.wrap(cli.main, "cli.main")(cli_args)
    record = {
        "spans": tracer.spans,
        "counters": tracer.counters,
        "durations": tracer.durations,
        "absent": sorted(tracer.absent),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(records: list[dict], input_rows: int, traced_wall: float,
              untraced_wall: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pipeline run made of ``records``
    (one per child process), plus the names of absent patch targets."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    durations: list[float] = []
    absent: set[str] = set()
    for rec in records:
        for name, span in rec["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += span[key]
        for name, value in rec["counters"].items():
            counters[name] = counters.get(name, 0) + value
        durations.extend(rec["durations"].get(LOSS_SPAN, []))
        absent.update(rec["absent"])

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def layer_self(layer: str, exclude=()) -> float:
        return sum(s["self_s"] for n, s in spans.items()
                   if n.startswith(layer + ".") and n not in exclude)

    loss_ms = [1e3 * d for d in durations] or [0.0]
    out = {
        "statevec.apply_ops.s": span("statevec.apply_ops", "s"),
        "statevec.apply_ops.calls": span("statevec.apply_ops", "calls"),
        "statevec.gate_applications": counters.get("statevec.gate_applications", 0),
        "statevec.bytes_moved_computed": counters.get("statevec.bytes_moved_computed", 0),
        "statevec.sample_counts.s": span("statevec.sample_counts", "s"),
        "statevec.sample_counts.calls": span("statevec.sample_counts", "calls"),
        "statevec.run_circuit.s": span("statevec.run_circuit", "s"),
        "vqc.loss_eval.self_s": span(LOSS_SPAN, "self_s"),
        "vqc.loss_eval.calls": span(LOSS_SPAN, "calls"),
        "vqc.loss_eval.ms_p50": _quantile(loss_ms, 0.5),
        "vqc.loss_eval.ms_p90": _quantile(loss_ms, 0.9),
        "vqc.predict_batch.s": span("vqc.predict_batch", "s"),
        "featmap.encode.s": span("featmap.encode", "s"),
        "featmap.encode.self_s": span("featmap.encode", "self_s"),
        "featmap.encode.calls": span("featmap.encode", "calls"),
        "featmap.encodes_per_sample": span("featmap.encode", "calls") / input_rows,
        "qkernel.kernel_matrix.s": span("qkernel.kernel_matrix", "s"),
        "qkernel.kernel_matrix.self_s": span("qkernel.kernel_matrix", "self_s"),
        "qkernel.entries": counters.get("qkernel.entries", 0),
        "qkernel.gemm_flops_computed": counters.get("qkernel.gemm_flops_computed", 0),
        "qkernel.kernel_to_csv.s": span("qkernel.kernel_to_csv", "s"),
        "ansatz.build_ansatz.calls": span("ansatz.build_ansatz", "calls"),
        "ansatz.apply_ansatz.s": span("ansatz.apply_ansatz", "s"),
        "ansatz.apply_ansatz.calls": span("ansatz.apply_ansatz", "calls"),
        "spsa.iterations": counters.get("spsa.iterations", 0),
        "spsa.self_s": span("spsa.spsa_minimize", "self_s"),
        "prep.s": layer_self("prep"),
        "prep.load_csv.calls": span("prep.load_csv", "calls"),
        "metrics.full_report.s": span("metrics.full_report", "s"),
        "cli.import_s": span("cli.import", "s"),
        "cli.cmd_prep.s": span("cli.cmd_prep", "s"),
        "cli.cmd_train.s": span("cli.cmd_train", "s"),
        "cli.cmd_eval.s": span("cli.cmd_eval", "s"),
        "cli.cmd_kernel.s": span("cli.cmd_kernel", "s"),
        "cli.self_s": layer_self("cli", exclude=("cli.import",)),
        "trace.pipeline_s": traced_wall,
        "trace.untraced_pipeline_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.coverage": sum(s["self_s"] for s in spans.values()) / traced_wall,
    }
    return out, sorted(absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
