"""Benchmark of the ``vqclass`` command-line pipeline, run from a source checkout.

    python3 bench/run.py --workload hw174_n5_exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --quick --seconds 1   # smoke-sized inputs

Each workload writes a seeded CSV and config, then runs the CLI
(``python -m vqclass`` with ``src`` on the path) in fresh child processes,
one at a time, with BLAS pinned to one thread. With ``--trace 0`` it
reports the end-to-end metrics:

- ``pipeline_s``: median wall time of the workload's command sequence;
- ``setup_s``: median wall time of a fresh-process ``vqclass prep``;
- ``peak_rss_mb``: median over runs of the largest child ``ru_maxrss``.

With ``--trace 1`` it alternates untraced and traced runs (see
``tracing.py``) and reports the per-layer metrics instead. Every run's
artifacts pass through the correctness gate in ``checks.py`` outside
the timed window; a run that fails it counts as a failed operation.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, for this process and every child
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_run  # noqa: E402
from tracing import LAYER_NOTES, LAYER_UNITS, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs, quick  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_RUNS = 9
MIN_RUNS = 2
CHILD_TIMEOUT_S = 120.0
# no new run starts this long after measuring began, so one invocation
# stays well inside three minutes however slow the machine is
DEADLINE_S = 100.0
END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Run:
    """One timed command sequence: wall time, peak memory, gate verdict."""

    wall_s: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)


class Bench:
    """Runs one workload's child processes inside a private work directory."""

    def __init__(self, w: Workload, seed: int, workdir: Path, expect_reference: bool):
        self.w = w
        self.workdir = workdir
        self.cfg = make_inputs(w, seed, workdir)
        self.expect = w.reference if expect_reference else None
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_VARS)
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str]) -> tuple[float, int, float]:
        """Run one child to completion: (wall s, exit code, ru_maxrss MB)."""
        with open(self.workdir / "child.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=log)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, verbs: tuple[str, ...], traced: bool = False) -> Run:
        """Time ``verbs`` in fresh processes on a fresh output dir, then check it."""
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = Run()
        for verb in verbs:
            cli_args = [verb, "--config", "config.json"]
            trace_file = self.workdir / f"trace_{verb}.json"
            if traced:
                argv = [sys.executable, str(BENCH / "tracing.py"), str(trace_file), "--",
                        *cli_args]
            else:
                argv = [sys.executable, "-m", "vqclass", *cli_args]
            wall, rc, rss = self.spawn(argv)
            result.wall_s += wall
            result.rss_mb = max(result.rss_mb, rss)
            if rc != 0:
                log = (self.workdir / "child.log").read_text(encoding="utf-8", errors="replace")
                result.problems.append(f"vqclass {verb} exited with {rc}: {log[-2000:]}")
                break
            if traced:
                result.records.append(json.loads(trace_file.read_text(encoding="utf-8")))
        if not result.problems:
            try:
                result.problems = check_run(out, verbs, self.cfg, self.workdir / "data.csv",
                                            self.expect if verbs == self.w.verbs else None)
            except Exception:  # a malformed artifact fails the gate
                result.problems = [f"check raised {traceback.format_exc(limit=-2)}"]
        self.attempted += 1
        if result.problems:
            self.failed += 1
            for problem in result.problems:
                print(f"FAILED {self.w.name} {'+'.join(verbs)}: {problem}", file=sys.stderr)
        return result


def _more(start: float, seconds: float, too_few: bool) -> bool:
    elapsed = time.perf_counter() - start
    return (too_few or elapsed < seconds) and elapsed < DEADLINE_S


def _ok(runs: list[Run]) -> list[Run]:
    return [r for r in runs if not r.problems] or runs


def measure_end_to_end(b: Bench, seconds: float, min_runs: int, setup_runs: int) -> dict:
    # set-up samples are interleaved with the pipeline runs, so that both
    # medians see the same stretch of machine load
    setup: list[Run] = []
    runs: list[Run] = []
    start = time.perf_counter()
    while _more(start, seconds, len(runs) < min_runs):
        setup.append(b.run(("prep",)))
        runs.append(b.run(b.w.verbs))
    while len(setup) < setup_runs:
        setup.append(b.run(("prep",)))
    walls = [r.wall_s for r in _ok(runs)]
    print(f"  {len(walls)} pipeline runs: min {min(walls):.4f} s, max {max(walls):.4f} s; "
          f"{len(setup)} set-up runs")
    return {
        "pipeline_s": statistics.median(walls),
        "setup_s": statistics.median(r.wall_s for r in _ok(setup)),
        "peak_rss_mb": statistics.median(r.rss_mb for r in _ok(runs)),
    }


def measure_layers(b: Bench, seconds: float) -> dict:
    per_run: list[dict] = []
    absent: set[str] = set()
    pairs = 0
    start = time.perf_counter()
    while _more(start, seconds, pairs == 0):
        pairs += 1
        plain = b.run(b.w.verbs)
        traced = b.run(b.w.verbs, traced=True)
        if len(traced.records) == len(b.w.verbs):
            layers, missing = summarize(traced.records, b.w.rows, traced.wall_s, plain.wall_s)
            per_run.append(layers)
            absent.update(missing)
    if absent:
        print(f"  absent (recorded as 0): {', '.join(sorted(absent))}")
    print(f"  per-layer medians over {len(per_run)} of {pairs} traced runs")
    if not per_run:
        return dict.fromkeys(LAYER_UNITS, 0.0)
    return {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}


def environment() -> dict:
    """What the numbers were measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "child_threads": THREAD_VARS,
    }


def bench_workload(w: Workload, seed: int, seconds: float, trace: bool,
                   is_quick: bool) -> tuple[dict, int, int]:
    workdir = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        b = Bench(quick(w) if is_quick else w, seed, workdir, expect_reference=seed == 1)
        print(f"workload {w.name} seed {seed}: {b.w.label}")
        b.run(("prep",))  # warm-up: bytecode cache and page cache, not timed
        if trace:
            metrics = measure_layers(b, seconds)
            units = LAYER_UNITS
        else:
            metrics = measure_end_to_end(b, seconds, 1 if is_quick else MIN_RUNS,
                                         3 if is_quick else SETUP_RUNS)
            units = END_TO_END_UNITS
        for name, value in metrics.items():
            note = LAYER_NOTES[name] if trace else ""
            print(f"  {name:<32} {value:>16.6g} {units[name]:<5} {note}".rstrip())
        print(f"  operations attempted {b.attempted}, failed {b.failed}")
        result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
        return result, b.attempted, b.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs for a smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "vqclass" / "cli.py").is_file():
        print(f"error: no vqclass source at {SRC / 'vqclass'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vqclass

    if Path(vqclass.__file__).resolve().parent != SRC / "vqclass":
        print(f"error: imported vqclass from {vqclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        result, a, f = bench_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), args.quick)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
