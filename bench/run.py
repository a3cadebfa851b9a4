"""carmen benchmark: closed-loop scenario runs, checked against recorded outputs.

Usage (from the repository root):

    python3 bench/run.py --workload {full-curve,tstar,large-n} --seed N --seconds S --trace {0,1}

One client in this process calls ``run_scenario`` and then ``emit_outputs``
for every configuration of the workload, one cycle at a time.  The run
makes as many whole cycles as fill ``--seconds`` at the baseline speed
(and at least 11 runs, so the tail percentile exists), so that two
commits measured with the same ``--seconds`` do the same work.  Every
run's files are read back and compared with the reference recorded for
it in ``bench/references``; the six golden configurations are run first
and compared with ``bench/golden``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and reports per-layer metrics from spans
around carmen's public functions (see ``tracer.py``).  Human-readable
lines come first; the last line of standard output is one JSON object.
Result and span files go to ``bench/.work``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

from checks import compare, read_outcome, same_bytes  # noqa: E402
from tracer import Tracer, children_of, fit_counters, summarize  # noqa: E402
from workloads import GOLDEN, WORKLOADS, Workload, run_key  # noqa: E402

MIN_RUNS = 11  # the tail percentile needs ten runs beyond it
SETUP_REPEATS = 5

# A fresh interpreter imports carmen and builds and validates every config.
_SETUP_PROBE = (
    "import sys, json\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import carmen\n"
    "for kw in json.loads(sys.argv[2]):\n"
    "    carmen.ScenarioConfig(**kw).binding()\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


def pin_blas_threads() -> int:
    """Run BLAS on one thread whatever the environment says; call before numpy loads.

    carmen's designs are at most ~18000 x 7.  At that size a second
    OpenBLAS thread gives no speed-up (nine large-n runs: 5.6-5.7 s wall
    with one thread, 5.8-6.4 s with two on a 2-core Xeon) but spins on the
    second core (11.0 s CPU against 5.7 s), which makes timings noisier on
    a shared machine.  Returns the number of CPUs this process may use.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def load_carmen():
    """Import carmen from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "carmen" / "__init__.py").is_file():
        raise BenchError(f"no carmen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import carmen
    import carmen.cli

    if SRC not in Path(carmen.__file__).resolve().parents:
        raise BenchError(f"imported carmen from {carmen.__file__}, not from {SRC}")
    return carmen.cli


def load_references(workload: Workload) -> dict:
    path = BENCH / "references" / f"{workload.name}.json"
    if not path.is_file():
        raise BenchError(f"no references at {path}")
    return json.loads(path.read_text())["runs"]


def _openblas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        threads = _openblas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": cpu,
        "workload_seed": seed,
    }


def measure_setup(workload: Workload, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds for a fresh interpreter to import carmen and validate the configs."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(workload.configs())]
    subprocess.run(cmd, check=True, cwd=ROOT)  # warms the file cache
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class RunRecord:
    key: str
    seconds: float
    problems: list[str]
    outcome: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Cycle:
    traced: bool
    wall: float
    runs: list[RunRecord]
    spans: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    bytes_written: int = 0


def run_one(cli, kw: dict, ref: dict | None, out_dir: Path) -> RunRecord:
    """One closed-loop request: run, write, then check the written files."""
    key = run_key(kw)
    try:
        cfg = cli.ScenarioConfig(**kw)
        t0 = time.perf_counter()
        result = cli.run_scenario(cfg)
        cli.emit_outputs(result, out_dir)
        seconds = time.perf_counter() - t0
        outcome = read_outcome(out_dir)
    except Exception as exc:  # a failed run is counted, and the loop goes on
        return RunRecord(key, math.nan, [f"{type(exc).__name__}: {exc}"])
    return RunRecord(key, seconds, compare(outcome, ref), outcome)


def run_cycle(cli, configs: list[dict], refs: dict, out_root: Path, tracer: Tracer | None = None) -> Cycle:
    t0 = time.perf_counter()
    runs = [run_one(cli, kw, refs.get(run_key(kw)), out_root / kw["scenario"]) for kw in configs]
    wall = time.perf_counter() - t0
    cycle = Cycle(traced=tracer is not None, wall=wall, runs=runs)
    if tracer is not None:
        cycle.spans, cycle.fits, cycle.bytes_written = tracer.take()
    return cycle


def golden_check(cli, out_root: Path) -> tuple[list[RunRecord], int]:
    """Run the golden configurations; compare values, and count byte-identical files."""
    records, identical = [], 0
    for kw in GOLDEN.configs():
        golden_dir = BENCH / "golden" / kw["scenario"]
        out_dir = out_root / kw["scenario"]
        record = run_one(cli, kw, read_outcome(golden_dir), out_dir)
        records.append(record)
        if record.outcome is not None and same_bytes(golden_dir, out_dir):
            identical += 1
    return records, identical


@dataclass
class Measurement:
    cycles: list[Cycle]
    golden: list[RunRecord]
    golden_identical: int
    missing_spans: list[str]

    def all_runs(self) -> list[RunRecord]:
        return self.golden + [r for c in self.cycles for r in c.runs]


def cycle_count(workload: Workload, seconds: float, trace: bool) -> int:
    """Whole cycles that fill ``seconds`` at the baseline speed.

    At least enough for ``MIN_RUNS`` runs, or one untraced and one traced
    cycle with ``trace``.
    """
    n = int(seconds // workload.cycle_s)
    if trace:
        return max(2, n - n % 2)
    n = max(-(-MIN_RUNS // len(workload.configs())), n)
    # Each configuration runs once per cycle.  With a cycle count that
    # divides ten, the ten runs beyond the tail are whole configurations and
    # the tail falls on the gap between two configurations' run times.
    if n > 1 and 10 % n == 0:
        n = n - 1 if n > 2 else 3
    return n


def measure(
    cli,
    workload: Workload,
    refs: dict,
    seed: int,
    seconds: float,
    trace: bool,
    out_root: Path,
) -> Measurement:
    """Golden check, then the workload's cycles, each in a seed-shuffled order.

    With ``trace`` the cycles alternate untraced and traced.
    """
    golden, identical = golden_check(cli, out_root / "golden")
    configs = workload.configs()
    tracer = Tracer() if trace else None
    cycles: list[Cycle] = []
    for index in range(cycle_count(workload, seconds, trace)):
        order = list(configs)
        random.Random(seed * 1_000_003 + index).shuffle(order)
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        try:
            cycles.append(run_cycle(cli, order, refs, out_root / "runs", tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
    return Measurement(cycles, golden, identical, tracer.missing if tracer else [])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten values beyond it: (value, percentile, count)."""
    xs = sorted(times)
    n = len(xs)
    if n < MIN_RUNS:
        return xs[-1], 100.0, n
    k = n - MIN_RUNS
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(meas: Measurement, setup_times: list[float]) -> tuple[dict, dict]:
    """Metrics of the untraced cycles, and the figures printed beside them."""
    untraced = [c for c in meas.cycles if not c.traced]
    runs = [r for c in untraced for r in c.runs]
    passing = [r for r in runs if r.ok]
    times = [r.seconds for r in passing]
    first = [r for r in untraced[0].runs if r.ok]
    all_runs = meas.all_runs()
    written = [r.outcome for r in all_runs if r.outcome is not None]
    points = sum(o["curve_points"] for o in written)
    tail_value, tail_pct, tail_n = tail(times) if times else (None, None, 0)
    metrics = {
        "runs_per_s": (len(passing) / sum(c.wall for c in untraced), "1/s"),
        "run_s_p50": (statistics.median(times) if times else None, "s"),
        "run_s_tail": (tail_value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "logz_abs_err": (
            statistics.median(
                abs(r.outcome["logz_approx_sum"] - r.outcome["logz_true_sum"]) / r.outcome["n_validate"]
                for r in first
            )
            if first
            else None,
            "nat/pt",
        ),
    }
    extras = {
        "failed_run_frac": (sum(not r.ok for r in all_runs) / len(all_runs), "1"),
        "failed_point_frac": (sum(o["points_failed"] for o in written) / points if points else 0.0, "1"),
        "run_s_tail_percentile": (tail_pct, "%"),
        "run_s_samples": (tail_n, "count"),
    }
    return metrics, extras


# "<span name>.<s or self_s>": inclusive or self seconds of that span
_TIMES = (
    "truths.sample.s",
    "truths.true_log_ratio.s",
    "conjugate.temper_update.s",
    "conjugate.predictive_logpdf.s",
    "conjugate.predictive_sample.s",
    "cli.run_scenario.self_s",
    "cli.emit_outputs.s",
    "tempering.optimize_t.s",
    "tempering.curve.self_s",
    "ratio.estimate_log_ratio.s",
    "ratio.estimate_reverse_log_ratio.s",
    "discriminator.cv_log_odds.self_s",
    "discriminator.fit_logistic.s",
    "testing.t_test_logz.s",
    "numerics.student_t_cdf.s",
)
_CALLS = (
    "truths.true_log_ratio",
    "conjugate.temper_update",
    "conjugate.predictive_logpdf",
    "conjugate.predictive_sample",
    "ratio.estimate_log_ratio",
    "ratio.estimate_reverse_log_ratio",
    "discriminator.cv_log_odds",
    "discriminator.fit_logistic",
    "testing.t_test_logz",
    "numerics.student_t_cdf",
)
_COUNT_UNITS = {"cli.emit_outputs.bytes": "B", "discriminator.fit_logistic.gram_flops": "flop"}


def _cycle_layers(cycle: Cycle) -> tuple[dict, dict, dict]:
    """(times, counts, span summary) of one traced cycle."""
    summ = summarize(cycle.spans, cycle.wall)
    times = {"trace.uncovered_s": summ["uncovered_s"]}
    for metric in _TIMES:
        span, kind = metric.rsplit(".", 1)
        times[metric] = summ[kind].get(span, 0.0)
    counts = {f"{name}.calls": summ["calls"].get(name, 0) for name in _CALLS}
    counts["cli.emit_outputs.bytes"] = cycle.bytes_written
    counts["tempering.optimize_t.evals"] = children_of(cycle.spans, "tempering.optimize_t", "conjugate.predictive_logpdf")
    counts["tempering.grid_points_failed"] = sum(r.outcome["points_failed"] for r in cycle.runs if r.outcome)
    counts.update({f"discriminator.fit_logistic.{k}": v for k, v in fit_counters(cycle.fits).items()})
    return times, counts, summ


def per_layer(meas: Measurement) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of one pass (a traced cycle), module shares, and problems.

    Times are medians over the traced cycles; counts come from the first
    traced cycle and must repeat exactly in the others.
    """
    traced = [c for c in meas.cycles if c.traced]
    layers = [_cycle_layers(c) for c in traced]
    problems = [
        f"counts differ between traced cycles 1 and {i + 1}"
        for i, (_, counts, _) in enumerate(layers)
        if counts != layers[0][1]
    ]
    metrics = {k: (statistics.median(t[k] for t, _, _ in layers), "s") for k in layers[0][0]}
    fit_s = metrics["discriminator.fit_logistic.s"][0]
    iters = layers[0][1]["discriminator.fit_logistic.iters_total"]
    metrics["discriminator.fit_logistic.s_per_iter"] = (fit_s / iters if iters else 0.0, "s")
    metrics.update({k: (v, _COUNT_UNITS.get(k, "count")) for k, v in layers[0][1].items()})
    untraced_wall = statistics.median(c.wall for c in meas.cycles if not c.traced)
    metrics["trace.overhead_s"] = (statistics.median(c.wall for c in traced) - untraced_wall, "s")

    summ = layers[0][2]
    shares: dict[str, float] = {}
    for name, s in summ["self_s"].items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + s / summ["wall"]
    shares["(benchmark loop)"] = summ["uncovered_s"] / summ["wall"]
    return dict(sorted(metrics.items())), shares, problems


def metric_lines(metrics: dict) -> list[str]:
    """One human-readable line per metric: name, value and unit."""
    return [f"{name:<44} {'n/a' if value is None else f'{value:.6g}':>14} {unit}" for name, (value, unit) in metrics.items()]


def result_object(meas: Measurement, metrics: dict, problems: list[str]) -> dict:
    """The benchmark's result: the last line of its standard output."""
    runs = meas.all_runs()
    return {
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(not r.ok for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    workload = WORKLOADS[args.workload]
    try:
        cli = load_carmen()
        refs = load_references(workload)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed, nproc)
    print(f"environment: {json.dumps(env)}")
    out_root = WORK / "out" / workload.name
    setup_times = [] if args.trace else measure_setup(workload)
    meas = measure(cli, workload, refs, args.seed, args.seconds, bool(args.trace), out_root)

    all_runs = meas.all_runs()
    problems = [f"{r.key}: {p}" for r in all_runs for p in r.problems]
    print(f"golden outputs byte-identical: {meas.golden_identical}/{len(meas.golden)}")
    cycles = len(meas.cycles)
    print(f"workload {workload.name}: {cycles} cycles of {len(workload.configs())} runs, {len(all_runs)} runs checked")

    if args.trace:
        metrics, shares, count_problems = per_layer(meas)
        problems += count_problems
        for name in meas.missing_spans:
            print(f"warning: carmen has no {name}; its per-layer metrics read 0")
        print("share of traced wall time (self time by module):")
        for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {module:<18} {100 * share:6.2f} %")
        extras = {}
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"],
                        "cycles": [{"wall": c.wall, "spans": c.spans} for c in meas.cycles if c.traced]})
        )
    else:
        metrics, extras = end_to_end(meas, setup_times)

    result = result_object(meas, metrics, problems)
    for line in metric_lines({**metrics, **extras}):
        print(line)
    for p in problems[:20]:
        print(f"check failed: {p}")
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "extras": {k: v for k, (v, _) in extras.items()}, "environment": env,
                    "problems": problems}, indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
