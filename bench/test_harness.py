"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/test_harness.py        (or: python3 -m pytest bench/test_harness.py)

Checks that every metric named in BENCHMARK.json is printed with its
unit, that a forced failure counts in ``failed_run_frac``, and that the
traced pass's self times plus ``trace.uncovered_s`` add up to its wall
time.  Outputs go to ``bench/.work/selftest``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import Workload, run_key  # noqa: E402

TINY = Workload(
    "tiny",
    "two scenarios at tiny sizes",
    data_seeds=(0,),
    cycle_s=0.1,
    options=dict(n_update=40, n_validate=40, folds=3, grid_count=5, full_curve=True),
    scenarios=("gauss-gauss", "reg-tnoise"),
)
OUT = run.WORK / "selftest"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CLI = run.load_carmen()


def _references(workload: Workload) -> dict:
    return {
        run_key(kw): run.run_one(CLI, kw, None, OUT / "record" / kw["scenario"]).outcome
        for kw in workload.configs()
    }


def _measure(workload: Workload, refs: dict, trace: bool) -> run.Measurement:
    return run.measure(CLI, workload, refs, seed=3, seconds=0.0, trace=trace, out_root=OUT)


def test_every_metric_printed_with_its_unit():
    refs = _references(TINY)
    e2e, extras = run.end_to_end(_measure(TINY, refs, trace=False), setup_times=[0.25])
    layers, _, problems = run.per_layer(_measure(TINY, refs, trace=True))
    assert not problems
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        named = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: unit for k, (_, unit) in metrics.items()} == named
        lines = run.metric_lines(metrics)
        for name, unit in named.items():
            assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines), name
    for name in ("failed_run_frac", "failed_point_frac"):
        assert any(line.split()[0] == name for line in run.metric_lines(extras))


def test_forced_failure_counts_in_failed_run_frac():
    refs = _references(TINY)
    bad_key = run_key(TINY.configs()[0])
    refs[bad_key] = dict(refs[bad_key], t_star=refs[bad_key]["t_star"] * 2.0)
    broken = Workload("broken", "a scenario that does not exist", data_seeds=(0,), cycle_s=0.1,
                      options=TINY.options, scenarios=TINY.scenarios + ("no-such-scenario",))
    meas = _measure(broken, refs, trace=False)
    runs = meas.all_runs()
    failed = [r for r in runs if not r.ok]
    assert {r.key for r in failed} == {bad_key, "no-such-scenario/0"}
    assert len(failed) == 2 * len(meas.cycles)
    _, extras = run.end_to_end(meas, setup_times=[0.25])
    assert extras["failed_run_frac"][0] == len(failed) / len(runs)
    result = run.result_object(meas, {}, [p for r in failed for p in r.problems])
    assert (result["correct"], result["failed"], result["attempted"]) == (False, len(failed), len(runs))


def test_self_times_and_uncovered_add_up_to_wall():
    meas = _measure(TINY, _references(TINY), trace=True)
    traced = [c for c in meas.cycles if c.traced]
    assert traced and all(r.ok for r in meas.all_runs())
    for cycle in traced:
        summ = summarize(cycle.spans, cycle.wall)
        total = math.fsum(summ["self_s"].values()) + summ["uncovered_s"]
        assert math.isclose(total, cycle.wall, rel_tol=1e-9), (total, cycle.wall)
        assert summ["calls"]["discriminator.fit_logistic"] == 3 * 6 * len(TINY.scenarios)


def test_counts_repeat_between_traced_passes():
    refs = _references(TINY)
    counts = []
    for _ in range(2):
        layers, _, _ = run.per_layer(_measure(TINY, refs, trace=True))
        counts.append({k: v for k, (v, unit) in layers.items() if unit != "s"})
    assert counts[0] == counts[1]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")
