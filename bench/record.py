"""Record the golden outputs and the per-run reference values.

    python3 bench/record.py

Writes ``bench/golden/<scenario>/{summary.json,curve.csv}`` for the
golden configurations and ``bench/references/<workload>.json`` with the
checked values of every run each workload makes.  Run it only at a
commit whose outputs are the baseline: later commits are checked
against what it writes.
"""

from __future__ import annotations

import json
import sys

import run
from checks import read_outcome
from workloads import GOLDEN, WORKLOADS, run_key


def main() -> int:
    nproc = run.pin_blas_threads()
    cli = run.load_carmen()
    env = run.environment(seed=0, nproc=nproc)
    del env["workload_seed"]
    for kw in GOLDEN.configs():
        cli.emit_outputs(cli.run_scenario(cli.ScenarioConfig(**kw)), run.BENCH / "golden" / kw["scenario"])
    ref_dir = run.BENCH / "references"
    ref_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        runs = {}
        for kw in workload.configs():
            out_dir = run.WORK / "record" / workload.name / kw["scenario"]
            cli.emit_outputs(cli.run_scenario(cli.ScenarioConfig(**kw)), out_dir)
            runs[run_key(kw)] = read_outcome(out_dir)
            print(f"{workload.name} {run_key(kw)}: t*={runs[run_key(kw)]['t_star']:.6g}", flush=True)
        doc = {"workload": workload.name, "configs": workload.configs(), "environment": env, "runs": runs}
        (ref_dir / f"{workload.name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
