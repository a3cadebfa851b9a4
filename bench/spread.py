"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload tstar --seeds 0-9 [--trace 0] [--out FILE]

For every metric: the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share
of the median.  The spread of an end-to-end metric should stay below a
third of its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next((json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("environment:")), {})
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound} -> {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:<44} median {med:.6g}  spread {100 * spread:.2f} %{flag}")
    if args.out:
        env.pop("workload_seed", None)
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
                                        "run_seconds": spec["run_seconds"], "environment": env,
                                        "all_correct": all(r["correct"] for r in results),
                                        "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
