"""Output checks: read what a run wrote and compare it with a reference.

Only the written files are read, never the in-memory result, so the
check covers ``emit_outputs`` too.  Values that do not depend on the
classifier (t*, exact log ratios, log predictive scores) must agree to
float rounding; classifier-based sums may move by 1e-5 nats per point,
which admits last-digit changes from a faster IRLS path but not a
different estimate.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CSV_COLUMNS = ("t", "log_predictive", "logZ_approx_sum", "logZ_true_sum", "t_stat", "p_value")

EXACT_REL = 1e-8
T_STAR_REL = 1e-6
CLASSIFIER_PER_POINT = 1e-5


def _float_or_none(text: str) -> float | None:
    return float(text) if text != "" else None


def read_outcome(out_dir: Path) -> dict:
    """The checked values of one run, parsed from summary.json and curve.csv.

    Raises ``ValueError`` when the files are malformed.
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "curve.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"curve.csv header {header} != {CSV_COLUMNS}")
        rows = [dict(zip(CSV_COLUMNS, map(_float_or_none, r))) for r in reader]
    ts = [r["t"] for r in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("curve.csv rows are not strictly increasing in t")
    true_lr = summary["true_log_ratio"]
    reverse = summary.get("reverse_log_ratio")
    written = [r for r in rows if r["log_predictive"] is not None]
    approx = [r["logZ_approx_sum"] for r in written if r["logZ_approx_sum"] is not None]
    return {
        "t_star": summary["t_star"],
        "logz_approx_sum": summary["log_ratio"]["sum"],
        "logz_true_sum": None if true_lr is None else true_lr["sum"],
        "reverse_logz_sum": None if reverse is None else reverse["sum"],
        "n_validate": summary["config"]["n_validate"],
        "curve_points": len(rows),
        "points_failed": len(rows) - len(written),
        "curve_log_predictive_total": math.fsum(r["log_predictive"] for r in written),
        "curve_true_total": math.fsum(r["logZ_true_sum"] for r in written if r["logZ_true_sum"] is not None),
        "curve_approx_total": math.fsum(approx) if approx else None,
        "curve_approx_points": len(approx),
    }


def _close(value, ref, tol: float) -> bool:
    if value is None or ref is None:
        return value is ref
    return abs(value - ref) <= tol


def compare(outcome: dict, ref: dict | None) -> list[str]:
    """Human-readable mismatches between a run's outcome and its reference."""
    if ref is None:
        return ["no reference recorded for this run"]
    n = ref["n_validate"]
    tolerances = {
        "t_star": T_STAR_REL * abs(ref["t_star"]),
        "logz_true_sum": EXACT_REL * max(1.0, abs(ref["logz_true_sum"] or 0.0)),
        "curve_log_predictive_total": EXACT_REL * max(1.0, abs(ref["curve_log_predictive_total"])),
        "curve_true_total": EXACT_REL * max(1.0, abs(ref["curve_true_total"])),
        "logz_approx_sum": CLASSIFIER_PER_POINT * n,
        "reverse_logz_sum": CLASSIFIER_PER_POINT * n,
        "curve_approx_total": CLASSIFIER_PER_POINT * n * max(1, ref["curve_approx_points"]),
    }
    problems = [
        f"{key}: {outcome[key]!r} != reference {ref[key]!r} (tolerance {tol:.3g})"
        for key, tol in tolerances.items()
        if not _close(outcome[key], ref[key], tol)
    ]
    for key in ("n_validate", "curve_points", "points_failed", "curve_approx_points"):
        if outcome[key] != ref[key]:
            problems.append(f"{key}: {outcome[key]!r} != reference {ref[key]!r}")
    return problems


def same_bytes(a_dir: Path, b_dir: Path) -> bool:
    return all(
        (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        for name in ("summary.json", "curve.csv")
    )
