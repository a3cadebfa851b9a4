"""Scenario runner and command-line interface.

Each named scenario binds a conjugate model, a known data-generating
process and a classifier feature set.  A run samples observed data,
splits it into update/validation partitions, locates the optimal
tempering level, estimates the log ratio there, tests it, and writes a
JSON summary plus a plot-ready curve CSV.  Outputs are byte-identical
across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .conjugate import (
    GaussianKnownVarModel,
    Model,
    NIGRegressionModel,
    PoissonGammaModel,
)
from .discriminator import DEFAULT_RIDGE, FeatureMap
from .numerics import RngStream
from .tempering import (
    DEFAULT_GRID_COUNT,
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    TemperingGrid,
    curve,
)
from .truths import (
    BetaBinomialTruth,
    GaussianTruth,
    LaplaceTruth,
    NegBinomialTruth,
    SigmoidRegressionTruth,
    TNoiseRegressionTruth,
    TruthSpec,
)


@dataclass(frozen=True)
class ScenarioBinding:
    model: Model
    truth: TruthSpec
    features: tuple[str, ...]


SCENARIOS: dict[str, ScenarioBinding] = {
    "gauss-gauss": ScenarioBinding(
        model=GaussianKnownVarModel(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9),
        truth=GaussianTruth(mean=0.0, sd=3.01),
        features=("x", "x2"),
    ),
    "gauss-laplace": ScenarioBinding(
        model=GaussianKnownVarModel(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9),
        truth=LaplaceTruth(loc=0.0, scale=2.13),
        features=("x", "x2", "ln_abs_x"),
    ),
    "poisson-nb": ScenarioBinding(
        model=PoissonGammaModel(shape=3.0, rate=0.05),
        truth=NegBinomialTruth(r=63.0, p=0.488),
        features=("x", "x2", "x3", "x4"),
    ),
    "poisson-betabinom": ScenarioBinding(
        model=PoissonGammaModel(shape=3.0, rate=0.05),
        truth=BetaBinomialTruth(a=41.75, b=78.25, trials=80),
        features=("x", "x2", "x3", "x4"),
    ),
    "reg-tnoise": ScenarioBinding(
        model=NIGRegressionModel(coef_mean=0.0, precision_scale=1.0, shape=2.0, scale=2.0),
        truth=TNoiseRegressionTruth(df=3.0, scale=1.22),
        features=("abs_y", "y2", "ln_abs_y", "yx"),
    ),
    "reg-sigmoid": ScenarioBinding(
        model=NIGRegressionModel(coef_mean=0.0, precision_scale=1.0, shape=2.0, scale=2.0),
        truth=SigmoidRegressionTruth(amplitude=5.0, steepness=10.0, noise_sd=0.1),
        features=("y", "abs_y", "y2", "yx", "abs_yx", "yx2"),
    ),
}

_MODEL_FAMILIES = {
    "gaussian": GaussianKnownVarModel,
    "poisson-gamma": PoissonGammaModel,
    "nig-regression": NIGRegressionModel,
}

_TRUTH_FAMILIES = {
    "gaussian": GaussianTruth,
    "laplace": LaplaceTruth,
    "negbinom": NegBinomialTruth,
    "betabinom": BetaBinomialTruth,
    "reg-tnoise": TNoiseRegressionTruth,
    "reg-sigmoid": SigmoidRegressionTruth,
}

# Fields that only a custom scenario reads.
_CUSTOM_FIELDS = ("model_family", "model_params", "truth_family", "truth_params", "features")

# How from_dict coerces a value, by the annotation of its field; other fields take it as is.
_COERCE = {
    "int": int,
    "float": float,
    "bool": bool,
    "dict": dict,
    "tuple[str, ...] | None": lambda v: tuple(v) if v else None,
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int
    n_update: int = 1000
    n_validate: int = 1000
    folds: int = 10
    ridge: float = DEFAULT_RIDGE
    grid_lo: float = DEFAULT_GRID_LO
    grid_hi: float = DEFAULT_GRID_HI
    grid_count: int = DEFAULT_GRID_COUNT
    full_curve: bool = False
    reverse_kl: bool = False
    model_family: str | None = None
    model_params: dict = field(default_factory=dict)
    truth_family: str | None = None
    truth_params: dict = field(default_factory=dict)
    features: tuple[str, ...] | None = None

    def binding(self) -> ScenarioBinding:
        if self.scenario in SCENARIOS:
            custom = [name for name in _CUSTOM_FIELDS if getattr(self, name)]
            if custom:
                raise ValueError(
                    f"{', '.join(custom)} apply only to custom scenarios, not to {self.scenario!r}"
                )
            return SCENARIOS[self.scenario]
        if self.scenario != "custom":
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from "
                f"{', '.join(SCENARIOS)} or 'custom'"
            )
        if not (self.model_family and self.truth_family and self.features):
            raise ValueError("custom scenarios need a model, a truth and features")
        model = _build_family(_MODEL_FAMILIES, self.model_family, self.model_params, "model")
        truth = _build_family(_TRUTH_FAMILIES, self.truth_family, self.truth_params, "truth")
        return ScenarioBinding(model=model, truth=truth, features=tuple(self.features))

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_update": self.n_update,
            "n_validate": self.n_validate,
            "folds": self.folds,
            "ridge": self.ridge,
            "grid_lo": self.grid_lo,
            "grid_hi": self.grid_hi,
            "grid_count": self.grid_count,
            "full_curve": self.full_curve,
            "reverse_kl": self.reverse_kl,
        }
        if self.scenario == "custom":
            d["model_family"] = self.model_family
            d["model_params"] = dict(self.model_params)
            d["truth_family"] = self.truth_family
            d["truth_params"] = dict(self.truth_params)
            d["features"] = list(self.features or ())
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Config from the keys of ``d`` that name fields; absent fields keep their defaults."""
        return cls(**{
            f.name: _COERCE.get(f.type, lambda v: v)(d[f.name]) for f in fields(cls) if f.name in d
        })


def _build_family(registry: dict, family: str, params: dict, kind: str):
    if family not in registry:
        raise ValueError(f"unknown {kind} family {family!r}; choose from {', '.join(registry)}")
    cls = registry[family]
    unknown = set(params) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {kind} parameters {sorted(unknown)} for {family!r}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in params]
    if missing:
        raise ValueError(f"missing {kind} parameters {missing} for {family!r}")
    return cls(**{k: float(v) for k, v in params.items()})


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    t_star: float
    t_star_boundary: bool
    log_predictive_at_t_star: float
    logz_sum: float
    logz_mean: float
    logz_n: int
    t_stat: float
    df: int
    p_value: float
    test_method: str
    true_logz_sum: float | None
    true_logz_mean: float | None
    reverse_logz_sum: float | None
    reverse_logz_mean: float | None
    curve_rows: tuple[dict, ...]
    meta: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "t_star": self.t_star,
            "t_star_at_boundary": self.t_star_boundary,
            "log_predictive_at_t_star": self.log_predictive_at_t_star,
            "log_ratio": {"sum": self.logz_sum, "mean": self.logz_mean, "n": self.logz_n},
            "test": {
                "statistic": self.t_stat,
                "df": self.df,
                "p_value": self.p_value,
                "method": self.test_method,
            },
            "true_log_ratio": (
                None
                if self.true_logz_sum is None
                else {"sum": self.true_logz_sum, "mean": self.true_logz_mean}
            ),
            "reverse_log_ratio": (
                None
                if self.reverse_logz_sum is None
                else {"sum": self.reverse_logz_sum, "mean": self.reverse_logz_mean}
            ),
            "curve": [dict(row) for row in self.curve_rows],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioResult":
        true_lr = d.get("true_log_ratio")
        rev_lr = d.get("reverse_log_ratio")
        return cls(
            config=ScenarioConfig.from_dict(d["config"]),
            t_star=d["t_star"],
            t_star_boundary=d["t_star_at_boundary"],
            log_predictive_at_t_star=d["log_predictive_at_t_star"],
            logz_sum=d["log_ratio"]["sum"],
            logz_mean=d["log_ratio"]["mean"],
            logz_n=d["log_ratio"]["n"],
            t_stat=d["test"]["statistic"],
            df=d["test"]["df"],
            p_value=d["test"]["p_value"],
            test_method=d["test"]["method"],
            true_logz_sum=None if true_lr is None else true_lr["sum"],
            true_logz_mean=None if true_lr is None else true_lr["mean"],
            reverse_logz_sum=None if rev_lr is None else rev_lr["sum"],
            reverse_logz_mean=None if rev_lr is None else rev_lr["mean"],
            curve_rows=tuple(dict(row) for row in d["curve"]),
            meta=dict(d["meta"]),
        )


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Execute one scenario end to end, deterministically in the seed."""
    binding = cfg.binding()
    if cfg.folds < 2:
        raise ValueError(f"folds must be >= 2, got {cfg.folds!r}")
    if cfg.n_update < 2 * cfg.folds or cfg.n_validate < 2 * cfg.folds:
        raise ValueError("n_update and n_validate must each be at least 2*folds")
    if not 0.0 <= cfg.ridge < math.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {cfg.ridge!r}")

    rng = RngStream(cfg.seed)
    data = binding.truth.sample(rng.substream(0), cfg.n_update + cfg.n_validate)
    x_update, x_valid = data.split(cfg.n_update)
    grid = TemperingGrid.log_uniform(cfg.grid_lo, cfg.grid_hi, cfg.grid_count)
    fm = FeatureMap(binding.features)

    tc = curve(
        binding.model,
        binding.truth,
        x_update,
        x_valid,
        grid,
        fm,
        cfg.folds,
        rng.substream(1),
        ridge=cfg.ridge,
        full_curve=cfg.full_curve,
        reverse=cfg.reverse_kl,
    )

    rows = tuple(
        {
            "t": p.t,
            "log_predictive": p.log_predictive,
            "logz_approx_sum": p.logz_approx_sum,
            "logz_true_sum": p.logz_true_sum,
            "t_stat": p.t_stat,
            "p_value": p.p_value,
        }
        for p in tc.points
    )
    est = tc.estimate_at_t_star
    test = tc.test_at_t_star
    return ScenarioResult(
        config=cfg,
        t_star=tc.t_star,
        t_star_boundary=tc.t_star_boundary,
        log_predictive_at_t_star=tc.log_predictive_at_t_star,
        logz_sum=est.sum,
        logz_mean=est.mean,
        logz_n=est.n,
        t_stat=test.statistic,
        df=test.df,
        p_value=test.p_value,
        test_method=test.method,
        true_logz_sum=None if tc.true_at_t_star is None else tc.true_at_t_star.sum,
        true_logz_mean=None if tc.true_at_t_star is None else tc.true_at_t_star.mean,
        reverse_logz_sum=None if tc.reverse_at_t_star is None else tc.reverse_at_t_star.sum,
        reverse_logz_mean=None if tc.reverse_at_t_star is None else tc.reverse_at_t_star.mean,
        curve_rows=rows,
        meta={"package": "carmen", "version": __version__, "numpy": np.__version__},
    )


# CSV header uses the wire names; row dicts carry the same fields lowercased
_CSV_COLUMNS = (
    ("t", "t"),
    ("log_predictive", "log_predictive"),
    ("logZ_approx_sum", "logz_approx_sum"),
    ("logZ_true_sum", "logz_true_sum"),
    ("t_stat", "t_stat"),
    ("p_value", "p_value"),
)


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".10g")


def emit_outputs(result: ScenarioResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write summary.json and curve.csv under ``out_dir``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / "summary.json"
        json_path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        csv_path = out / "curve.csv"
        lines = [",".join(name for name, _ in _CSV_COLUMNS)]
        for row in sorted(result.curve_rows, key=lambda r: r["t"]):
            lines.append(",".join(_fmt(row[key]) for _, key in _CSV_COLUMNS))
        csv_path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out}: {exc}") from exc
    return json_path, csv_path


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:count, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


_CONFIG_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key = value scenario file.

    Recognized keys mirror the run options (scenario, seed, n_update,
    n_validate, folds, ridge, grid, full_curve, reverse_kl, features)
    plus ``model``/``truth`` family selectors and dotted parameters such
    as ``model.noise_sd`` or ``truth.scale``.  Errors name the file, the
    line and the key.
    """
    out: dict = {"model_params": {}, "truth_params": {}}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            _read_config_value(out, key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def _read_config_value(out: dict, key: str, value: str) -> None:
    if key == "model":
        out["model_family"] = value
    elif key == "truth":
        out["truth_family"] = value
    elif key.startswith("model."):
        out["model_params"][key[len("model."):]] = float(value)
    elif key.startswith("truth."):
        out["truth_params"][key[len("truth."):]] = float(value)
    elif key == "features":
        out["features"] = tuple(s.strip() for s in value.split(",") if s.strip())
    elif key in ("seed", "n_update", "n_validate", "folds", "grid_count"):
        out[key] = int(value)
    elif key in ("ridge", "grid_lo", "grid_hi"):
        out[key] = float(value)
    elif key == "grid":
        out["grid_lo"], out["grid_hi"], out["grid_count"] = _parse_grid(value)
    elif key in ("full_curve", "reverse_kl"):
        if value.lower() not in _CONFIG_BOOL:
            raise ValueError("must be true or false")
        out[key] = _CONFIG_BOOL[value.lower()]
    elif key == "scenario":
        out["scenario"] = value
    else:
        raise ValueError("unknown key")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carmen")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write JSON/CSV outputs")
    run.add_argument("--scenario", help="scenario name, or 'custom' with --config")
    run.add_argument("--seed", type=int, help="64-bit unsigned seed")
    run.add_argument("--n-update", type=int, dest="n_update")
    run.add_argument("--n-validate", type=int, dest="n_validate")
    run.add_argument("--folds", type=int)
    run.add_argument("--grid", help="tempering grid as lo:hi:count")
    run.add_argument("--ridge", type=float)
    run.add_argument("--full-curve", action="store_true", default=None, dest="full_curve")
    run.add_argument("--reverse-kl", action="store_true", default=None, dest="reverse_kl")
    run.add_argument("--config", help="flat key=value config file (custom scenarios)")
    run.add_argument("--out", required=True, help="output directory")

    sub.add_parser("list", help="print scenario names and their parameters")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    base = load_config_file(args.config) if args.config else {}
    for key in ("scenario", "seed", "n_update", "n_validate", "folds", "ridge", "full_curve", "reverse_kl"):
        v = getattr(args, key)
        if v is not None:
            base[key] = v
    if args.grid is not None:
        base["grid_lo"], base["grid_hi"], base["grid_count"] = _parse_grid(args.grid)
    if "scenario" not in base:
        raise ValueError("a scenario is required (--scenario or a config file)")
    if "seed" not in base:
        raise ValueError("a seed is required (--seed or a config file)")
    cfg = ScenarioConfig.from_dict(base)
    cfg.binding()  # validate early so bad configs fail before any work
    return cfg


def _print_scenarios() -> None:
    for name, b in SCENARIOS.items():
        print(f"{name}:")
        print(f"  model:    {b.model}")
        print(f"  truth:    {b.truth}")
        print(f"  features: {', '.join(b.features)}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _print_scenarios()
        return 0
    try:
        cfg = _config_from_args(args)
        result = run_scenario(cfg)
        json_path, csv_path = emit_outputs(result, args.out)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{cfg.scenario} seed={cfg.seed}: t*={result.t_star:.6g}"
        f"{' (boundary)' if result.t_star_boundary else ''}"
        f" logZ={result.logz_sum:.4f} p={result.p_value:.4g}"
    )
    print(f"wrote {json_path} and {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
