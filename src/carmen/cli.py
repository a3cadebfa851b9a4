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
import contextlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .conjugate import (
    GaussianKnownVarModel,
    Model,
    NIGRegressionModel,
    PoissonGammaModel,
)
from .data import Dataset
from .discriminator import RESPONSE_TRANSFORMS, FeatureMap, check_integer
from .logistic import DEFAULT_RIDGE
from .numerics import RngStream
from .ratio import LogRatioEstimate
from .tempering import (
    DEFAULT_GRID_COUNT,
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    CurvePoint,
    TemperingCurve,
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


def _bind(model_family: str | None, model_params: dict, truth_family: str | None, truth_params: dict,
          features: tuple[str, ...] | None) -> ScenarioBinding:
    """The binding that a custom scenario's fields name, each family and feature checked before any sampling."""
    if not (model_family and truth_family and features):
        raise ValueError("custom scenarios need a model, a truth and features")
    FeatureMap(features)  # an unknown feature name fails here
    model = _build_family(_MODEL_FAMILIES, model_family, model_params, "model")
    truth = _build_family(_TRUTH_FAMILIES, truth_family, truth_params, "truth")
    kinds = f"model {model_family!r} ({model.kind} data), truth {truth_family!r} ({truth.kind} data)"
    if model.kind != truth.kind:
        raise ValueError(f"the model and the truth take different kinds of data: {kinds}")
    unsuited = [f for f in features if f in RESPONSE_TRANSFORMS and truth.kind != "regression"]
    if unsuited:
        raise ValueError(f"features {unsuited} need regression data: {kinds}")
    return ScenarioBinding(model=model, truth=truth, features=tuple(features))


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


# Each named scenario is a custom scenario with known fields, bound by the same checks.
_GAUSSIAN = dict(model_family="gaussian", model_params=dict(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9))
_POISSON = dict(model_family="poisson-gamma", model_params=dict(shape=3.0, rate=0.05))
_NIG = dict(model_family="nig-regression",
            model_params=dict(coef_mean=0.0, precision_scale=1.0, shape=2.0, scale=2.0))
_PRESETS: dict[str, dict] = {
    "gauss-gauss": dict(_GAUSSIAN, truth_family="gaussian", truth_params=dict(mean=0.0, sd=3.01),
                        features=("x", "x2")),
    "gauss-laplace": dict(_GAUSSIAN, truth_family="laplace", truth_params=dict(loc=0.0, scale=2.13),
                          features=("x", "x2", "ln_abs_x")),
    "poisson-nb": dict(_POISSON, truth_family="negbinom", truth_params=dict(r=63.0, p=0.488),
                       features=("x", "x2", "x3", "x4")),
    "poisson-betabinom": dict(_POISSON, truth_family="betabinom", truth_params=dict(a=41.75, b=78.25, trials=80),
                              features=("x", "x2", "x3", "x4")),
    "reg-tnoise": dict(_NIG, truth_family="reg-tnoise", truth_params=dict(df=3.0, scale=1.22),
                       features=("abs_y", "y2", "ln_abs_y", "yx")),
    "reg-sigmoid": dict(_NIG, truth_family="reg-sigmoid",
                        truth_params=dict(amplitude=5.0, steepness=10.0, noise_sd=0.1),
                        features=("y", "abs_y", "y2", "yx", "abs_yx", "yx2")),
}
SCENARIOS: dict[str, ScenarioBinding] = {name: _bind(**preset) for name, preset in _PRESETS.items()}


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features) if self.features else None)

    def binding(self) -> ScenarioBinding:
        custom = {name: getattr(self, name) for name in _CUSTOM_FIELDS}
        if self.scenario == "custom":
            return _bind(**custom)
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {', '.join(SCENARIOS)} or 'custom'"
            )
        given = [name for name, value in custom.items() if value]
        if given:
            raise ValueError(f"{', '.join(given)} apply only to custom scenarios, not to {self.scenario!r}")
        return SCENARIOS[self.scenario]

    def to_dict(self) -> dict:
        """The config echoed in summary.json; the custom fields only for a custom scenario."""
        skip = () if self.scenario == "custom" else _CUSTOM_FIELDS
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Config from the keys of ``d`` that name fields, each scalar typed by ``_SCALAR_FIELDS``."""
        return cls(**{
            f.name: _SCALAR_FIELDS.get(f.name, lambda v: v)(d[f.name]) for f in fields(cls) if f.name in d
        })


@dataclass(frozen=True)
class ScenarioResult:
    """One run: its config, the ``TemperingCurve`` that ``curve`` returned, and version metadata."""

    config: ScenarioConfig
    curve: TemperingCurve
    meta: dict


def run_draws(cfg: ScenarioConfig, truth: TruthSpec) -> tuple[Dataset, Dataset, RngStream]:
    """The run's update and validation data, on substream 0 of its seed, and its classifier stream, substream 1."""
    rng = RngStream(cfg.seed)
    data = truth.sample(rng.substream(0), cfg.n_update + cfg.n_validate)
    return (*data.split(cfg.n_update), rng.substream(1))


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Execute one scenario end to end, deterministically in the seed."""
    binding = cfg.binding()
    for f in fields(cfg):
        if f.type == "int":
            check_integer(f.name, getattr(cfg, f.name), 2 if f.name == "folds" else None)
    if cfg.n_update < 2 * cfg.folds or cfg.n_validate < 2 * cfg.folds:
        raise ValueError("n_update and n_validate must each be at least 2*folds")
    if not 0.0 <= cfg.ridge < math.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {cfg.ridge!r}")

    grid = TemperingGrid.log_uniform(cfg.grid_lo, cfg.grid_hi, cfg.grid_count)
    fm = FeatureMap(binding.features)
    x_update, x_valid, rng = run_draws(cfg, binding.truth)

    tc = curve(
        binding.model, binding.truth, x_update, x_valid, grid, fm, cfg.folds, rng,
        ridge=cfg.ridge, full_curve=cfg.full_curve, reverse=cfg.reverse_kl,
    )

    meta = {"package": "carmen", "version": __version__, "numpy": np.__version__}
    return ScenarioResult(config=cfg, curve=tc, meta=meta)


# The wire order of the curve columns; the CSV header spells logz as logZ.
_CURVE_FIELDS = tuple(f.name for f in fields(CurvePoint))
_curve_row = attrgetter(*_CURVE_FIELDS)
_CSV_HEADER = ",".join(name.replace("logz", "logZ") for name in _CURVE_FIELDS)


def _sum_mean(est: LogRatioEstimate | None) -> dict | None:
    return None if est is None else {"sum": est.sum, "mean": est.mean}


def _summary(result: ScenarioResult, rows: list[tuple]) -> dict:
    """The summary.json document of ``result``, whose curve points give ``rows``."""
    tc, cfg = result.curve, result.config
    est, test = tc.estimate_at_t_star, tc.test_at_t_star
    return {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "t_star": tc.t_star,
        "t_star_at_boundary": tc.t_star_boundary,
        "log_predictive_at_t_star": tc.log_predictive_at_t_star,
        "log_ratio": {"sum": est.sum, "mean": est.mean, "n": est.n},
        "test": {f.name: getattr(test, f.name) for f in fields(test)},
        "true_log_ratio": _sum_mean(tc.true_at_t_star),
        "reverse_log_ratio": _sum_mean(tc.reverse_at_t_star),
        "curve": [dict(zip(_CURVE_FIELDS, row)) for row in rows],
        "meta": result.meta,
    }


def _fmt(value) -> str:
    return "" if value is None else format(float(value), ".10g")


def _strict(value):
    """``value`` with each non-finite float as its curve.csv token ("inf", "-inf", "nan")."""
    if isinstance(value, float):
        return value if math.isfinite(value) else _fmt(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def emit_outputs(result: ScenarioResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write summary.json and curve.csv under ``out_dir`` as a pair.

    Both are written to temporaries beside them (``curve.csv.tmp``,
    ``summary.json.tmp``), then moved over the old files, the curve first:
    a failed write leaves the previous pair as it was, and a summary.json
    is never beside an older curve.csv.  On an ``OSError`` the temporaries
    are removed.
    """
    out = Path(out_dir)
    rows = [_curve_row(p) for p in result.curve.points]
    lines = [_CSV_HEADER] + [",".join(_fmt(v) for v in row) for row in rows]
    summary = _strict(_summary(result, rows))
    texts = ("\n".join(lines) + "\n", json.dumps(summary, indent=2, allow_nan=False) + "\n")
    csv_path, json_path = paths = (out / "curve.csv", out / "summary.json")
    temporaries = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        out.mkdir(parents=True, exist_ok=True)
        for temporary, text in zip(temporaries, texts):
            temporary.write_text(text)
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    except OSError as exc:
        for temporary in temporaries:
            with contextlib.suppress(OSError):  # absent, or not a file of ours (a directory)
                temporary.unlink()
        raise OSError(f"cannot write outputs under {out}: {exc}") from exc
    return json_path, csv_path


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"grid must be lo:hi:count, got {text!r}") from None


_CONFIG_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(value) -> bool:
    key = str(value).lower()  # a bool from JSON reads as "true" or "false"
    if key not in _CONFIG_BOOL:
        raise ValueError("must be true or false")
    return _CONFIG_BOOL[key]


# The parser of each scalar config field, by the field's annotation.
_PARSE = {"str": str, "int": int, "float": float, "bool": _parse_bool}
_SCALAR_FIELDS = {f.name: _PARSE[f.type] for f in fields(ScenarioConfig) if f.type in _PARSE}

# Each run option is a config-file key and a `run` flag (--n-update sets n_update).
_RUN_OPTIONS = {
    "scenario": "scenario name, or 'custom' with --config",
    "seed": "64-bit unsigned seed",
    "n_update": "points the tempered update sees",
    "n_validate": "points that score each tempering level",
    "folds": "cross-validation folds of the classifier",
    "grid": "tempering grid as lo:hi:count",
    "ridge": "ridge penalty of the logistic fits",
    "full_curve": "fit the classifier at every grid level",
    "reverse_kl": "also estimate the reverse log ratio at t*",
}


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key = value scenario file.

    Recognized keys are the ``_RUN_OPTIONS``, ``features``, the
    ``model``/``truth`` family selectors and dotted parameters such as
    ``model.noise_sd``.  Errors name the file, the line and the key; a
    key set twice is an error.
    """
    out: dict = {"model_params": {}, "truth_params": {}}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as f:  # an empty path names no file, where Path("") is "."
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        where = f"{path}:{lineno}: {key}"
        if key in first_line:
            raise ValueError(f"{where}: already set on line {first_line[key]}")
        first_line[key] = lineno
        _read_config_value(out, key, value, where)
    return out


def _read_config_value(out: dict, key: str, value: str, where: str) -> None:
    """Set the fields that ``key = value`` names in ``out``; an error starts with ``where``."""
    try:
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
        elif key == "grid":
            out["grid_lo"], out["grid_hi"], out["grid_count"] = _parse_grid(value)
        elif key in _RUN_OPTIONS:
            out[key] = _SCALAR_FIELDS[key](value)
        else:
            raise ValueError("unknown key")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


class _Once(argparse.Action):
    """Store a flag's value, or a switch's ``const``; a flag given twice is an input error, as a key set twice is."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ValueError(f"{self.option_strings[0]}: already given")
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carmen")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write JSON/CSV outputs")
    defaults = {f.name: f.default for f in fields(ScenarioConfig) if f.default is not MISSING}
    defaults["grid"] = "{grid_lo}:{grid_hi}:{grid_count}".format(**defaults)
    for key, text in _RUN_OPTIONS.items():  # a bool flag stores the text "true"
        switch = {"nargs": 0, "const": "true"} if _SCALAR_FIELDS.get(key) is _parse_bool else {}
        default = "" if switch or key not in defaults else f" (default {defaults[key]})"
        run.add_argument("--" + key.replace("_", "-"), action=_Once, help=text + default, **switch)
    run.add_argument("--config", action=_Once, help="flat key=value config file (custom scenarios)")
    run.add_argument("--out", action=_Once, required=True, help="output directory")

    sub.add_parser("list", help="print scenario names and their parameters")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    base = {} if args.config is None else load_config_file(args.config)
    for key in _RUN_OPTIONS:
        if getattr(args, key) is not None:
            _read_config_value(base, key, getattr(args, key), where="--" + key.replace("_", "-"))
    for key in ("scenario", "seed"):
        if key not in base:
            raise ValueError(f"a {key} is required (--{key} or a config file)")
    return ScenarioConfig.from_dict(base)


def _print_scenarios() -> None:
    for name, b in SCENARIOS.items():
        print(f"{name}:")
        print(f"  model:    {b.model}")
        print(f"  truth:    {b.truth}")
        print(f"  features: {', '.join(b.features)}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "list":
            _print_scenarios()
            sys.stdout.flush()
            return 0
        cfg = _config_from_args(args)
        result = run_scenario(cfg)
        json_path, csv_path = emit_outputs(result, args.out)
        tc = result.curve
        print(
            f"{cfg.scenario} seed={cfg.seed}: t*={tc.t_star:.6g}"
            f"{' (boundary)' if tc.t_star_boundary else ''}"
            f" logZ={tc.estimate_at_t_star.sum:.4f} p={tc.test_at_t_star.p_value:.4g}"
        )
        print(f"wrote {json_path} and {csv_path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head -1``) after the outputs were
        # written; with stdout on os.devnull the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
