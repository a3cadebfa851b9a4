"""Scenario runner, output files, config handling, and the CLI itself."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carmen import cli, numerics
from carmen.cli import (
    _PRESETS,
    _RUN_OPTIONS,
    SCENARIOS,
    ScenarioConfig,
    ScenarioResult,
    _build_parser,
    _config_from_args,
    _strict,
    emit_outputs,
    load_config_file,
    main,
    run_scenario,
)
from carmen.discriminator import RESPONSE_TRANSFORMS
from carmen.numerics import log_gamma
from carmen.tempering import CurvePoint, TemperingGrid
from carmen.truths import GaussianTruth, TNoiseRegressionTruth

FAST = dict(n_update=120, n_validate=120, folds=5, grid_lo=1e-7, grid_hi=1.0, grid_count=6)


def _load_strict(path: Path):
    """The JSON document at ``path``, refusing the non-JSON constants NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestScenarioRegistry:
    def test_six_scenarios_bound(self):
        assert set(SCENARIOS) == {
            "gauss-gauss",
            "gauss-laplace",
            "poisson-nb",
            "poisson-betabinom",
            "reg-tnoise",
            "reg-sigmoid",
        }

    def test_gauss_parameters(self):
        b = SCENARIOS["gauss-gauss"]
        assert (b.model.noise_sd, b.model.prior_mean, b.model.prior_sd) == (0.1, 0.0, 9.9)
        assert (b.truth.mean, b.truth.sd) == (0.0, 3.01)
        assert b.features == ("x", "x2")

    def test_named_scenarios_pair_matching_kinds(self):
        for b in SCENARIOS.values():
            assert b.model.kind == b.truth.kind
            assert b.truth.kind == "regression" or not RESPONSE_TRANSFORMS & set(b.features)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="nope", seed=0).binding()

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_named_scenario_is_its_custom_preset(self, name):
        # A custom config that carries the preset's keys binds an equal
        # scenario, and at the golden sizes runs it bit for bit.
        sizes = dict(seed=17, n_update=140, n_validate=140, folds=5, grid_lo=1e-7, grid_hi=1.0, grid_count=8,
                     full_curve=True)
        custom = ScenarioConfig(scenario="custom", **_PRESETS[name], **sizes)
        assert custom.binding() == SCENARIOS[name]
        named, preset = run_scenario(ScenarioConfig(scenario=name, **sizes)).curve, run_scenario(custom).curve
        assert repr(preset.points) == repr(named.points)  # repr tells every float bit and nan from nan
        assert (preset.t_star, preset.t_star_boundary) == (named.t_star, named.t_star_boundary)
        for est in ("estimate_at_t_star", "true_at_t_star"):
            a, b = getattr(preset, est), getattr(named, est)
            assert a.per_point.tobytes() == b.per_point.tobytes()
            assert (repr(a.sum), repr(a.mean)) == (repr(b.sum), repr(b.mean))

    @pytest.mark.parametrize(
        "custom",
        [
            dict(features=("x",)),
            dict(model_family="gaussian"),
            dict(model_params={"noise_sd": 0.2}),
            dict(truth_family="laplace", truth_params={"scale": 2.0}),
        ],
        ids=["features", "model", "model-params", "truth"],
    )
    def test_named_scenario_rejects_custom_fields(self, custom):
        cfg = ScenarioConfig(scenario="gauss-gauss", seed=0, **custom)
        with pytest.raises(ValueError, match=rf"^{', '.join(custom)} apply only to custom scenarios"):
            cfg.binding()

    @pytest.mark.parametrize(
        "custom, message",
        [
            (dict(features=None), "custom scenarios need a model, a truth and features"),
            (dict(model_family="cauchy", model_params={}),
             "unknown model family 'cauchy'; choose from gaussian, poisson-gamma, nig-regression"),
            (dict(model_params={**_PRESETS["gauss-gauss"]["model_params"], "df": 3.0}),
             "unknown model parameters ['df'] for 'gaussian'"),
        ],
        ids=["no-features", "unknown-family", "unknown-parameter"],
    )
    def test_custom_scenario_binding_errors(self, custom, message):
        # Reached from the library: a config file or the command line names
        # these before a ScenarioConfig is built.
        cfg = ScenarioConfig(scenario="custom", seed=0, **{**_PRESETS["gauss-gauss"], **custom})
        with pytest.raises(ValueError) as info:
            cfg.binding()
        assert str(info.value) == message


class TestRunScenario:
    def test_fast_run_shape(self):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, **FAST))
        assert [f.name for f in dataclasses.fields(ScenarioResult)] == ["config", "curve", "meta"]
        assert len(res.curve.points) == 6
        assert res.curve.estimate_at_t_star.n == 120
        assert 0.0 <= res.curve.test_at_t_star.p_value <= 1.0
        assert res.curve.true_at_t_star is not None
        assert res.curve.reverse_at_t_star is None

    def test_reverse_flag(self):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, reverse_kl=True, **FAST))
        assert res.curve.reverse_at_t_star is not None

    def test_counts_must_cover_folds(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=0, n_update=15, folds=10))

    @pytest.mark.parametrize(
        "name,value",
        [("ridge", math.nan), ("ridge", math.inf), ("ridge", -1e-6), ("folds", 1), ("folds", 0),
         # every int field of a library config, which numpy, or cv_log_odds as k, would reject only after the draw
         ("seed", 1.5), ("n_update", 100.5), ("n_validate", 100.5), ("folds", 2.5), ("grid_count", 8.5)],
    )
    def test_bad_setting_rejected_before_sampling(self, monkeypatch, name, value):
        monkeypatch.setattr(cli, "run_draws", lambda *args: pytest.fail("drew before the config was checked"))
        cfg = ScenarioConfig(
            scenario="gauss-gauss", seed=0, n_update=100, n_validate=100, grid_count=5, folds=5
        )
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            run_scenario(dataclasses.replace(cfg, **{name: value}))

    def test_result_dict_round_trip(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="poisson-nb", seed=5, **FAST))
        json_path, _ = emit_outputs(res, tmp_path)
        text = json_path.read_text()
        d = json.loads(text)
        assert json.dumps(d, indent=2) + "\n" == text
        tc = res.curve
        assert d["test"]["method"] == tc.test_at_t_star.method == "t-test"
        assert d["test"]["p_value"] == tc.test_at_t_star.p_value
        assert (d["t_star"], d["t_star_at_boundary"]) == (tc.t_star, tc.t_star_boundary)
        est = tc.estimate_at_t_star
        assert d["log_ratio"] == {"sum": est.sum, "mean": est.mean, "n": 120}
        assert d["true_log_ratio"] == {"sum": tc.true_at_t_star.sum, "mean": tc.true_at_t_star.mean}
        assert d["curve"] == [dataclasses.asdict(p) for p in tc.points]
        assert ScenarioConfig.from_dict(d["config"]) == res.config

    def test_config_echo_reruns_identically(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="reg-tnoise", seed=7, **FAST))
        first = emit_outputs(res, tmp_path / "first")
        echoed = ScenarioConfig.from_dict(json.loads(first[0].read_text())["config"])
        second = emit_outputs(run_scenario(echoed), tmp_path / "second")
        assert [p.read_bytes() for p in second] == [p.read_bytes() for p in first]

    def test_from_dict_types_scalars_by_field(self):
        cfg = ScenarioConfig.from_dict({
            "scenario": "gauss-gauss", "seed": 3.0, "grid_count": 8.0, "folds": 5.0,
            "grid_hi": 1, "ridge": 0, "full_curve": True, "reverse_kl": "false", "features": ["x"],
        })
        typed = {"seed": 3, "grid_count": 8, "folds": 5, "grid_hi": 1.0, "ridge": 0.0,
                 "full_curve": True, "reverse_kl": False, "features": ("x",)}
        for name, value in typed.items():
            assert (type(getattr(cfg, name)), getattr(cfg, name)) == (type(value), value), name


class TestEmitOutputs:
    def test_files_and_header(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, **FAST))
        json_path, csv_path = emit_outputs(res, tmp_path / "out")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,log_predictive,logZ_approx_sum,logZ_true_sum,t_stat,p_value"
        assert len(lines) == 1 + 6
        # classifier columns are empty without --full-curve; true column filled
        first = lines[1].split(",")
        assert first[2] == "" and first[4] == "" and first[5] == ""
        assert first[3] != ""
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)
        summary = json.loads(json_path.read_text())
        assert summary["scenario"] == "gauss-gauss"
        # the JSON curve rows carry the CSV columns, lower-cased, in the same order
        assert all(list(row) == lines[0].lower().split(",") for row in summary["curve"])

    def test_single_row_curve(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, **FAST))
        single = dataclasses.replace(res, curve=dataclasses.replace(res.curve, points=res.curve.points[:1]))
        _, csv_path = emit_outputs(single, tmp_path / "single")
        assert len(csv_path.read_text().splitlines()) == 2

    def test_failed_grid_point_writes_blanks_and_nulls(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, full_curve=True, **FAST))
        t = res.curve.points[2].t
        points = list(res.curve.points)
        points[2] = CurvePoint(t, None)
        failed = dataclasses.replace(res, curve=dataclasses.replace(res.curve, points=tuple(points)))
        json_path, csv_path = emit_outputs(failed, tmp_path)
        assert csv_path.read_text().splitlines()[3] == format(t, ".10g") + ",,,,,"
        row = json.loads(json_path.read_text())["curve"][2]
        assert row == {
            "t": t, "log_predictive": None, "logz_approx_sum": None, "logz_true_sum": None,
            "t_stat": None, "p_value": None,
        }

    def test_non_finite_values_written_as_csv_tokens(self, tmp_path):
        # A ridge of 1e300 pins every fit at zero: the log ratios are nearly
        # all equal, so t statistics are infinite, and summary.json must stay
        # strict JSON and write each as the token curve.csv writes.  On
        # gauss-gauss seed 1 the log ratios at t* are about 1e-301, so their
        # spread underflows to 0 and the test's statistic is inf; the tiny
        # poisson-betabinom run's curve has both infinities.
        gauss = tmp_path / "gauss"
        assert main(["run", "--scenario", "gauss-gauss", "--seed", "1", "--ridge", "1e300", "--out", str(gauss)]) == 0
        assert _load_strict(gauss / "summary.json")["test"]["statistic"] == "inf"
        out = tmp_path / "ridge"
        argv = ["run", "--scenario", "poisson-betabinom", "--seed", "3", "--n-update", "4",
                "--n-validate", "4", "--folds", "2", "--ridge", "1e300", "--full-curve", "--out", str(out)]
        assert main(argv) == 0
        summary = _load_strict(out / "summary.json")
        lines = (out / "curve.csv").read_text().splitlines()
        tokens = [line.split(",")[4] for line in lines[1:]]
        assert {"inf", "-inf"} <= set(tokens)
        for row, token in zip(summary["curve"], tokens, strict=True):
            assert row["t_stat"] == token if token in ("inf", "-inf") else isinstance(row["t_stat"], float)

    def test_every_non_finite_field_written_as_its_token(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, full_curve=True, **FAST))
        points = list(res.curve.points)
        points[1] = dataclasses.replace(points[1], log_predictive=-math.inf, logz_approx_sum=math.nan)
        odd = dataclasses.replace(res, curve=dataclasses.replace(res.curve, points=tuple(points)))
        json_path, csv_path = emit_outputs(odd, tmp_path)
        row = _load_strict(json_path)["curve"][1]
        assert (row["log_predictive"], row["logz_approx_sum"]) == ("-inf", "nan")
        assert csv_path.read_text().splitlines()[2].split(",")[1:3] == ["-inf", "nan"]

    def test_ten_significant_digits(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, **FAST))
        _, csv_path = emit_outputs(res, tmp_path / "digits")
        value = csv_path.read_text().splitlines()[1].split(",")[1]
        assert value == format(float(value), ".10g")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(scenario="gauss-laplace", seed=11, **FAST)
        j1, c1 = emit_outputs(run_scenario(cfg), tmp_path / "a")
        j2, c2 = emit_outputs(run_scenario(cfg), tmp_path / "b")
        assert j1.read_bytes() == j2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()

    def test_failed_second_write_leaves_the_previous_pair(self, tmp_path):
        # A directory named like the summary's temporary makes the second of
        # the two writes fail, after the curve's temporary is written.
        first, second = (run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=s, full_curve=True, **FAST))
                         for s in (3, 4))
        emit_outputs(first, tmp_path)
        previous = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert set(previous) == {"summary.json", "curve.csv"}  # a write leaves no temporary
        (tmp_path / "summary.json.tmp").mkdir()
        with pytest.raises(OSError, match="cannot write outputs under"):
            emit_outputs(second, tmp_path)
        assert {path.name for path in tmp_path.iterdir()} == {*previous, "summary.json.tmp"}
        assert {name: (tmp_path / name).read_bytes() for name in previous} == previous


def _load_dumped(path: Path):
    """summary.json at ``path``, parsed strictly, after checking its text is ``json.dumps(indent=2)`` of that."""
    doc = _load_strict(path)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    return doc


_CUSTOM = ScenarioConfig(
    scenario="custom", seed=2, model_family="poisson-gamma", model_params={"shape": 3.0, "rate": 0.05},
    truth_family="negbinom", truth_params={"r": 63.0, "p": 0.488}, features=("x", "x2"), **FAST,
)
_WRITER_CASES = {
    **{f"{name}-{mode}": ScenarioConfig(scenario=name, seed=4, **flags, **FAST)
       for name in SCENARIOS
       for mode, flags in (("tstar", {}), ("full-reverse", {"full_curve": True, "reverse_kl": True}))},
    "ridge-1e300": ScenarioConfig(scenario="poisson-betabinom", seed=3, n_update=4, n_validate=4, folds=2,
                                  ridge=1e300, full_curve=True),
    "custom": _CUSTOM,
    # 1,003 points per class in 7 folds of 144 or 143: the point path swaps
    # runs of unequal sizes.
    "unequal-folds": ScenarioConfig(scenario="reg-sigmoid", seed=2, n_validate=1003, folds=7, full_curve=True,
                                    reverse_kl=True),
    # Student-t noise of 0.3 degrees of freedom puts a few responses many
    # orders of magnitude out, so single points spread the folds that train
    # on them far beyond the folds that hold them out.
    "heavy-tail": ScenarioConfig(scenario="custom", seed=1, full_curve=True, reverse_kl=True,
                                 **dict(_PRESETS["reg-tnoise"], truth_params=dict(df=0.3, scale=1.22))),
    # Counts near 1e12 are too sparse for a dense table of cumulative logs,
    # so their levels are scored through log_gamma.
    "counts-near-1e12": ScenarioConfig(scenario="custom", seed=1, model_family="poisson-gamma",
                                       model_params=dict(shape=3.0, rate=0.05), truth_family="negbinom",
                                       truth_params=dict(r=1e6, p=0.999999), features=("x", "x2", "x3", "x4")),
    "golden-sizes": ScenarioConfig(scenario="reg-sigmoid", seed=17, n_update=140, n_validate=140, folds=5,
                                   grid_lo=1e-7, grid_hi=1.0, grid_count=8, full_curve=True, reverse_kl=True),
}


class TestSummaryWriter:
    @pytest.mark.parametrize("cfg", list(_WRITER_CASES.values()), ids=list(_WRITER_CASES))
    def test_bytes_of_json_dumps(self, tmp_path, cfg):
        result = run_scenario(cfg)
        json_path, _ = emit_outputs(result, tmp_path)
        doc = _load_dumped(json_path)
        assert doc["curve"] == [_strict(dataclasses.asdict(p)) for p in result.curve.points]
        # The pair is written through temporaries renamed over it, and none is left.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["curve.csv", "summary.json"]

    def test_non_finite_and_missing_curve_values(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, full_curve=True, **FAST))
        points = list(res.curve.points)
        points[1] = dataclasses.replace(points[1], log_predictive=-math.inf, logz_approx_sum=math.nan, t_stat=math.inf)
        points[2] = CurvePoint(points[2].t, None)
        odd = dataclasses.replace(res, curve=dataclasses.replace(res.curve, points=tuple(points)))
        json_path, _ = emit_outputs(odd, tmp_path)
        rows = _load_dumped(json_path)["curve"]
        assert (rows[1]["log_predictive"], rows[1]["logz_approx_sum"], rows[1]["t_stat"]) == ("-inf", "nan", "inf")
        assert rows[2] == {
            "t": points[2].t, "log_predictive": None, "logz_approx_sum": None, "logz_true_sum": None,
            "t_stat": None, "p_value": None,
        }

    def test_nested_values(self):
        text = 'caf\u00e9 "quoted"\n\ttab\\'
        doc = {
            "empty": [], "none": {}, "text": text, "flags": [True, False, None],
            "numbers": (0, -3, 2**70, 0.1, -0.0, 1e300, 5e-324, math.inf, -math.inf, math.nan),
            "nested": {"rows": [{"a": [1.5, -math.inf, []]}, ({"b": math.nan},)]},
        }
        expected = {
            "empty": [], "none": {}, "text": text, "flags": [True, False, None],
            "numbers": [0, -3, 2**70, 0.1, -0.0, 1e300, 5e-324, "inf", "-inf", "nan"],
            "nested": {"rows": [{"a": [1.5, "-inf", []]}, [{"b": "nan"}]]},
        }
        # repr tells -0.0 from 0.0, True from 1 and a tuple from a list
        assert repr(_strict(doc)) == repr(expected)

    def test_unknown_leaf_rejected(self, tmp_path):
        res = run_scenario(ScenarioConfig(scenario="gauss-gauss", seed=3, **FAST))
        odd = dataclasses.replace(res, meta={**res.meta, "value": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_outputs(odd, tmp_path)
        assert not (tmp_path / "summary.json").exists()


class TestConfigFile:
    def test_custom_scenario_parse_and_run(self, tmp_path):
        cfg_file = tmp_path / "custom.cfg"
        cfg_file.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "model = gaussian",
                    "model.noise_sd = 0.1",
                    "model.prior_mean = 0.0",
                    "model.prior_sd = 9.9",
                    "truth = laplace",
                    "truth.loc = 0.0",
                    "truth.scale = 2.13",
                    "features = x, x2, ln_abs_x",
                    "seed = 4",
                    "n_update = 120",
                    "n_validate = 120",
                    "folds = 5",
                    "grid = 1e-7:1.0:6",
                    "# a comment line",
                ]
            )
        )
        parsed = load_config_file(cfg_file)
        cfg = ScenarioConfig.from_dict({**parsed, "scenario": "custom"})
        res = run_scenario(cfg)
        assert res.config.scenario == "custom"
        assert res.curve.true_at_t_star is not None

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("this is not a key value line")
        with pytest.raises(ValueError):
            load_config_file(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad2.cfg"
        cfg_file.write_text("bogus = 3")
        with pytest.raises(ValueError):
            load_config_file(cfg_file)

    @pytest.mark.parametrize(
        "key,value",
        [("folds", "2.5"), ("model.noise_sd", "abc"), ("grid", "1e-7:1.0"), ("full_curve", "maybe"), ("bogus", "3")],
    )
    def test_bad_value_names_file_line_and_key(self, tmp_path, key, value):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"scenario = custom\n# a comment\n{key} = {value}\n")
        with pytest.raises(ValueError) as info:
            load_config_file(cfg_file)
        assert str(info.value).startswith(f"{cfg_file}:3: {key}: ")

    @pytest.mark.parametrize("key", ["grid_lo", "grid_hi", "grid_count"])
    def test_grid_fields_are_not_keys(self, tmp_path, key):
        cfg_file = tmp_path / "grid.cfg"
        cfg_file.write_text(f"{key} = 0.1\n")
        with pytest.raises(ValueError) as info:
            load_config_file(cfg_file)
        assert str(info.value) == f"{cfg_file}:1: {key}: unknown key"

    @pytest.mark.parametrize(
        "first,second",
        [
            ("seed = 1", "seed = 2"),
            ("model.noise_sd = 0.1", "model.noise_sd = 0.2"),
            ("features = x, x2", "features = x"),
            ("grid = 1e-7:1.0:6", "grid = 1e-7:1.0:6"),
        ],
        ids=["seed", "dotted-parameter", "features", "same-value"],
    )
    def test_key_set_twice_rejected(self, tmp_path, capsys, first, second):
        key = first.split(" = ")[0]
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text(f"scenario = custom\n{first}\n# a comment\nfolds = 5\n{second}\n")
        message = f"{cfg_file}:5: {key}: already set on line 2"
        with pytest.raises(ValueError) as info:
            load_config_file(cfg_file)
        assert str(info.value) == message
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    # A text for each run option that differs from the base config's value.
    OPTION_TEXT = {
        "scenario": "reg-tnoise", "seed": "7", "n_update": "300", "n_validate": "200", "folds": "4",
        "grid": "1e-5:0.5:7", "ridge": "0.25", "full_curve": "true", "reverse_kl": "true",
    }

    @pytest.mark.parametrize("key", list(_RUN_OPTIONS))
    def test_flag_and_config_line_agree(self, tmp_path, key):
        text = self.OPTION_TEXT[key]
        base, line = tmp_path / "base.cfg", tmp_path / "line.cfg"
        lines = {"scenario": "gauss-gauss", "seed": "1"}
        base.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        line.write_text("".join(f"{k} = {v}\n" for k, v in {**lines, key: text}.items()))  # a key is set once
        flag = ["--" + key.replace("_", "-")] + ([] if text == "true" else [text])

        def config(cfg_file, *flags):
            args = _build_parser().parse_args(["run", "--config", str(cfg_file), *flags, "--out", "x"])
            return _config_from_args(args)

        from_flag = config(base, *flag)
        assert from_flag == config(line)
        assert from_flag != config(base)

    def test_missing_family_parameters_named(self, tmp_path, capsys):
        cfg_file = tmp_path / "missing.cfg"
        cfg_file.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "seed = 1",
                    "model = nig-regression",
                    "model.coef_mean = 0.0",
                    "truth = reg-tnoise",
                    "truth.scale = 1.5",
                    "features = y2, yx",
                ]
            )
        )
        cfg = ScenarioConfig.from_dict(load_config_file(cfg_file))
        missing = r"^missing model parameters \['precision_scale', 'shape', 'scale'\] for 'nig-regression'$"
        with pytest.raises(ValueError, match=missing):
            cfg.binding()
        # a field with a default (the t-noise truth's df) stays optional
        params = {"coef_mean": 0.0, "precision_scale": 1.0, "shape": 2.0, "scale": 2.0}
        optional = dataclasses.replace(cfg, model_params=params)
        assert optional.binding().truth.df == 3.0
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert "missing model parameters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,truth,features,message",
        [
            (
                "gaussian\nmodel.noise_sd = 0.1\nmodel.prior_mean = 0\nmodel.prior_sd = 9.9",
                "reg-tnoise",
                "y2, yx",
                "the model and the truth take different kinds of data: "
                "model 'gaussian' (real data), truth 'reg-tnoise' (regression data)",
            ),
            (
                "nig-regression\nmodel.coef_mean = 0\nmodel.precision_scale = 1\n"
                "model.shape = 2\nmodel.scale = 2",
                "gaussian\ntruth.mean = 0\ntruth.sd = 3",
                "x, x2",
                "the model and the truth take different kinds of data: "
                "model 'nig-regression' (regression data), truth 'gaussian' (real data)",
            ),
            (
                "poisson-gamma\nmodel.shape = 3\nmodel.rate = 0.05",
                "gaussian\ntruth.mean = 0\ntruth.sd = 3",
                "x, x2",
                "the model and the truth take different kinds of data: "
                "model 'poisson-gamma' (count data), truth 'gaussian' (real data)",
            ),
            (
                "gaussian\nmodel.noise_sd = 0.1\nmodel.prior_mean = 0\nmodel.prior_sd = 9.9",
                "gaussian\ntruth.mean = 0\ntruth.sd = 3",
                "x, y2",
                "features ['y2'] need regression data: "
                "model 'gaussian' (real data), truth 'gaussian' (real data)",
            ),
        ],
        ids=["gaussian-regtruth", "regression-gausstruth", "counts-gausstruth", "response-feature"],
    )
    def test_mismatched_data_kinds_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, model, truth, features, message
    ):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the data kinds were checked")

        for cls in (GaussianTruth, TNoiseRegressionTruth):
            monkeypatch.setattr(cls, "sample", sample)
        cfg_file = tmp_path / "kinds.cfg"
        cfg_file.write_text(
            f"scenario = custom\nseed = 1\nmodel = {model}\ntruth = {truth}\nfeatures = {features}\n"
        )
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_feature_rejected_before_sampling(self, tmp_path, capsys, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the feature names were checked")

        monkeypatch.setattr(GaussianTruth, "sample", sample)
        cfg_file = tmp_path / "features.cfg"
        cfg_file.write_text(
            "scenario = custom\nseed = 1\n"
            "model = gaussian\nmodel.noise_sd = 0.1\nmodel.prior_mean = 0\nmodel.prior_sd = 9.9\n"
            "truth = gaussian\ntruth.mean = 0\ntruth.sd = 3\nfeatures = x, bogus\n"
        )
        with pytest.raises(ValueError, match=r"unknown transforms \['bogus'\]"):
            ScenarioConfig.from_dict(load_config_file(cfg_file)).binding()
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: unknown transforms ['bogus']")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,truth,field",
        [
            ("model.noise_sd = 0.1\nmodel.prior_sd = 1e-200", "truth.sd = 3", "prior_sd"),
            ("model.noise_sd = 1e-170\nmodel.prior_sd = 9.9", "truth.sd = 3", "noise_sd"),
            ("model.noise_sd = 1e200\nmodel.prior_sd = 9.9", "truth.sd = 3", "noise_sd"),
            ("model.noise_sd = 0.1\nmodel.prior_sd = 9.9", "truth.sd = 1e-200", "sd"),
        ],
        ids=["prior_sd-underflow", "noise_sd-subnormal", "noise_sd-overflow", "truth-sd-underflow"],
    )
    def test_gaussian_scale_without_normal_square_rejected(self, tmp_path, capsys, model, truth, field):
        # each square is 0, subnormal or inf: rejected before any work, naming the field
        cfg_file = tmp_path / "scale.cfg"
        cfg_file.write_text(
            "scenario = custom\nseed = 1\nmodel = gaussian\nmodel.prior_mean = 0\n"
            f"{model}\ntruth = gaussian\ntruth.mean = 0\n{truth}\nfeatures = x, x2\n"
        )
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be positive with a normal float square")
        assert not (tmp_path / "out").exists()

    def test_level_without_finite_log_predictive_rejected(self, tmp_path, capsys):
        # noise_sd**2 is a normal float, but above t ~ 7.9e-4 the predictive
        # variance is so small that the squared residuals overflow: those
        # levels' log predictive is -inf, so t* cannot be chosen.  The suite
        # turns any RuntimeWarning into an error, so none may escape either.
        cfg_file = tmp_path / "overflow.cfg"
        cfg_file.write_text(
            "scenario = custom\nseed = 0\nn_update = 100\nn_validate = 100\n"
            "model = gaussian\nmodel.noise_sd = 1.5e-154\nmodel.prior_mean = 0\nmodel.prior_sd = 1\n"
            "truth = gaussian\ntruth.mean = 0\ntruth.sd = 1\nfeatures = x, x2\n"
        )
        t = TemperingGrid.log_uniform().values[30]
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: the log predictive of the validation data at tempering level t={t:.6g} is -inf\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,model_params,truth,truth_params,features",
        [
            ("gaussian", dict(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9), "laplace", dict(loc=1e200, scale=1.0),
             ("x",)),
            ("nig-regression", dict(coef_mean=0.0, precision_scale=1.0, shape=2.0, scale=2.0), "reg-tnoise",
             dict(scale=1e170), ("abs_y", "y2", "ln_abs_y", "yx")),
        ],
        ids=["laplace-loc-1e200", "reg-tnoise-scale-1e170"],
    )
    def test_overflowing_update_data_named(self, model, model_params, truth, truth_params, features):
        # Each draw is finite, but the sum of their squares overflows: the
        # run fails on the update data, naming the column, and under the
        # suite's RuntimeWarning filter no overflow warning escapes first.
        cfg = ScenarioConfig(
            scenario="custom", seed=1, model_family=model, model_params=model_params,
            truth_family=truth, truth_params=truth_params, features=features,
        )
        message = "update data overflows float64: the sum of squares of its values is inf"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_scenario(cfg)

    @pytest.mark.parametrize(
        "loc,features,message",
        [
            ("1e100", "x, x2", "feature 'x2' of the observed and simulated points has a non-finite sd (inf)"),
            ("1e80", "x, x4", "feature 'x4' of the observed and simulated points has a non-finite mean (inf)"),
        ],
        ids=["x2-sd", "x4-mean"],
    )
    def test_non_finite_feature_named(self, tmp_path, capsys, loc, features, message):
        # Every draw is finite.  At loc = 1e100 each x2 is finite, but the
        # squared spread of x2 across the two classes overflows, so its sd
        # is inf; at loc = 1e80 x4 itself overflows.  Either way the CV
        # call at t* fails on its first fold, naming the feature and the
        # classes, before any output is written; under the suite's
        # RuntimeWarning filter no warning escapes first.
        cfg_file = tmp_path / "overflow.cfg"
        cfg_file.write_text(
            "scenario = custom\nseed = 1\nn_update = 100\nn_validate = 100\nfolds = 5\n"
            "model = gaussian\nmodel.noise_sd = 0.1\nmodel.prior_mean = 0\nmodel.prior_sd = 9.9\n"
            f"truth = laplace\ntruth.loc = {loc}\ntruth.scale = 1\nfeatures = {features}\n"
        )
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message} on the training points of fold 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials,ok", [("80", True), ("80.0", True), ("80.5", False)])
    def test_betabinom_trials_whole_number(self, tmp_path, capsys, trials, ok):
        cfg_file = tmp_path / "bb.cfg"
        cfg_file.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "seed = 1",
                    "model = poisson-gamma",
                    "model.shape = 3.0",
                    "model.rate = 0.05",
                    "truth = betabinom",
                    "truth.a = 41.75",
                    "truth.b = 78.25",
                    f"truth.trials = {trials}",
                    "features = x, x2",
                ]
            )
        )
        cfg = ScenarioConfig.from_dict(load_config_file(cfg_file))
        if ok:
            assert cfg.binding().truth.trials == 80
        else:
            with pytest.raises(ValueError, match="trials must be a whole number"):
                cfg.binding()
            # the CLI rejects it before any work, naming the parameter
            assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
            assert "trials must be a whole number" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "truth_params,grid_tables",
        [(dict(r=1e6, p=0.999999), 1), (dict(r=63.0, p=0.488), 0)],
        ids=["counts-near-1e12", "poisson-nb-counts"],
    )
    def test_count_levels_take_log_gamma_only_for_sparse_counts(self, monkeypatch, truth_params, grid_tables):
        # negbinom(r=1e6, p=0.999999) draws counts near 1e12, about one
        # distinct count per point: too sparse for a dense table, so the grid's
        # (levels x distinct counts) table is taken by log_gamma.  poisson-nb's
        # counts are dense, and log_gamma sees only 1-D arrays of counts.
        shapes = []

        def spy(x):
            shapes.append(np.shape(x))
            return log_gamma(x)

        monkeypatch.setattr(numerics, "log_gamma", spy)
        cfg = ScenarioConfig(
            scenario="custom", seed=1, n_update=200, n_validate=200, folds=5, model_family="poisson-gamma",
            model_params=dict(shape=3.0, rate=0.05), truth_family="negbinom", truth_params=truth_params,
            features=("x", "x2", "x3", "x4"),
        )
        tc = run_scenario(cfg).curve
        assert sum(len(s) == 2 and s[0] == cfg.grid_count and s[1] > 1 for s in shapes) == grid_tables
        assert all(len(s) < 2 or s[0] in (1, cfg.grid_count) for s in shapes)
        assert math.isfinite(tc.log_predictive_at_t_star) and math.isfinite(tc.true_at_t_star.sum)
        assert all(math.isfinite(p.log_predictive) for p in tc.points)


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "gauss-gauss",
                "--seed",
                "3",
                "--n-update",
                "120",
                "--n-validate",
                "120",
                "--folds",
                "5",
                "--grid",
                "1e-7:1.0:6",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 0
        assert (tmp_path / "run" / "summary.json").exists()
        assert (tmp_path / "run" / "curve.csv").exists()

    def test_unknown_scenario_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--scenario", "bogus", "--seed", "1", "--out", str(tmp_path)])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_nan_ridge_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--scenario", "gauss-gauss", "--seed", "0", "--ridge", "nan", "--out", str(tmp_path)])
        assert code == 2
        assert "error: ridge" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_repeated_feature_rejected_before_sampling(self, tmp_path, capsys, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the feature names were checked")

        monkeypatch.setattr(GaussianTruth, "sample", sample)
        cfg_file = tmp_path / "features.cfg"
        cfg_file.write_text(
            "scenario = custom\nseed = 1\n"
            "model = gaussian\nmodel.noise_sd = 0.1\nmodel.prior_mean = 0\nmodel.prior_sd = 9.9\n"
            "truth = gaussian\ntruth.mean = 0\ntruth.sd = 3\nfeatures = x, x, x2\n"
        )
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: transforms ['x'] are repeated; each may appear once\n"
        assert not (tmp_path / "out").exists()

    def test_run_help_shows_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert not any("default" in help_text for help_text in _RUN_OPTIONS.values())
        cfg = ScenarioConfig(scenario="gauss-gauss", seed=0)
        for key, default in [
            ("n_update", cfg.n_update), ("n_validate", cfg.n_validate), ("folds", cfg.folds), ("ridge", cfg.ridge),
            ("grid", f"{cfg.grid_lo}:{cfg.grid_hi}:{cfg.grid_count}"),
        ]:
            assert f"{_RUN_OPTIONS[key]} (default {default})" in text
        for key in ("scenario", "seed", "full_curve", "reverse_kl"):
            assert f"{_RUN_OPTIONS[key]} (default" not in text

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("0.5:0.1:10", "need 0 < lo < hi <= 1"),
            ("1e-8:1:1", "count must be >= 2"),
            ("0:1:5", "need 0 < lo < hi <= 1"),
            ("1e-8:1:50.5", "--grid: grid must be lo:hi:count, got '1e-8:1:50.5'"),
            ("a:1:5", "--grid: grid must be lo:hi:count, got 'a:1:5'"),
        ],
    )
    def test_bad_grid_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, grid, message):
        sampled = []
        monkeypatch.setattr(GaussianTruth, "sample", lambda *args: sampled.append(args))
        args = ["run", "--scenario", "gauss-gauss", "--seed", "0", "--grid", grid, "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sampled == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,text", [("--seed", "abc"), ("--folds", "2.5"), ("--ridge", "x")])
    def test_bad_flag_value_named_before_sampling(self, tmp_path, capsys, monkeypatch, flag, text):
        sampled = []
        monkeypatch.setattr(GaussianTruth, "sample", lambda *args: sampled.append(args))
        args = ["run", "--scenario", "gauss-gauss", "--seed", "0", flag, text, "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert sampled == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags,flag",
        [(["--seed", "2"], "--seed"), (["--full-curve", "--full-curve"], "--full-curve"),
         (["--out", "first"], "--out")],
        ids=["seed", "switch", "out"],
    )
    def test_flag_given_twice_exits_two(self, tmp_path, capsys, monkeypatch, flags, flag):
        # the last value used to win silently: --seed 1 --seed 2 ran seed 2
        sampled = []
        monkeypatch.setattr(GaussianTruth, "sample", lambda *args: sampled.append(args))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", "gauss-gauss", "--seed", "1", *flags, "--out", "out"]) == 2
        assert capsys.readouterr().err == f"error: {flag}: already given\n"
        assert sampled == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name,reason", [("missing.cfg", "No such file or directory"), ("", "Is a directory")], ids=["missing", "directory"]
    )
    def test_unreadable_config_exits_two(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: cannot read config file {path}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"\xffscenario = gauss-gauss\nseed = 0\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config file {path}: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    def test_empty_config_path_exits_two(self, tmp_path, capsys):
        # an empty --config is a path that names no file, not an absent option
        args = ["run", "--config", "", "--scenario", "gauss-gauss", "--seed", "3", "--n-update", "40"]
        args += ["--n-validate", "40", "--folds", "4", "--grid", "1e-3:1.0:4", "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: cannot read config file : No such file or directory\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        args = ["run", "--scenario", "gauss-gauss", "--seed", "3", "--n-update", "40", "--n-validate", "40"]
        assert main(args + ["--folds", "4", "--grid", "1e-3:1.0:4", "--out", str(blocker / "sub")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write outputs under {blocker / 'sub'}: ")

    def test_missing_seed_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--scenario", "gauss-gauss", "--out", str(tmp_path)])
        assert code != 0

    def test_module_invocation(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "carmen", "list"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "gauss-gauss" in proc.stdout

    @staticmethod
    def _closed_stdout(args: list[str], lines_read: int) -> tuple[int, bytes, list[bytes]]:
        """``python -m carmen args`` with stdout closed after ``lines_read`` lines: exit code, stderr, the lines."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, "-m", "carmen", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        read = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(), err, read

    @pytest.mark.parametrize("lines_read", [0, 1], ids=["closed-at-once", "closed-after-one-line"])
    def test_closed_stdout_ends_cleanly(self, tmp_path, lines_read):
        # A reader that leaves early, as `| head -1` does, only cuts the
        # report short: the outputs are written first, so the run exits 0
        # with no traceback.  The pipe closed at once fails the report's
        # first write for certain; one line read is head's case, where the
        # unbuffered second line may or may not still be written.
        out = tmp_path / "out"
        code, err, read = self._closed_stdout(
            ["run", "--scenario", "poisson-nb", "--seed", "1", "--out", str(out)], lines_read)
        assert (code, err) == (0, b"")
        assert all(line.startswith(b"poisson-nb seed=1: t*=") for line in read)
        assert sorted(p.name for p in out.iterdir()) == ["curve.csv", "summary.json"]
        assert _load_strict(out / "summary.json")["config"]["scenario"] == "poisson-nb"

    def test_list_to_a_closed_stdout_ends_cleanly(self):
        assert self._closed_stdout(["list"], 0) == (0, b"", [])

    def test_custom_via_config_flag(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "model = poisson-gamma",
                    "model.shape = 3.0",
                    "model.rate = 0.05",
                    "truth = negbinom",
                    "truth.r = 63.0",
                    "truth.p = 0.488",
                    "features = x, x2, x3, x4",
                ]
            )
        )
        code = main(
            [
                "run",
                "--config",
                str(cfg_file),
                "--seed",
                "2",
                "--n-update",
                "120",
                "--n-validate",
                "120",
                "--folds",
                "5",
                "--grid",
                "1e-5:1.0:6",
                "--out",
                str(tmp_path / "custom"),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "custom" / "summary.json").read_text())
        assert summary["config"]["truth_family"] == "negbinom"
        # the five custom keys follow the shared ones, in this order
        assert list(summary["config"]) == [
            "scenario", "seed", "n_update", "n_validate", "folds", "ridge", "grid_lo", "grid_hi",
            "grid_count", "full_curve", "reverse_kl",
            "model_family", "model_params", "truth_family", "truth_params", "features",
        ]
        assert summary["config"]["features"] == ["x", "x2", "x3", "x4"]
