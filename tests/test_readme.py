"""The README's documented library surface and command line against the package."""

import argparse
import json
import re
from pathlib import Path

import carmen
from carmen.cli import SCENARIOS, ScenarioConfig, _build_parser, emit_outputs, load_config_file, main, run_scenario
from test_cli import _load_dumped

README = Path(__file__).resolve().parent.parent / "README.md"


def _surface_block() -> str:
    block = re.search(r"## Library surface\s+```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no 'Library surface' python block"
    return block.group(1)


def test_library_surface_block_imports():
    block = _surface_block()
    assert re.search(r"from carmen import \(\s*\w", block)
    exec(block, {})  # an ImportError names the first stale name


def test_library_surface_block_is_all():
    names = re.search(r"from carmen import \((.*?)\)", _surface_block(), re.S).group(1)
    documented = re.findall(r"\w+", names)
    assert len(documented) == len(set(documented)), "the block names a name twice"
    assert set(documented) == set(carmen.__all__) - {"__version__"}
    assert carmen.__all__ == ["__version__", *documented]  # in the block's order


def _code_block_after(heading: str, opening: str) -> str:
    """The first fenced block after ``heading`` whose text starts with ``opening``."""
    section = README.read_text().split(heading, 1)[1]
    block = re.search(r"```\n(" + re.escape(opening) + r".*?)```", section, re.S)
    assert block, f"README has no block starting {opening!r} after {heading!r}"
    return block.group(1)


def test_run_synopsis_names_the_run_options():
    synopsis = _code_block_after("## Command line", "carmen run").split("carmen list")[0]
    documented = re.findall(r"--[\w-]+", synopsis)
    assert len(documented) == len(set(documented)), "the synopsis names an option twice"
    (subparsers,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run = subparsers.choices["run"]
    options = {o for a in run._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
    assert set(documented) == options


def test_custom_scenario_block_loads_and_binds(tmp_path):
    cfg_file = tmp_path / "custom.cfg"
    cfg_file.write_text(_code_block_after("Custom scenarios use", "scenario = custom"))
    cfg = ScenarioConfig.from_dict(load_config_file(cfg_file))
    assert cfg.scenario == "custom" and cfg.features
    binding = cfg.binding()
    assert (binding.model.kind, binding.truth.kind) == ("real", "real")


def test_custom_scenario_block_runs_through_config(tmp_path):
    # As `carmen run --scenario custom --config <the block>`: the run writes
    # summary.json as json.dumps(indent=2) writes it, and no temporary.
    cfg_file = tmp_path / "custom.cfg"
    cfg_file.write_text(_code_block_after("Custom scenarios use", "scenario = custom"))
    out = tmp_path / "out"
    assert main(["run", "--scenario", "custom", "--config", str(cfg_file), "--out", str(out)]) == 0
    _load_dumped(out / "summary.json")
    assert sorted(path.name for path in out.iterdir()) == ["curve.csv", "summary.json"]


def test_preset_block_runs_gauss_gauss(tmp_path):
    cfg_file = tmp_path / "preset.cfg"
    cfg_file.write_text(_code_block_after("A named scenario is a preset", "scenario = custom"))
    custom = ScenarioConfig.from_dict(load_config_file(cfg_file))
    assert custom.binding() == SCENARIOS["gauss-gauss"]
    named = ScenarioConfig.from_dict({"scenario": "gauss-gauss", "seed": custom.seed})
    outputs = [emit_outputs(run_scenario(cfg), tmp_path / cfg.scenario) for cfg in (custom, named)]
    (custom_json, custom_csv), (named_json, named_csv) = outputs
    assert custom_csv.read_bytes() == named_csv.read_bytes()
    summaries = [json.loads(path.read_text()) for path in (custom_json, named_json)]
    for doc in summaries:  # the scenario's name and its config echo differ
        del doc["scenario"], doc["config"]
    assert summaries[0] == summaries[1]
