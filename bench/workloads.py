"""Workload definitions shared by the runner, the recorder and the self-test.

A workload is a fixed pool of scenario configurations.  One cycle runs
every configuration of the pool once; the workload seed only fixes the
order of runs inside each cycle.  Keeping the data seeds fixed means
every benchmark run measures the same work, and every output the
benchmark produces has a reference value recorded at the baseline.

``cycle_s`` is the wall time of one cycle at the baseline on a 2-core
Xeon; the runner turns ``--seconds`` into a whole number of cycles with
it, so two commits measured with the same ``--seconds`` do the same work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCENARIOS = (
    "gauss-gauss",
    "gauss-laplace",
    "poisson-nb",
    "poisson-betabinom",
    "reg-tnoise",
    "reg-sigmoid",
)

# The sizes the determinism acceptance criterion uses; golden outputs are
# recorded for these at GOLDEN_SEED.
GOLDEN_SIZES = dict(n_update=140, n_validate=140, folds=5, grid_lo=1e-7, grid_hi=1.0, grid_count=8)
GOLDEN_SEED = 17


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data_seeds: tuple[int, ...]
    cycle_s: float
    options: dict = field(default_factory=dict)
    scenarios: tuple[str, ...] = SCENARIOS

    def configs(self) -> list[dict]:
        """Keyword arguments of ``ScenarioConfig`` for every run of one cycle."""
        return [
            dict(scenario=s, seed=d, **self.options) for d in self.data_seeds for s in self.scenarios
        ]


def run_key(cfg: dict) -> str:
    return f"{cfg['scenario']}/{cfg['seed']}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-curve",
            "classifier refit at all 51 levels (510 IRLS fits per run): the many-small-fits hot path",
            data_seeds=(0,),
            cycle_s=13.0,
            options=dict(full_curve=True),
        ),
        Workload(
            "tstar",
            "plain t*-only runs: exact log ratios and the t* search dominate, only 10 fits per run",
            data_seeds=tuple(range(10)),
            cycle_s=4.8,
        ),
        Workload(
            "large-n",
            "n_validate=10000 with reverse KL: few fits on ~18000-row designs, matrix products dominate",
            data_seeds=(0, 1),
            cycle_s=7.5,
            options=dict(n_validate=10000, reverse_kl=True),
        ),
    )
}

GOLDEN = Workload(
    "golden",
    "criterion-10 sizes at seed 17, compared with the committed golden files",
    data_seeds=(GOLDEN_SEED,),
    cycle_s=0.3,
    options=GOLDEN_SIZES,
)
