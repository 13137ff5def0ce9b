"""The benchmark's workloads: fixed, seeded lists of experiment configs.

Each workload is one full-size base config plus a tiny config of the same
method and evaluation path.  The tiny config is the untimed warm-up before
timing, and the whole workload in smoke mode.  Experiment i of a list runs
with seed ``1000 * seed + i``, so a workload seed fixes every input and
different workload seeds never share an experiment.  BENCHMARK.json says
why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from sdtlearn.harness import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    base: ExperimentConfig
    tiny: ExperimentConfig
    #: Experiments in the fixed list.  One pass takes about 7 s on a 2-core
    #: Xeon, so a 15 s run makes about two passes, and the traced pass,
    #: which runs the list once, stays short.
    list_len: int
    #: Cycled over consecutive experiments.
    etas: tuple[float, ...]

    def configs(self, seed: int, tiny: bool = False) -> list[ExperimentConfig]:
        base = self.tiny if tiny else self.base
        return [
            replace(base, seed=1000 * seed + i, eta=self.etas[i % len(self.etas)])
            for i in range(self.list_len)
        ]


_ACCEPTANCE = ExperimentConfig(
    n=10, s=8, m=50_000, eps=0.15, method="find", stoch_fraction=0.3,
    adversary="label_flip_margin", max_depth=5,
)
_TINY = ExperimentConfig(
    n=6, s=4, m=2_000, eps=0.25, method="find", stoch_fraction=0.3,
    adversary="label_flip_margin", max_depth=3,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="find_acceptance",
            base=_ACCEPTANCE,
            tiny=_TINY,
            list_len=13,
            etas=(0.0, 0.05),
        ),
        Workload(
            name="l1_acceptance",
            # Stochastic targets make LP time bimodal (0.6 s to over 4 s per
            # experiment), far too spread for a few experiments per run; a
            # deterministic target under the margin adversary keeps every LP
            # about the same size.
            base=replace(_ACCEPTANCE, method="l1", eps=0.1, stoch_fraction=0.0),
            tiny=replace(_TINY, method="l1"),
            list_len=3,
            etas=(0.05,),
        ),
        Workload(
            name="l2_acceptance",
            base=replace(_ACCEPTANCE, method="l2", eps=0.1),
            tiny=replace(_TINY, method="l2"),
            list_len=13,
            etas=(0.0, 0.05),
        ),
        Workload(
            name="mc_wide",
            base=ExperimentConfig(
                n=30, s=16, m=20_000, eps=0.25, method="find", stoch_fraction=0.3,
                adversary="label_flip_random", max_depth=2,
            ),
            tiny=replace(
                _TINY, n=8, adversary="label_flip_random", max_depth=2,
                enumeration_cap=6, mc_trials=5_000,
            ),
            list_len=10,
            etas=(0.05,),
        ),
    )
}
