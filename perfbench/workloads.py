"""Workload definitions and the seeded corpora they generate.

Every workload fixes its generator parameters and its generator seeds (the
first ``corpus`` seeds, 0, 1, ...), so each run solves the same instances;
the benchmark's ``--seed`` argument sets the order in which they are solved.
Two designs that let the seed pick the instances were measured and
dropped, because their seed-to-seed spread exceeded the 25% bounds of
BENCHMARK.json: generator seeds taken from ``--seed`` (the mix of trivial
and DP-heavy instances alone moves the median verdict time of a 40-instance
``planted_dp`` corpus by about 30%), and a seed-drawn vertex relabelling of
fixed instances (trial counts change with the labels, and ``verdicts_per_s``
on ``planted_dp`` spread by 28% over six seeds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "planted" or "random"
    n: int
    terminals: int
    k: int
    corpus: int
    time_limit_s: int


# Why each workload exists and which layer it loads: README.md. Corpus sizes
# keep one pass of each workload within a 50 s run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted_dp", "planted", 50, 6, 3, corpus=20, time_limit_s=60),
        # Generator seed 10 would add a single 50 s DP trial.
        Workload("planted_kernel", "planted", 150, 10, 3, corpus=10, time_limit_s=60),
        Workload("random_budget", "random", 12, 2, 6, corpus=12, time_limit_s=60),
        # Not gated: every instance hits its limit on the seed commit.
        Workload("planted_scale", "planted", 300, 10, 3, corpus=2, time_limit_s=20),
    )
}


@dataclass(frozen=True)
class Case:
    """One corpus entry: the text the program gets plus what the checker needs.

    ``id`` is also the generator seed.
    """

    id: int
    text: str
    instance: object  # sfast.Instance
    planted: Optional[frozenset]  # planted arcs; None for random instances


def build_corpus(sfast, workload: Workload, seed: int) -> tuple[list[Case], float]:
    """The corpus for one seed, in solving order, and the seconds spent in
    the generators themselves."""
    generate_s = 0.0
    cases = []
    for i in range(workload.corpus):
        spec_args = (workload.n, workload.terminals, i)
        start = perf_counter()
        if workload.generator == "planted":
            instance, planted = sfast.generate_planted(
                sfast.GeneratorSpec(*spec_args, planted_k=workload.k)
            )
        else:
            instance = sfast.generate_random(sfast.GeneratorSpec(*spec_args, k=workload.k))
            planted = None
        generate_s += perf_counter() - start
        cases.append(Case(i, sfast.serialize_instance(instance), instance, planted))
    random.Random(seed).shuffle(cases)
    return cases, generate_s
