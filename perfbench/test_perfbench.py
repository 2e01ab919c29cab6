"""Self-test of the benchmark on a tiny corpus per workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout. Each workload is cut down to two instances
(``planted_scale`` is left out: its instances do not finish on purpose).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402
from reference import Reference  # noqa: E402

SMALL = ("planted_dp", "planted_kernel", "random_budget")


@pytest.fixture(autouse=True)
def tiny_corpora(monkeypatch):
    for name in SMALL:
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], corpus=2)
        )


def run_json(capsys, *args) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", SMALL)
def test_every_metric_is_emitted_with_its_unit(capsys, workload):
    spec = run.load_benchmark_json()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_json(
            capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)
        )
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_corrupted_solution_counts_as_failed():
    sfast = run.import_sfast()
    workload = workloads.WORKLOADS["planted_dp"]
    corpus, _ = workloads.build_corpus(sfast, workload, seed=5)
    case = corpus[0]
    reference = Reference()
    reference.sample()
    results = {c.id: [run.solve_one(sfast, c, 60)] for c in corpus}
    reference.sample()
    assert run.check(Checker(sfast), corpus, results) == {}

    good = sfast.solve_report(sfast.parse_instance(case.text))
    assert good.certified and good.solution  # a minimum: dropping an arc breaks it
    bad = run.Outcome(results[case.id][0].start, 0.1, report=good)
    bad.solution = frozenset(sorted(good.solution)[1:])
    results[case.id] = [bad]
    failures = run.check(Checker(sfast), corpus, results)
    assert list(failures) == [case.id]
    metrics = run.end_to_end(corpus, results, failures, reference, setup=(1.0, 1.0), peak_rss_mb=1.0)
    assert metrics["failed_share"] == 0.5
    assert metrics["verdict_s.p50"] == math.inf
    assert metrics["verdict_ref.p50"] == math.inf
    assert metrics["verdict_ref.geomean"] == math.inf


def test_same_seed_gives_identical_counts(capsys):
    names = ("solver.dp_states", "kernel.steps", "solver.trials", "solver.dp_calls")
    runs = [
        run_json(capsys, "--workload", "planted_dp", "--seed", "7", "--seconds", "0", "--trace", "1")
        for _ in range(2)
    ]
    first, second = ({n: r["metrics"][n]["value"] for n in names} for r in runs)
    assert first == second
    assert first["solver.dp_states"] > 0


def test_missing_binding_is_reported_absent(monkeypatch):
    sfast = run.import_sfast()
    monkeypatch.setitem(tracer.TRACED, "sfast.graphs", ("is_s_acyclic", "renamed_away"))
    original = sfast.graphs.is_s_acyclic
    t = tracer.Tracer()
    t.install()
    try:
        assert sfast.graphs.is_s_acyclic is not original
    finally:
        t.uninstall()
    assert t.absent == ["sfast.graphs.renamed_away"]
    assert sfast.graphs.is_s_acyclic is original
