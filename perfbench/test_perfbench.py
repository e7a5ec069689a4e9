"""Tests of the benchmark itself, in short runs.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()
import workloads  # noqa: E402  (needs the program on the path)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {"corridor": workloads.Corridor, "chain": workloads.Chain,
             "population": workloads.Population}
TINY = {"corridor": 1, "chain": 60, "population": 4}


def bench(workload, trace, cwd=ROOT, seconds=4.0):
    """One run at the workload's own size, as a separate process."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_with_its_unit(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc.stdout)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc.stdout)
    assert res["correct"], proc.stdout
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    shares = sum(v["value"] for k, v in res["metrics"].items() if k.startswith("split."))
    assert shares == pytest.approx(1.0)


PLANTS = {
    "corridor": lambda mp: mp.setattr(workloads.Corridor, "expected", (True, False)),
    "chain": lambda mp: mp.setattr(workloads.Chain, "expected", (True, False)),
    "population": lambda mp: mp.setattr(
        workloads.Population, "bundled_verdicts",
        {name: (False, False) for name in workloads.BUNDLED_VERDICTS}),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_planted_wrong_answer_is_a_failure(workload, monkeypatch):
    monkeypatch.setattr(WORKLOADS[workload], "size", TINY[workload])
    PLANTS[workload](monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
    res = result_of(out.getvalue())
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


def test_broken_evidence_is_found(monkeypatch):
    monkeypatch.setattr(workloads.Corridor, "size", 1)
    wl = workloads.Corridor()
    sys_ = wl.make_input(5, 0)
    weak, strong = wl.run(sys_)
    assert wl.check(sys_, (weak, strong)) == []
    cycle = [workloads.state_json(f) for f in weak.evidence.cycle]
    prefix = [workloads.state_json(f) for f in weak.evidence.prefix]
    assert workloads.evidence_problems(sys_, prefix, cycle[:-1]) != []
    assert workloads.evidence_problems(sys_, prefix, cycle[1:]) != []


def test_population_draws_from_the_acceptance_population():
    wl = workloads.Population("unused")
    kinds = [wl.model_text(11, i)[0] for i in range(len(workloads._PERIOD))]
    assert kinds.count("random") == 13 and kinds.count("rules") == 2
    drawn = {wl.generated(11, i) for i in range(wl.size)}
    assert drawn == set(range(workloads.ACCEPTANCE_SYSTEMS))
    assert wl.model_text(11, 5) == wl.model_text(11, 5)


@pytest.mark.xfail(strict=True, reason="known program defect: the weak verdicts of the "
                   "two routes differ when an adaptation may go on forever")
def test_routes_agree_on_weak_outside_the_acceptance_population():
    k = workloads.KNOWN_WEAK_DISAGREEMENT
    sys_ = workloads.cli.gen_random(k, *workloads.acceptance_schedule(k))
    in_relation = (sys_.b.initial, sys_.s.initial) in workloads.adapt.weak_relation(sys_)
    assert workloads.adapt.check_weak(sys_).holds == in_relation


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) == (None, None)
    assert run.tail([float(i) for i in range(20)])[0] == 50
    assert run.tail([float(i) for i in range(100)])[0] == 90
    assert run.tail([float(i) for i in range(99)])[0] == 50
    assert run.tail([float(i) for i in range(100)])[0] == 90
    assert run.tail([float(i) for i in range(5000)])[0] == 90


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("corridor", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
