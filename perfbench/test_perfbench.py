"""Self-tests of the benchmark: names agree with BENCHMARK.json, and every
output check turns red on a corrupted input.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from corpus import CYCLES, SLOTS, generate_corpus  # noqa: E402
from mcfield.unified import LadderStatus  # noqa: E402
from workloads import (WORKLOADS, MaxwellDerive, OscillatorODE,  # noqa: E402
                       SingularCorpus, WaveField)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# names


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] \
        == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == layers.metric_specs()
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace_flag,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace_flag, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oscillator_ode",
         "--seed", "3", "--seconds", "1", "--trace", str(trace_flag)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("kind", sorted(reference.KINDS))
def test_reference_share_and_scale(kind):
    ref = reference.Reference(kind)
    assert len(ref.timed()) == 1
    times = ref.timed(after_s=0.2)
    assert sum(times) >= reference.SHARE * 0.2 > sum(times[:-1])
    assert ref.scale([0.5 * ref.nominal, 9.0, 2 * ref.nominal]) == 0.5


def test_each_workload_names_a_reference():
    assert {w.speed_reference for w in WORKLOADS.values()} <= set(reference.KINDS)


# --------------------------------------------------------------------------
# every check can fail


@pytest.fixture(scope="module")
def maxwell():
    wl = MaxwellDerive(ROOT, 1, HERE / "out")
    res = wl.run(0, spans.NULL)
    assert wl.check(0, res) == []
    return wl, res


def test_maxwell_golden_flipped_line(maxwell):
    wl, res = maxwell
    golden = wl.golden.replace("gen0[5]: -p[1,1] = 0", "gen0[5]: -p[1,2] = 0")
    assert golden != wl.golden
    assert checks.check_maxwell(res, wl.reference, golden)
    status = wl.golden.replace("status: STABILIZED", "status: EMPTY-INTERSECTION")
    assert checks.check_maxwell(res, wl.reference, status)


def test_maxwell_wrong_hessian_rank(maxwell):
    wl, res = maxwell
    ref = dataclasses.replace(wl.reference, hessian_rank=wl.reference.hessian_rank + 1)
    fails = checks.check_maxwell(res, ref, wl.golden)
    assert any("regularity" in f for f in fails)
    assert any("image constraints" in f for f in fails)
    assert any("structure" in f for f in fails)


def test_maxwell_wrong_chart(maxwell):
    wl, res = maxwell
    ref = dataclasses.replace(wl.reference, chart_dim=wl.reference.chart_dim + 1)
    assert any("structure" in f for f in checks.check_maxwell(res, ref, wl.golden))


def test_projection_sign_flip(maxwell):
    wl, res = maxwell
    bad = copy.copy(res)
    bad.projection = list(res.projection)
    e = bad.projection[0]
    bad.projection[0] = dataclasses.replace(e, rhs=-e.rhs)
    assert any("disagree" in f for f in checks.check_maxwell(bad, wl.reference, wl.golden))


@pytest.fixture(scope="module")
def corpus_op():
    wl = SingularCorpus(ROOT, checks.DEFAULT_SEED, HERE / "out")
    res = wl.run(5, spans.NULL)
    assert wl.check(5, res) == []
    return wl, res


def test_corpus_wrong_hessian_rank(corpus_op):
    wl, res = corpus_op
    model = wl.models[5]
    wrong = dataclasses.replace(model, hessian=model.hessian + np.eye(len(model.hessian),
                                                                      dtype=int))
    assert wrong.rank != model.rank
    fails = checks.check_corpus_model(res, wrong, None)
    assert any("regularity" in f for f in fails)
    assert any("image constraints" in f for f in fails)


def test_corpus_generation_cap(corpus_op):
    wl, res = corpus_op
    bad = copy.copy(res)
    bad.ladder = dataclasses.replace(res.ladder, status=LadderStatus.MAX_GENERATIONS)
    assert any("generation cap" in f for f in checks.check_corpus_model(bad, wl.models[5], None))


def test_corpus_frozen_ladder(corpus_op):
    wl, res = corpus_op
    frozen = wl.frozen[wl.models[5].name]
    assert checks.check_corpus_model(res, wl.models[5], frozen) == []
    assert checks.check_corpus_model(res, wl.models[5], frozen.replace("gen1", "gen2"))


def test_corpus_projection_sign_flip(corpus_op):
    wl, res = corpus_op
    bad = copy.copy(res)
    bad.projection = [dataclasses.replace(e, rhs=e.rhs + 1) for e in res.projection]
    assert checks.check_corpus_model(bad, wl.models[5], None)


def test_corpus_schedule_and_determinism():
    a, b = generate_corpus(7), generate_corpus(7)
    assert [m.text for m in a] == [m.text for m in b]
    assert [m.text for m in a] != [m.text for m in generate_corpus(8)]
    assert [(m.m, m.n, m.rank) for m in a] == [s[:3] for s in SLOTS] * CYCLES
    assert all(m.nullity > 0 for m in a)


@pytest.fixture(scope="module")
def wave():
    wl = WaveField(ROOT, 1, HERE / "out")
    wl.setup(spans.NULL)
    report = wl.run(0, spans.NULL)
    assert wl.check(0, report) == []
    return wl, report


def test_wave_perturbed_closed_form(wave):
    wl, report = wave
    gamma = wl.sim.parameters["gamma"]
    assert checks.check_wave(report, wl.problem, wl.sim, wl.csv, gamma=gamma * 1.01)


def test_wave_energy_must_decrease(wave):
    wl, report = wave
    flat = dataclasses.replace(report, series=dict(report.series))
    energy = np.array(report.series["energy"])
    energy[3] = energy[2]
    flat.series["energy"] = energy
    assert checks.check_wave(flat, wl.problem, wl.sim, wl.csv) == [
        "energy does not decrease strictly"]


def test_wave_truncated_csv(wave, tmp_path):
    wl, report = wave
    lines = Path(wl.csv).read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_wave(report, wl.problem, wl.sim, str(short))


def test_oscillator_perturbed_closed_form():
    wl = OscillatorODE(ROOT, 1, HERE / "out")
    wl.setup(spans.NULL)
    report = wl.run(0, spans.NULL)
    assert wl.check(0, report) == []
    omega = wl.sim.parameters["omega"]
    assert checks.check_oscillator(report, wl.problem, wl.sim, wl.csv, omega=omega * 1.001)
