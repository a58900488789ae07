"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bundled-ood", "--seed", "3",
         "--seconds", "0.1", "--jobs", "3", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    return result


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_printed(trace, section):
    metrics = _bench("--trace", trace)["metrics"]
    for entry in SPEC[section]:
        assert entry["name"] in metrics
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    assert len(metrics) == len(SPEC[section])


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """One real verify output of the first bundled-ood job, and its job."""
    tmp_path = tmp_path_factory.mktemp("job")
    cli = run.import_cli()
    workload = workloads.bundled_ood(ROOT, tmp_path, 0)
    job = workload.jobs[0]
    return run.run_job(cli, workload, job, 0, tmp_path / "cert.json"), job


def _doctored(first, job, doc) -> run.JobRun:
    return run.JobRun(job, first.seconds, first.code, None, json.dumps(doc).encode())


def test_soundness_gate_fires_on_a_doctored_certificate(first_run):
    first, job = first_run
    assert run.gate_violations([first], [first]) == []

    doc = json.loads(first.cert)
    meta = doc["certificates"][0]["metadata"]
    attack = float.fromhex(meta["attack_value"])
    meta["objective_bound"] = float.hex(attack - 0.5)
    doctored = _doctored(first, job, doc)

    violations = run.gate_violations([doctored], [])
    assert any("below attack floor" in v for v in violations)
    assert gates.check_output(doc, first.code, job.n_problems)
    # a repeat that differs from the first run is reported too
    assert run.gate_violations([first], [doctored]) == [
        f"{job.job_id}: repeat output differs from first run"
    ]


def test_finiteness_gate_reads_what_float_hex_writes_for_infinities(first_run):
    first, job = first_run
    doc = json.loads(first.cert)
    cert = doc["certificates"][0]
    cert["trace"][0]["train_value"] = float.hex(math.inf)
    cert["metadata"]["objective_bound"] = float.hex(math.inf)
    cert["bound"] = float.hex(math.nan)

    violations = run.gate_violations([_doctored(first, job, doc)], [])
    for field in ("trace[0].train_value", "metadata.objective_bound", "certificates[0].bound"):
        assert any("non-finite" in v and field in v for v in violations), field


def test_malformed_output_is_a_violation_not_a_crash(first_run):
    first, job = first_run
    doc = json.loads(first.cert)
    del doc["certificates"][0]["metadata"]
    violations = run.gate_violations([_doctored(first, job, doc)], [])
    assert any("malformed output" in v for v in violations)


def test_tail_rank_does_not_depend_on_the_number_of_passes(first_run):
    _, job = first_run
    other = workloads.Job("other", job.kind, job.family, job.model, job.spec, job.n_problems)
    one_pass = [run.JobRun(job, 1.0, 0, None, None), run.JobRun(other, 3.0, 0, None, None)]
    five_passes = one_pass * 5
    assert run.tail(one_pass) == run.tail(five_passes) == (2, 3.0)
