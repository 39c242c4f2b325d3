"""Smoke test of the ledger: ``pytest benchmarks/ledger -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): it runs the whole
benchmark three times in ``--smoke`` mode and one workload once more, about 45 s in all.
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalog import END_TO_END, PER_LAYER, ROOT, is_exact  # noqa: E402

SIMULATIONS = ("matmul-cluster", "cholesky-mgpu", "stream-evict")
SEEDED = ("fuzz-functional", "svc-mixed")


def smoke_run(tag: str, seed: int) -> dict:
    out = os.path.join(HERE, "out", f"test-{tag}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                    "--seed", str(seed), "--out", out],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return {"a": smoke_run("a", 11), "b": smoke_run("b", 11),
            "other-seed": smoke_run("other-seed", 12)}


def exact_metrics(doc: dict, workload: str) -> dict:
    layer = doc["workloads"][workload]["per_layer"]
    return {k: v["value"] for k, v in layer.items() if is_exact(k, workload)}


def test_schema_and_every_named_metric_has_a_unit(runs):
    doc = runs["a"]
    assert doc["schema"] == "repro.ledger/v1"
    assert set(doc["host"]) == {"nproc", "python", "calibration_iters_per_s",
                                "loadavg_at_start"}
    assert set(doc["workloads"]) == set(SIMULATIONS + SEEDED)
    for name, result in doc["workloads"].items():
        assert set(result["end_to_end"]) == set(END_TO_END), name
        assert set(result["per_layer"]) == set(PER_LAYER), name
        for section, catalogue in (("end_to_end", END_TO_END),
                                   ("per_layer", PER_LAYER)):
            for key, entry in result[section].items():
                assert entry["unit"] == catalogue[key]["unit"], (name, key)
                assert isinstance(entry["value"], (int, float)), (name, key)
        assert all(e["value"] > 0 for e in result["end_to_end"].values())


def test_no_op_fails(runs):
    for doc in runs.values():
        for name, result in doc["workloads"].items():
            assert result["attempted"] >= 1, name
            assert result["fail_ratio"] == 0, (name, result["failures"])


def test_two_runs_repeat_the_simulated_clock_and_the_counts(runs):
    for name in SIMULATIONS + SEEDED:
        assert exact_metrics(runs["a"], name) == \
            exact_metrics(runs["b"], name), name
    assert runs["a"]["sim_identical"] is True


def test_seed_moves_the_fuzz_window_and_the_job_order_only(runs):
    for name in SIMULATIONS:
        assert exact_metrics(runs["a"], name) == \
            exact_metrics(runs["other-seed"], name), name
    for name in SEEDED:
        assert exact_metrics(runs["a"], name) != \
            exact_metrics(runs["other-seed"], name), name


def test_wall_s_is_the_median_of_the_reps_also_of_two():
    out = os.path.join(HERE, "out", "test-two-reps.json")
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                    "--workload", "cholesky-mgpu", "--reps", "2",
                    "--out", out],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        e2e = json.load(fh)["end_to_end"]
    walls = e2e["wall_s"]["samples"]
    assert len(walls) == 2
    assert e2e["wall_s"]["value"] == statistics.median(walls)
    assert min(walls) <= e2e["wall_s"]["value"] <= max(walls)
