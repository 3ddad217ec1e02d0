"""Fast checks of the benchmark harness at tiny sizes (N=8).

    python3 -m pytest -q perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def tiny(name):
    w = run.WORKLOADS[name]
    return replace(w, n=8, grid=2 if w.grid else 0)


def test_benchmark_file_matches_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert END_TO_END == run.END_TO_END_UNITS
    assert PER_LAYER == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_end_to_end_metric_printed_with_unit(name):
    result, record = run.run_workload(tiny(name), seed=1, seconds=0.05,
                                      trace=False, setup_runs=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2]
               for line in run.report_lines(result, record) if not line.startswith("#")}
    for metric, unit in {**END_TO_END, **run.EXTRA_UNITS}.items():
        assert printed[metric] == unit
    for key in ("seed", "n", "m", "box", "tol", "xi", "r_cut", "k_max",
                "real_layers", "k", "images"):
        assert key in record["inputs"]
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                "numba_imports"):
        assert key in record["environment"]


def test_perturbed_and_raising_evaluations_count_as_failures():
    inp = run.make_inputs(tiny("slab2p"), seed=2)
    params = inp.params()
    exact = inp.evaluate(params)
    checker = run.Checker(exact.copy())
    perturbed = exact.copy()
    perturbed[0] += 1e-9 * checker.scale
    kinds = itertools.cycle(["ok", "perturbed", "raise"])
    seen = []

    def evaluate():
        seen.append(next(kinds))
        if seen[-1] == "raise":
            raise FloatingPointError("injected failure")
        return exact if seen[-1] == "ok" else perturbed

    timed = run.timed_phase(evaluate, checker, 0.5, inp.m, run.Calibration("compute"))
    assert checker.attempted == len(seen) >= 3
    assert checker.failed == sum(k != "ok" for k in seen)
    assert timed["eval_n"] == seen.count("ok")


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    result, record = run.run_workload(tiny(name), seed=3, seconds=0.05, trace=True)
    assert result["correct"] and record["extra"]["layer_sum_ok"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
    spans = record["spans"]
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    roots = {"evaluation", "ewald_potential", "specfun.k0inc"}
    assert names == {*roots, "self", "core.params", *run.EWALD_LAYERS, "core.images"}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["name"] not in roots:
            parent = by_id[s["parent"]]
            assert parent["name"] == "evaluation" and parent["eval"] == s["eval"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wire1p",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
