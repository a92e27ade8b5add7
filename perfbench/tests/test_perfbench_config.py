"""BENCHMARK.json names what the benchmark reports, and the benchmark refuses
to run without the program's sources."""

import json
import math
import os
import shutil
import subprocess
import sys

import run
from tracing import LAYER_METRICS
from workloads import WORKLOADS, density_s_values

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def test_benchmark_json_lists_every_workload_and_metric():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_configs_depend_on_the_seed_only():
    for w in WORKLOADS.values():
        assert w.config(7) == w.config(7)
        assert w.config(7)["seed"] == 7
    assert density_s_values(7) != density_s_values(8)


def test_density_window_work_is_the_same_for_every_seed():
    per_mode = set()
    for seed in range(2000):
        s = density_s_values(seed)
        # sqrt(s) stays at least 0.1 away from every jump of floor(2 sqrt(s))
        for m, value in zip((2, 3, 4, 5), s):
            assert m + 0.1 - 1e-6 <= value**0.5 <= m + 0.18 + 1e-6
        # eigenvalues per mode asked for by spectral_density._eigen_for_window
        per_mode.add(math.ceil(2.5 * math.sqrt(max(s))) + 8)
    assert per_mode == {21}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "glue-torus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
