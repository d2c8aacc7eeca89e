"""Self-test of the benchmark harness on tiny cells.

    python3 -m pytest perfbench -q

Uses the cells (1,2,4) and (1,2,5), so it takes seconds, not minutes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import resource

import pytest

import calibrate
import run
from harness import (
    BENCHMARK_PATH,
    HERE,
    TINY_WORKLOADS,
    WORKLOADS,
    load_golden,
    precached_cells,
)

SPEC = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))


def bench(*args: str, cwd=HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize(("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
def test_printed_names_match_benchmark_json(workload, trace, section):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    result = result_line(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = dict(line.split(": ", 1) for line in out.stdout.splitlines() if ": " in line)
    for name, unit in declared.items():
        assert printed[name].endswith(f" {unit}")


def test_corrupted_golden_record_counts_as_failed():
    golden = load_golden()
    jobs = min(run.JOBS, len(os.sched_getaffinity(0)))
    bad_record = copy.deepcopy(golden)
    key = "1,2,5"  # its conjugate (1,3,5) is out of range, so it is always computed
    record = json.loads(bad_record["records"][key])
    record["computed_total"] += 2
    bad_record["records"][key] = json.dumps(record)
    result = run.end_to_end(TINY_WORKLOADS["tiny-sweep"], 3, 0, jobs, bad_record)
    assert (result["attempted"], result["failed"]) == (2, 1)

    bad_stdout = copy.deepcopy(golden)
    argv = " ".join(TINY_WORKLOADS["tiny-cofiber"].commands[1])
    bad_stdout["stdout"][argv] = bad_stdout["stdout"][argv].replace("true", "false")
    result = run.end_to_end(TINY_WORKLOADS["tiny-cofiber"], 3, 0, jobs, bad_stdout)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_command_rss_is_its_own(tmp_path):
    # Forked straight from this large test process, the command would report
    # this process's max-RSS as its own.
    harness_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    argv = list(TINY_WORKLOADS["tiny-compute"].commands[0])
    rc, wall, cpu, peak_kb = run.run_cli(argv, tmp_path, tmp_path / "out.txt", 60)
    assert rc == 0 and wall > 0 and cpu > 0
    assert 0 < peak_kb < harness_kb


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    samples = calibrate.measure(0.0, least=3)
    assert len(samples) == 3 and all(t > 0 for t in samples)


def test_same_seed_same_precached_half():
    cells = WORKLOADS["sweep-resume"].sweep_cells
    first = precached_cells(cells, 11)
    assert first == precached_cells(cells, 11)
    assert len(first) * 2 == len(cells)
    assert first != precached_cells(cells, 12)


def test_refuses_without_working_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    out = bench("--workload", "cofiber", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
