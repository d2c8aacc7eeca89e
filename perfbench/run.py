"""Benchmark entry point: time grqn's CLI end to end, or run the traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` every command of the workload runs in a fresh
``python -m grqn.cli`` process against the working tree's ``src/``, and the
end-to-end metrics of BENCHMARK.json are reported.  Their times are scaled
to a reference host speed, which ``calibrate.py`` measures between the
commands.  With ``--trace 1`` the workload runs in process, once plain and
once with every layer wrapped (see ``tracer.py``), and the per-layer metrics
are reported.  Every output is checked against ``golden.json``.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
from harness import (
    BENCHMARK_PATH,
    HERE,
    JOBS,
    ROOT,
    SRC,
    WORK,
    ALL_WORKLOADS,
    Workload,
    check_command,
    command_order,
    load_golden,
    precached_cells,
    prefill_lines,
    write_cache,
)

# The whole run must end within 180 s; commands still running at this
# deadline are killed and their cells count as failed.
DEADLINE_S = 165.0
# Interpreter launches timed before each pass; spreading them over the run
# keeps one burst of host noise from moving the median.
SETUP_SAMPLES_PER_PASS = 5
# Seconds of calibration after each command, per second the command took, so
# that the calibration samples spread evenly over the run's time.
CALIBRATION_SHARE = 0.25


class NotWorkingTree(RuntimeError):
    """The grqn that imports is not the one in this checkout's src/."""


def grqn_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def check_working_tree() -> str:
    """Refuse to measure any grqn but the one under this checkout's src/."""
    out = subprocess.run(
        [sys.executable, "-c", "import grqn; print(grqn.__file__)"],
        env=grqn_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    path = out.stdout.strip()
    if out.returncode != 0 or not path:
        raise NotWorkingTree(f"grqn does not import from {SRC}: {out.stderr.strip()[-300:]}")
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise NotWorkingTree(f"imported grqn is {path}, not under {SRC}")
    return path


def environment(seed: int, jobs: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(l.split(":", 1)[1].strip() for l in handle if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        commit = ""
    env = {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "jobs": jobs,
    }
    if nproc < JOBS:
        env["note"] = f"nproc {nproc} < {JOBS}: the sweep runs with --jobs {jobs}"
    return env


def full_sweep_cache(workload: Workload, jobs: int) -> Path:
    """Every cell of the sweep computed once by this checkout's CLI, untimed.

    Kept under the work directory, keyed by the sweep command and a digest of
    the sources, so only the first run in a checkout pays for it; each pass
    then copies the seed's half from it.
    """
    argv = workload.commands[0]
    digest = hashlib.sha256(" ".join(argv).encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    path = WORK / f"{workload.name}-{digest.hexdigest()[:16]}.jsonl"
    if path.exists():
        return path
    WORK.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    subprocess.run(
        [sys.executable, "-m", "grqn.cli", *argv, "--jobs", str(jobs), "--cache", str(tmp)],
        env=grqn_env(),
        cwd=WORK,
        stdout=subprocess.DEVNULL,
        timeout=600,
        check=True,
    )
    os.replace(tmp, path)
    return path


def measure_setup(samples: int) -> list[float]:
    """Times from a fresh interpreter's launch to ``import grqn`` done."""
    code = "import time, grqn; print(time.monotonic())"
    times = []
    for _ in range(samples):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=grqn_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout) - start)
    return times


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left (pool workers included)."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_cli(argv: list[str], cwd: Path, stdout_path: Path, timeout: float):
    """Run one CLI command through ``launch.py`` in its own process group.

    Returns (exit code, or None on timeout; wall s; CPU s; max-RSS kB).  The
    figures are the command's own, pool workers included.  If the launcher
    wrote none (the command was killed), the launcher's are returned.
    """
    report = stdout_path.with_suffix(".usage")
    report.unlink(missing_ok=True)
    start = time.monotonic()
    with open(stdout_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [
                sys.executable, "-I", "-S", str(HERE / "launch.py"), str(report),
                sys.executable, "-m", "grqn.cli", *argv,
            ],
            env=grqn_env(),
            cwd=cwd,
            stdout=out,
            start_new_session=True,
        )
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        _kill_group(proc.pid)

    timer = threading.Timer(max(timeout, 0.0), expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: take the command's process group down too
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        end = time.monotonic()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    _wait_group_gone(proc.pid)
    rc = None if expired.is_set() else proc.returncode
    try:
        wall, cpu, peak_kb = report.read_text(encoding="utf-8").split()
        return rc, float(wall), float(cpu), int(peak_kb)
    except (OSError, ValueError):
        return rc, end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run_pass(workload, seed, jobs, golden, prefill, deadline, tmp: Path, calibration: list):
    """One pass over the workload's commands; returns metrics and cell counts.

    ``wall_s`` and ``cpu_s`` add up the commands' times.  After each command
    the host's speed is sampled for a share of the command's wall time, and
    the samples are appended to ``calibration``.
    """
    wall = cpu = 0.0
    peak_kb = 0
    attempted = failed = 0
    cache = tmp / "cache.jsonl"
    stdout_path = tmp / "stdout.txt"
    if workload.sweep_cells:
        write_cache(cache, prefill)
    for argv in command_order(workload, seed):
        extra = ["--jobs", str(jobs), "--cache", str(cache)] if workload.sweep_cells else []
        rc, took, used, peak = run_cli([*argv, *extra], tmp, stdout_path, deadline - time.monotonic())
        wall += took
        cpu += used
        peak_kb = max(peak_kb, peak)
        stdout = stdout_path.read_text(encoding="utf-8")
        tried, bad, problems = check_command(argv, rc, stdout, golden, cache, prefill)
        attempted += tried
        failed += bad
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)
        calibration += calibrate.measure(CALIBRATION_SHARE * took)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024}, attempted, failed


def end_to_end(workload: Workload, seed: int, seconds: int, jobs: int, golden: dict) -> dict:
    prefill = []
    if workload.sweep_cells:
        full = full_sweep_cache(workload, jobs)
        prefill = prefill_lines(full, precached_cells(workload.sweep_cells, seed))
    setup = []
    passes = []
    calibration = []
    attempted = failed = 0
    start = time.monotonic()
    deadline = start + DEADLINE_S
    last = 0.0
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        # Whole passes only: start another while it should end within --seconds.
        while not passes or time.monotonic() - start + last <= seconds:
            begin = time.monotonic()
            setup += measure_setup(SETUP_SAMPLES_PER_PASS)
            metrics, tried, bad = run_pass(
                workload, seed, jobs, golden, prefill, deadline, Path(tmp), calibration
            )
            last = time.monotonic() - begin
            passes.append(metrics)
            attempted += tried
            failed += bad
    # The host's speed drifts within seconds as well as over minutes, so a
    # median over passes follows the share of slow time in the run.  Means
    # over the run's commands and over its calibration samples, which are
    # spread over the same time, follow it alike; their ratio follows grqn.
    scale = calibrate.REFERENCE_S / statistics.fmean(calibration)
    result = {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes) * scale,
        "cpu_s": statistics.fmean(p["cpu_s"] for p in passes) * scale,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup) * scale,
    }
    print("pass wall_s (as measured): " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print(
        f"host speed: {len(calibration)} calibration samples, mean "
        f"{statistics.fmean(calibration) * 1000:.2f} ms against the reference "
        f"{calibrate.REFERENCE_S * 1000:.2f} ms; times below are scaled by {scale:.4f}"
    )
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} cells)")
    return {"attempted": attempted, "failed": failed, "metrics": result}


def traced(workload: Workload, seed: int, jobs: int) -> dict:
    """The in-process run, once plain and once traced, each in a fresh interpreter."""
    deadline = time.monotonic() + DEADLINE_S
    argv = [sys.executable, str(HERE / "tracer.py"), "--workload", workload.name, "--seed", str(seed)]
    if workload.sweep_cells:
        argv += ["--full-cache", str(full_sweep_cache(workload, jobs))]
    runs = {}
    for mode in ("plain", "traced"):
        out = subprocess.run(
            [*argv, "--mode", mode],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise RuntimeError(f"{mode} in-process run exited with {out.returncode}")
        *report, last = out.stdout.splitlines()
        for line in report:
            print(line)
        runs[mode] = json.loads(last)
    metrics = dict(runs["traced"]["metrics"])
    metrics["trace.overhead_s"] = runs["traced"]["wall_s"] - runs["plain"]["wall_s"]
    return {
        "attempted": runs["plain"]["attempted"] + runs["traced"]["attempted"],
        "failed": runs["plain"]["failed"] + runs["traced"]["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # On SIGTERM, unwind so that running commands are killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        grqn_file = check_working_tree()
        golden = load_golden()
        spec = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    except (NotWorkingTree, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2

    jobs = min(JOBS, len(os.sched_getaffinity(0)))
    env = environment(args.seed, jobs)
    env["grqn"] = grqn_file
    print("environment: " + json.dumps(env))
    workload = ALL_WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed, jobs)
        declared = spec["per_layer"]
    else:
        result = end_to_end(workload, args.seed, args.seconds, jobs, golden)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]
        print(f"{m['name']}: {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
