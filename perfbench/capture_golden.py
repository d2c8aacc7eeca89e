"""Record the golden outputs every benchmark run is checked against.

    python3 perfbench/capture_golden.py

Runs each workload command (and the self-test's tiny ones) through the
working tree's CLI and writes ``golden.json``: the stdout of every command,
and every sweep cell's cache record, with ``elapsed_ms`` blanked.  The sweep
summary is captured on a half-filled cache, as the benchmark runs it.  Run it
only on a commit whose outputs are known good; the benchmark treats any
difference from these records as a failed cell.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import (
    ALL_WORKLOADS,
    GOLDEN_PATH,
    JOBS,
    cell_key,
    normalize,
    precached_cells,
    prefill_lines,
    record_cell,
    write_cache,
)
from run import check_working_tree, grqn_env


def cli(argv: list[str], cwd: str) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "grqn.cli", *argv],
        env=grqn_env(),
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def main() -> int:
    check_working_tree()
    golden: dict = {"stdout": {}, "records": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ALL_WORKLOADS.values():
            for argv in workload.commands:
                key = " ".join(argv)
                if not workload.sweep_cells:
                    golden["stdout"][key] = normalize(cli(list(argv), tmp))
                    continue
                full = Path(tmp, f"{workload.name}-full.jsonl")
                cli([*argv, "--jobs", str(JOBS), "--cache", str(full)], tmp)
                with open(full, encoding="utf-8") as handle:
                    for line in handle:
                        golden["records"][cell_key(record_cell(line))] = normalize(line.rstrip("\n"))
                half = Path(tmp, f"{workload.name}-half.jsonl")
                write_cache(half, prefill_lines(full, precached_cells(workload.sweep_cells, 0)))
                summary = cli([*argv, "--jobs", str(JOBS), "--cache", str(half)], tmp)
                golden["stdout"][key] = normalize(summary)
                print(f"{workload.name}: {len(workload.sweep_cells)} records", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
