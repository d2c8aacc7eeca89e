"""Workload definitions, seeded inputs and golden-record checks.

Shared by the end-to-end runner (``run.py``), the in-process traced runner
(``tracer.py``), the golden capture script and the self-test.  Nothing here
imports ``grqn``: the end-to-end runner must measure a fresh interpreter.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"

JOBS = 2

Cell = tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    """A closed loop of CLI commands run one after another by one client.

    ``commands`` are ``grqn`` argument lists.  A sweep workload has a single
    ``verify`` command over ``sweep_cells`` and runs on a pre-filled cache.
    """

    name: str
    commands: tuple[tuple[str, ...], ...]
    sweep_cells: tuple[Cell, ...] = ()


def cell_command(kind: str, cell: Cell) -> tuple[str, ...]:
    n, d, m = cell
    return (kind, "--n", str(n), "--d", str(d), "--m", str(m))


def sweep_command(n: str, d: str, c: str) -> tuple[str, ...]:
    return ("verify", "--n", n, "--d", d, "--c", c)


def _range(raw: str) -> range:
    lo, _, hi = raw.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def sweep_cells(argv: tuple[str, ...]) -> tuple[Cell, ...]:
    """The cells a ``verify`` command covers, in the order the CLI visits them."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return tuple(
        (n, d, d + c)
        for n in _range(opts["--n"])
        for d in _range(opts["--d"])
        for c in _range(opts["--c"])
    )


def _sweep(name: str, argv: tuple[str, ...]) -> Workload:
    return Workload(name, (argv,), sweep_cells(argv))


def _cells(name: str, kind: str, cells: list[Cell]) -> Workload:
    return Workload(name, tuple(cell_command(kind, c) for c in cells))


# Why these cells: see README.md.  Each pass lasts a few seconds, so a run
# holds many passes and their median rides out short bursts of host noise.
WORKLOADS = {
    w.name: w
    for w in (
        _sweep("sweep-resume", sweep_command("0..3", "1..6", "1..7")),
        _cells("cofiber", "cofiber", [(1, 7, 14), (2, 6, 13), (1, 6, 13)]),
    )
}

# Tiny workloads for the self-test; not listed in BENCHMARK.json.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        _cells("tiny-compute", "compute", [(1, 2, 4), (1, 2, 5)]),
        _sweep("tiny-sweep", sweep_command("1", "2", "2..3")),
        _cells("tiny-cofiber", "cofiber", [(1, 2, 4), (1, 2, 5)]),
    )
}
ALL_WORKLOADS = {**WORKLOADS, **TINY_WORKLOADS}


def command_order(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    """The seed fixes the order in which the workload's commands run."""
    order = list(workload.commands)
    random.Random(seed).shuffle(order)
    return order


def precached_cells(cells: tuple[Cell, ...], seed: int) -> frozenset[Cell]:
    """The seed-chosen half of a sweep's cells that starts in the cache.

    Cells pair with their conjugates (n, c, d + c), which have the same basis
    size, and the seed picks one cell of each pair.  That keeps the cost of the
    computed half nearly independent of the seed, so seeds vary the inputs
    without varying the amount of work.  Self-conjugate cells (d = c) are
    always cached; cells whose conjugate lies outside the range are always
    computed.
    """
    rng = random.Random(seed)
    present = set(cells)
    chosen = set()
    for cell in cells:
        n, d, m = cell
        partner = (n, m - d, m)
        if partner == cell:
            chosen.add(cell)
        elif cell < partner and partner in present:
            chosen.add(cell if rng.random() < 0.5 else partner)
    return frozenset(chosen)


_ELAPSED = re.compile(r'"elapsed_ms": -?\d+')


def normalize(text: str) -> str:
    """Blank the only field allowed to differ between runs."""
    return _ELAPSED.sub('"elapsed_ms": 0', text)


def cell_key(cell: Cell) -> str:
    return ",".join(map(str, cell))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def record_cell(line: str) -> Cell:
    raw = json.loads(line)
    return (raw["n"], raw["d"], raw["m"])


def prefill_lines(full_cache: Path, cached: frozenset[Cell]) -> list[str]:
    """Lines of a complete sweep cache that belong to the pre-cached half."""
    with open(full_cache, encoding="utf-8") as handle:
        return [line for line in handle if line.strip() and record_cell(line) in cached]


def write_cache(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def check_command(
    argv: tuple[str, ...],
    returncode: int | None,
    stdout: str,
    golden: dict,
    cache: Path | None = None,
    prefill: list[str] | None = None,
) -> tuple[int, int, list[str]]:
    """Check one command's outputs; returns (cells attempted, cells failed, problems).

    A cell fails on a nonzero exit, a crash, a timeout (``returncode`` None)
    or output that differs from its golden record apart from ``elapsed_ms``.
    """
    key = " ".join(argv)
    problems = []
    if returncode != 0:
        problems.append(f"{key}: exit status {returncode}")
    elif normalize(stdout) != golden["stdout"].get(key):
        problems.append(f"{key}: stdout differs from golden")
    elif argv[0] == "compute":
        rec = json.loads(stdout)
        if rec["computed_total"] != rec["predicted"]:
            problems.append(f"{key}: computed_total != predicted")
    elif argv[0] == "cofiber":
        rep = json.loads(stdout)
        if not rep["twisted_match"]:
            problems.append(f"{key}: twisted_match is false")
        if rep["connecting_rank"] != rep["predicted_delta_rank"]:
            problems.append(f"{key}: connecting_rank != predicted_delta_rank")
        if rep["cofiber_total"] != rep["predicted_cofiber"]:
            problems.append(f"{key}: cofiber_total != predicted_cofiber")
    if argv[0] != "verify":
        return 1, int(bool(problems)), problems
    cells = sweep_cells(argv)
    if problems:
        return len(cells), len(cells), problems
    bad = _check_sweep_cache(cells, golden, cache, prefill or [])
    problems.extend(f"{key}: cell {cell_key(c)}: {why}" for c, why in bad.items())
    return len(cells), len(bad), problems


def _check_sweep_cache(
    cells: tuple[Cell, ...], golden: dict, cache: Path, prefill: list[str]
) -> dict[Cell, str]:
    """Every cell has exactly one record, equal to golden; prefill kept intact."""
    with open(cache, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    bad: dict[Cell, str] = {}
    if lines[: len(prefill)] != prefill:
        bad.update((record_cell(line), "pre-filled record changed") for line in prefill)
    seen: dict[Cell, int] = {}
    for line in lines:
        try:
            cell = record_cell(line)
        except (ValueError, KeyError, TypeError):
            return {c: "cache holds an unreadable line" for c in cells}
        seen[cell] = seen.get(cell, 0) + 1
        rec = json.loads(line)
        if normalize(line.rstrip("\n")) != golden["records"].get(cell_key(cell)):
            bad.setdefault(cell, "record differs from golden")
        elif rec["computed_total"] != rec["predicted"]:
            bad.setdefault(cell, "computed_total != predicted")
    for cell in cells:
        if seen.get(cell, 0) != 1:
            bad.setdefault(cell, f"{seen.get(cell, 0)} records")
    return {cell: bad[cell] for cell in cells if cell in bad}
