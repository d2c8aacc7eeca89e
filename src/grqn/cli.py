"""Command-line surface: single cells, tables, sweeps, cofiber reports.

Cells are pure computations, so the sweep runs them in a process pool, the
cells of a grid small enough for both routes as one task so that its context
is built once, longest task first.  A single writer appends finished records
to a JSON-lines cache in that dispatch order.  Outputs use a fixed field
order to stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from itertools import chain
from math import comb

from .cofiber import GridTooSmall, cofiber_homology, twisted_complex
from .formulas import InvalidCell, check_cell, predicted_cofiber_k, predicted_delta_rank, predicted_k
from .homology import HomologyProfile, qn_homology
from .schubert import Grid, derivation_qn_matrix, lenart_qn_matrix

CELL_LIMIT_ENV = "GRQN_CELL_LIMIT"
DEFAULT_CELL_LIMIT = 5_000_000
BOTH_METHOD_LIMIT = 10_000

STATUS_PROVEN = "Proven"
STATUS_CONJECTURE = "ConjectureMatch"
STATUS_MISMATCH = "Mismatch"
STATUS_PREDICTED_ONLY = "predicted-only"

METHOD_LENART = "Lenart"
METHOD_DERIVATION = "Derivation"
METHOD_BOTH = "Both"

CSV_HEADER = "d,c,value,status,method"


class UsageError(ValueError):
    """A command-line argument or setting the commands cannot act on."""


class CellTooLarge(RuntimeError):
    """The cell's basis exceeds the configured size cutoff."""


class CacheCorrupt(RuntimeError):
    """The result cache holds a line that does not parse."""


class LowerBoundViolation(RuntimeError):
    """A computed total fell below the proven lower bound; this is a bug."""


class InvariantViolation(RuntimeError):
    """A computed profile breaks parity or, for even m, duality; this is a bug."""


@dataclass
class ResultRecord:
    """One verified cell."""

    n: int
    d: int
    m: int
    computed_total: int
    per_degree: tuple[tuple[int, int], ...]
    predicted: int
    status: str
    method: str
    elapsed_ms: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "ResultRecord":
        """The record in ``raw``, ignoring extra keys; a missing key is a KeyError."""
        rec = cls(**{f.name: raw[f.name] for f in fields(cls)})
        rec.per_degree = tuple((t, v) for t, v in rec.per_degree)
        if rec.status not in (STATUS_PROVEN, STATUS_CONJECTURE, STATUS_MISMATCH):
            raise ValueError(f"unknown status {rec.status!r}")
        return rec


def cell_limit() -> int:
    raw = os.environ.get(CELL_LIMIT_ENV)
    if not raw:
        return DEFAULT_CELL_LIMIT
    try:
        limit = int(raw)
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise UsageError(f"{CELL_LIMIT_ENV} must be a nonnegative integer, got {raw!r}")


def default_method(n: int, d: int, m: int) -> str:
    """Run both constructions while cheap, the strip formula alone beyond."""
    return METHOD_BOTH if comb(m, d) <= BOTH_METHOD_LIMIT else METHOD_LENART


def _build_matrix(n: int, grid: Grid, method: str):
    if method == METHOD_LENART:
        return lenart_qn_matrix(n, grid)
    if method == METHOD_DERIVATION:
        return derivation_qn_matrix(n, grid)
    if method == METHOD_BOTH:
        a = lenart_qn_matrix(n, grid)
        b = derivation_qn_matrix(n, grid)
        if a != b:
            raise RuntimeError(f"matrix constructions disagree at n={n} grid={grid}")
        return a
    raise ValueError(f"unknown method {method!r}")


def _check_size(d: int, m: int, limit: int | None) -> None:
    size = comb(m, d)
    cap = cell_limit() if limit is None else limit
    if size > cap:
        raise CellTooLarge(f"basis size {size} exceeds limit {cap}")


def _check_invariants(n: int, d: int, m: int, profile: HomologyProfile) -> None:
    """Parity and, for even m, Poincare duality of a cell's homology.

    The basis size minus the total is twice the sum of the ranks.  For even
    m the primitive class p_(2^(n+1)-1) of the tangent bundle is m times
    that of the tautological bundle, so zero, and Q_n is self-adjoint under
    the Poincare pairing: H^t = H^(dc - t).
    """
    if (comb(m, d) - profile.total) % 2:
        raise InvariantViolation(f"odd defect {comb(m, d)} - {profile.total} at n={n} d={d} m={m}")
    if m % 2 == 0:
        top = d * (m - d)
        for t, h in profile.per_degree.items():
            if profile.dim(top - t) != h:
                raise InvariantViolation(
                    f"H^{t} = {h} but H^{top - t} = {profile.dim(top - t)} at n={n} d={d} m={m}"
                )


def compute_cell(n: int, d: int, m: int, basis: str = "auto", limit: int | None = None) -> ResultRecord:
    """Build the cell's differential, take homology, check it, compare with prediction."""
    check_cell(n, d, m)
    _check_size(d, m, limit)
    method = {
        "auto": default_method(n, d, m),
        "lenart": METHOD_LENART,
        "derivation": METHOD_DERIVATION,
        "both": METHOD_BOTH,
    }[basis]
    start = time.perf_counter()
    matrix = _build_matrix(n, Grid(d, m - d), method)
    profile = qn_homology(matrix)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    predicted = predicted_k(n, d, m)
    computed = profile.total
    if computed < predicted:
        raise LowerBoundViolation(
            f"computed {computed} < lower bound {predicted} at n={n} d={d} m={m}"
        )
    _check_invariants(n, d, m, profile)
    if computed != predicted:
        status = STATUS_MISMATCH
    elif m <= 2 ** (n + 1) or d <= 2:
        status = STATUS_PROVEN
    else:
        status = STATUS_CONJECTURE
    return ResultRecord(
        n=n,
        d=d,
        m=m,
        computed_total=computed,
        per_degree=tuple(sorted(profile.per_degree.items())),
        predicted=predicted,
        status=status,
        method=method,
        elapsed_ms=elapsed_ms,
    )


def _require_nonempty(name: str, values: range) -> range:
    if not values:
        raise UsageError(f"empty {name} range {values.start}..{values.stop - 1}")
    return values


def table_rows(n: int, dmax: int, cmax: int, limit: int | None = None) -> list[dict]:
    """The (d, c) grid of computed totals, with oversize cells predicted only."""
    d_range = _require_nonempty("d", range(1, dmax + 1))
    c_range = _require_nonempty("c", range(1, cmax + 1))
    rows = []
    values: dict[tuple[int, int], int] = {}
    for d in d_range:
        for c in c_range:
            try:
                rec = compute_cell(n, d, d + c, limit=limit)
                row = {
                    "d": d,
                    "c": c,
                    "value": rec.computed_total,
                    "status": rec.status,
                    "method": rec.method,
                }
                values[(d, c)] = rec.computed_total
            except CellTooLarge:
                row = {
                    "d": d,
                    "c": c,
                    "value": predicted_k(n, d, d + c),
                    "status": STATUS_PREDICTED_ONLY,
                    "method": "none",
                }
            rows.append(row)
    for (d, c), v in values.items():
        w = values.get((c, d))
        if w is not None and w != v:
            raise RuntimeError(f"table symmetry violated at ({d},{c}): {v} vs {w}")
    return rows


def table_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in sorted(rows, key=lambda r: (r["d"], r["c"])):
        lines.append(f"{row['d']},{row['c']},{row['value']},{row['status']},{row['method']}")
    return "\n".join(lines) + "\n"


def cofiber_report(n: int, d: int, m: int, limit: int | None = None) -> dict:
    """Reduced cofiber homology, connecting rank, predictions, twist check."""
    check_cell(n, d, m, least_d=1)
    _check_size(d, m, limit)
    sub_profile, delta = cofiber_homology(n, d, m)
    twisted = qn_homology(twisted_complex(n, d, m))
    return {
        "n": n,
        "d": d,
        "m": m,
        "cofiber_total": sub_profile.total,
        "per_degree": [[t, v] for t, v in sorted(sub_profile.per_degree.items())],
        "predicted_cofiber": predicted_cofiber_k(n, d, m),
        "connecting_rank": delta,
        "predicted_delta_rank": predicted_delta_rank(n, d, m),
        "twisted_match": twisted.shifted(m - d) == sub_profile,
    }


_UNREADABLE = (ValueError, KeyError, TypeError)


def load_cache(path: str) -> dict[tuple[int, int, int, str], ResultRecord]:
    """Records by key; an unreadable last line with no line break is skipped.

    Such a line is a write that was cut off; any other unreadable line
    raises ``CacheCorrupt``.
    """
    records: dict[tuple[int, int, int, str], ResultRecord] = {}
    if not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = ResultRecord.from_dict(json.loads(line))
            except _UNREADABLE as exc:
                if not raw.endswith("\n"):
                    break
                raise CacheCorrupt(f"cache line {lineno} is unreadable: {exc}") from exc
            records[(rec.n, rec.d, rec.m, rec.method)] = rec
    return records


def _end_on_line_break(path: str) -> None:
    """Make the next appended record start on a line of its own.

    A last line with no line break is cut off if it does not parse, as
    ``load_cache`` skipped it, and closed with a line break if it does.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb+") as handle:
        data = handle.read()
        if not data or data.endswith(b"\n"):
            return
        start = data.rfind(b"\n") + 1
        try:
            ResultRecord.from_dict(json.loads(data[start:]))
        except _UNREADABLE:
            handle.truncate(start)
        else:
            handle.write(b"\n")


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_cell(args: tuple[int, int, int, int]) -> tuple[str, ResultRecord | str | None]:
    n, d, m, cap = args
    try:
        return "ok", compute_cell(n, d, m, limit=cap)
    except CellTooLarge:
        return "too_large", None
    except LowerBoundViolation as exc:
        return "lower_bound", str(exc)
    except Exception as exc:  # one failing cell must not end the sweep
        return "failed", f"cell n={n} d={d} m={m}: {exc}"


def _sweep_task(
    cells: list[tuple[int, int, int, int]],
) -> list[tuple[str, ResultRecord | str | None]]:
    """One task's cells in n order, so a grid's context is built once for all."""
    return [_sweep_cell(cell) for cell in cells]


def verify_sweep(
    n_range: range,
    d_range: range,
    c_range: range,
    jobs: int = 1,
    cache_path: str = "grqn_cache.jsonl",
    limit: int | None = None,
) -> dict:
    """Evaluate every cell in range, skipping cache hits; append new records.

    The cells still to compute go out as tasks to at most one worker per CPU
    the process may run on.  A grid small enough for both routes is one task,
    its cells in n order, so its context is built once; a larger grid, on
    the Lenart route alone, is one task per cell, so its cells run in
    parallel.  Tasks go longest first, by cell count times basis size, ties
    in (d, c, n) order, and their records are written and flushed in that
    order: run serially, each as soon as its cell is done; in the pool, as
    soon as its task and every task before it are done.  So an interrupted
    sweep keeps the cells finished before the interruption, except those
    held behind a task still running.  A cell that raises counts as a
    mismatch and is reported on stderr; it gets no record, so the next sweep
    retries it.  A cache that cannot be opened or read is a ``UsageError``,
    raised before any cell runs.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    for name, values in (("n", n_range), ("d", d_range), ("c", c_range)):
        _require_nonempty(name, values)
    # every cell is valid when the lowest one is
    check_cell(n_range[0], d_range[0], d_range[0] + c_range[0])
    workers = min(jobs, _usable_cpus())
    cap = cell_limit() if limit is None else limit
    try:
        cache = load_cache(cache_path)
        _end_on_line_break(cache_path)
        handle = open(cache_path, "a", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot use cache {cache_path}: {exc.strerror}") from exc
    counts = {STATUS_PROVEN: 0, STATUS_CONJECTURE: 0, STATUS_MISMATCH: 0, "Skipped": 0}
    violations = 0
    # A task is a list of cells.  A grid small enough for both routes is one
    # task, its cells in n order, so the context the Wu route needs is built
    # once; a grid on the Lenart route alone, which uses little of it, goes
    # cell by cell, so its cells run in parallel.
    tasks: list[list[tuple[int, int, int, int]]] = []
    for d in d_range:
        for c in c_range:
            m = d + c
            cells = []
            for n in n_range:
                key = (n, d, m, default_method(n, d, m))
                if key in cache:
                    counts[cache[key].status] += 1
                    counts["Skipped"] += 1
                else:
                    cells.append((n, d, m, cap))
            if default_method(0, d, m) != METHOD_BOTH:
                tasks.extend([cell] for cell in cells)
            elif cells:
                tasks.append(cells)
    # Longest task first (Graham's LPT rule), by cell count times basis size
    # comb(m, d); the sort is stable, so ties stay in (d, c, n) order.
    tasks.sort(key=lambda cells: -len(cells) * comb(cells[0][2], cells[0][1]))

    with handle, ExitStack() as stack:
        if workers > 1 and len(tasks) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = chain.from_iterable(pool.map(_sweep_task, tasks))
        else:
            results = map(_sweep_cell, chain.from_iterable(tasks))
        for tag, payload in results:
            if tag == "too_large":
                counts["Skipped"] += 1
            elif tag == "lower_bound":
                violations += 1
            elif tag == "failed":
                counts[STATUS_MISMATCH] += 1
                print(f"grqn: {payload}", file=sys.stderr)
            else:
                rec = payload
                counts[rec.status] += 1
                handle.write(rec.to_json() + "\n")
                handle.flush()
    return {
        "proven": counts[STATUS_PROVEN],
        "conjecture_match": counts[STATUS_CONJECTURE],
        "mismatch": counts[STATUS_MISMATCH],
        "skipped": counts["Skipped"],
        "lower_bound_violations": violations,
    }


def _parse_range(raw: str) -> range:
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(raw)
    return range(v, v + 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grqn",
        description="Exact degree-shifted homology of real Grassmannians over F_2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one cell")
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.add_argument("--d", type=int, required=True)
    p_compute.add_argument("--m", type=int, required=True)
    p_compute.add_argument(
        "--basis", choices=["lenart", "derivation", "both", "auto"], default="auto"
    )
    p_compute.add_argument("--format", choices=["json", "csv"], default="json")

    p_table = sub.add_parser("table", help="compute a d x c table for fixed n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--dmax", type=int, required=True)
    p_table.add_argument("--cmax", type=int, required=True)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")

    p_verify = sub.add_parser("verify", help="sweep a range of cells against predictions")
    p_verify.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p_verify.add_argument("--d", type=_parse_range, required=True, metavar="A..B")
    p_verify.add_argument("--c", type=_parse_range, required=True, metavar="A..B")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--cache", default="grqn_cache.jsonl")

    p_cofiber = sub.add_parser("cofiber", help="report on one inclusion cofiber")
    p_cofiber.add_argument("--n", type=int, required=True)
    p_cofiber.add_argument("--d", type=int, required=True)
    p_cofiber.add_argument("--m", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (UsageError, InvalidCell, GridTooSmall, CellTooLarge, CacheCorrupt) as exc:
        print(f"grqn: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    out = sys.stdout
    if args.command == "compute":
        rec = compute_cell(args.n, args.d, args.m, basis=args.basis)
        if args.format == "json":
            out.write(rec.to_json() + "\n")
        else:
            out.write("n,d,m,value,predicted,status,method\n")
            out.write(
                f"{rec.n},{rec.d},{rec.m},{rec.computed_total},"
                f"{rec.predicted},{rec.status},{rec.method}\n"
            )
        return 0
    if args.command == "table":
        rows = table_rows(args.n, args.dmax, args.cmax)
        if args.format == "csv":
            out.write(table_csv(rows))
        else:
            out.write(json.dumps(rows) + "\n")
        return 0
    if args.command == "verify":
        summary = verify_sweep(args.n, args.d, args.c, jobs=args.jobs, cache_path=args.cache)
        out.write(json.dumps(summary) + "\n")
        if not any(v for key, v in summary.items() if key != "skipped"):
            # every cell in range is over the size limit and none was cached
            print("grqn: nothing verified: every cell is over the size limit", file=sys.stderr)
            return 1
        ok = summary["mismatch"] == 0 and summary["lower_bound_violations"] == 0
        return 0 if ok else 1
    if args.command == "cofiber":
        report = cofiber_report(args.n, args.d, args.m)
        out.write(json.dumps(report) + "\n")
        ok = (
            report["twisted_match"]
            and report["cofiber_total"] == report["predicted_cofiber"]
            and report["connecting_rank"] == report["predicted_delta_rank"]
        )
        return 0 if ok else 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
