"""Command-line surface: single cells, tables, sweeps, cofiber reports.

``table`` and ``verify`` run their cells through one driver.  Cells are pure
computations, so it groups them into tasks, the cells of a grid small enough
for both routes as one task so that its context is built once, and runs the
tasks longest first, serially or in forked workers that send their records
back by ``marshal``; a cell over the size cutoff never becomes a task.  The
first task builds the derivation route once per n on the corner grid of the
cells on both routes: as Q_n is stable, each such cell's Lenart matrix, on
its own grid, must equal the corner's read at the cell's places.
``verify`` appends each finished record to a JSON-lines cache in that
dispatch order; ``table`` sorts its rows.  ``cofiber`` builds its twist in a
worker of the same fork map while it builds the ideal.  Outputs use a fixed
field order to stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import select
import stat
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from functools import partial
from io import BufferedIOBase
from itertools import chain, groupby
from math import comb
from operator import itemgetter
from types import SimpleNamespace

from .cofiber import check_codimension, cofiber_homology, twisted_complex
from .formulas import InvalidCell, check_cell, predicted_cofiber_k, predicted_delta_rank, predicted_k
from .homology import GradedMap, HomologyProfile, qn_homology
from .schubert import Grid, derivation_qn_matrix, embedded_places, lenart_qn_matrix

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
SUMMARY = {STATUS_PROVEN: "proven", STATUS_CONJECTURE: "conjecture_match", STATUS_MISMATCH: "mismatch"}


class UsageError(ValueError):
    """An argument, setting, cell size or cache line the commands cannot act on."""


class LowerBoundViolation(RuntimeError):
    """A computed total fell below the proven lower bound; this is a bug."""


class InvariantViolation(RuntimeError):
    """A computed profile breaks parity or, for even m, duality; this is a bug."""


class TableFailed(RuntimeError):
    """A table cell raised or the table is not symmetric; this is a bug."""


class WorkerDied(RuntimeError):
    """A sweep worker ended before it sent back its task's outcomes."""


class ResultRecord(
    namedtuple(
        "ResultRecord", "n d m computed_total per_degree predicted status method elapsed_ms"
    )
):
    """One verified cell; ``_fields`` are its fields in record order."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict())

    @classmethod
    def from_dict(cls, raw: dict) -> "ResultRecord":
        """The record in ``raw``, ignoring extra keys; a missing key is a KeyError."""
        rec = cls(*(raw[name] for name in cls._fields))
        rec = rec._replace(per_degree=tuple((t, v) for t, v in rec.per_degree))
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


def default_method(d: int, m: int) -> str:
    """Run both constructions while cheap, the strip formula alone beyond."""
    return METHOD_BOTH if comb(m, d) <= BOTH_METHOD_LIMIT else METHOD_LENART


def _check_size(d: int, m: int) -> None:
    size, cap = comb(m, d), cell_limit()
    if size > cap:
        raise UsageError(f"basis size {size} exceeds limit {cap}")


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


def compute_cell(
    n: int, d: int, m: int, basis: str = "auto", keep: Callable[[GradedMap], object] | None = None
) -> ResultRecord:
    """Build the cell's differential, take homology, check it, compare with prediction.

    On both routes the Lenart matrix must equal the derivation route's on
    the cell's grid, unless ``keep`` takes it, once built, to compare it.
    """
    check_cell(n, d, m)
    _check_size(d, m)
    method = {
        "auto": default_method(d, m),
        "lenart": METHOD_LENART,
        "derivation": METHOD_DERIVATION,
        "both": METHOD_BOTH,
    }[basis]
    grid = Grid(d, m - d)
    start = time.perf_counter()
    build = derivation_qn_matrix if method == METHOD_DERIVATION else lenart_qn_matrix
    matrix = build(n, grid)
    if keep:
        keep(matrix)
    elif method == METHOD_BOTH and derivation_qn_matrix(n, grid) != matrix:
        raise RuntimeError(f"matrix constructions disagree at n={n} grid={grid}")
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
    per_degree = tuple(sorted(profile.per_degree.items()))
    return ResultRecord(n, d, m, computed, per_degree, predicted, status, method, elapsed_ms)


def table_rows(n: int, dmax: int, cmax: int) -> list[dict]:
    """The (d, c) grid of computed totals, with oversize cells predicted only.

    The cells run serially through the sweep's driver.  A cell that raises,
    or a total that differs from its transpose's, is a ``TableFailed``.
    """
    cells = _cells(range(n, n + 1), range(1, dmax + 1), range(1, cmax + 1))
    rows = []
    totals: dict[tuple[int, int], int] = {}
    for (_, d, m), (tag, payload) in _sweep(cells, cell_limit()):
        if tag == "ok":
            row = (payload.computed_total, payload.status, payload.method)
            totals[d, m] = payload.computed_total
        elif tag == "too_large":
            row = (predicted_k(n, d, m), STATUS_PREDICTED_ONLY, "none")
        else:
            raise TableFailed(payload)
        rows.append(dict(zip(CSV_HEADER.split(","), (d, m - d, *row))))
    for (d, m), v in totals.items():
        w = totals.get((m - d, m))
        if w is not None and w != v:
            raise TableFailed(f"table symmetry violated at ({d},{m - d}): {v} vs {w}")
    return sorted(rows, key=itemgetter("d", "c"))


def table_csv(rows: list[dict]) -> str:
    """The CSV of ``table_rows``, in its (d, c) order; a row's fields are in header order."""
    lines = [CSV_HEADER, *(",".join(map(str, row.values())) for row in rows)]
    return "\n".join(lines) + "\n"


def cofiber_report(n: int, d: int, m: int) -> dict:
    """Reduced cofiber homology, connecting rank, predictions, bit-for-bit twist check.

    The twist shares nothing with the ideal's complex.  With two usable CPUs
    a forked worker builds it while this process builds the ideal, whose
    failed checks are raised first either way.
    """
    check_cell(n, d, m, least_d=1)
    _check_size(d, m)
    check_codimension(Grid(d, m - d))
    with _fork_map([(_twist, [(n, d, m)])], 1 if _usable_cpus() >= 2 else 0, "twist") as results:
        sub_profile, delta, sub = cofiber_homology(n, d, m)
        [(tag, payload)] = next(results)
    if tag == "failed":
        raise RuntimeError(payload)
    return {
        "n": n,
        "d": d,
        "m": m,
        "cofiber_total": sub_profile.total,
        "per_degree": [[t, v] for t, v in sorted(sub_profile.per_degree.items())],
        "predicted_cofiber": predicted_cofiber_k(n, d, m),
        "connecting_rank": delta,
        "predicted_delta_rank": predicted_delta_rank(n, d, m),
        "twisted_match": GradedMap(*payload) == sub,
    }


def _twist(cell: tuple[int, int, int]) -> tuple[str, tuple | str]:
    """The ``GradedMap`` arguments of the cell's twist in the ideal's degrees, or what it raised."""
    n, d, m = cell
    try:
        gm = twisted_complex(n, d, m).shifted(m - d)
    except Exception as exc:  # raised in the parent, as a worker cannot
        return "failed", str(exc)
    return "ok", tuple(gm)


def load_cache(handle: BufferedIOBase) -> dict[tuple[int, int, int, str], ResultRecord]:
    """Records by key, from the start of a binary file.

    An unreadable last line with no line break is a write that was cut off
    and is skipped; any other unreadable line raises ``UsageError``.  The
    file is left at the end of its last readable record, before that
    record's line break: where a writer resuming the cache cuts it off.
    """
    records: dict[tuple[int, int, int, str], ResultRecord] = {}
    handle.seek(0)
    start = end = 0
    for lineno, raw in enumerate(handle.read().splitlines(keepends=True), start=1):
        if raw.strip():
            try:
                rec = ResultRecord.from_dict(json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                if not raw.endswith((b"\n", b"\r")):  # only the last line can end so
                    break
                raise UsageError(f"cache line {lineno} is unreadable: {exc}") from exc
            records[(rec.n, rec.d, rec.m, rec.method)] = rec
            end = start + len(raw.rstrip())
        start += len(raw)
    handle.seek(end)
    return records


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A cell's sweep outcome: "ok" with its record, "too_large" with None, or
# "lower_bound" or "failed" with a message naming the cell.
Outcome = tuple[str, ResultRecord | str | None]


def _sweep_cell(cell: tuple[int, int, int], owed: set[tuple[int, int, int]]) -> tuple:
    """The cell's outcome, its record as a plain tuple so that a worker can send it, then a matrix.

    That is the Lenart matrix of a cell in ``owed``, as ``GradedMap``
    arguments, once built, even if a later check raised; else None.
    """
    n, d, m = cell
    kept: list[GradedMap] = []
    try:
        outcome = "ok", tuple(compute_cell(n, d, m, keep=kept.append if cell in owed else None))
    except Exception as exc:  # one failing cell must not end the sweep
        tag = "lower_bound" if isinstance(exc, LowerBoundViolation) else "failed"
        outcome = tag, f"cell n={n} d={d} m={m}: {exc}"
    return (*outcome, tuple(kept[0]) if kept else None)


@contextmanager
def _fork_map(tasks: list[tuple[Callable, list]], jobs: int, role: str) -> Iterator[Iterator[list]]:
    """``map(fn, items)`` for each task ``(fn, items)``, in at most ``jobs`` workers forked on entry.

    With ``jobs`` 0, or where the platform cannot fork, the map runs in
    process, lazily: each result is computed as the caller takes it.  A
    worker reads task indices from its task pipe and sends each task's
    results down its result pipe by ``marshal``, as one bytes object of
    their encodings that the parent reads in one call and decodes one by one
    as the caller takes them; so ``fn`` returns ints, strings and None in
    tuples, lists and dicts.  Tasks go out in order, each to whichever
    worker is free, and the map yields an iterator over each task's results
    once it and every task before it are back; the caller works meanwhile.
    A worker that dies, even partway through its results, raises
    ``WorkerDied``, naming ``role`` and the first cell of its task.  On exit
    every worker still holding a task is killed, and every worker is reaped.
    """
    if jobs < 1 or not hasattr(os, "fork"):
        yield (map(*task) for task in tasks)
        return
    pending = iter(range(len(tasks)))
    workers: dict[int, SimpleNamespace] = {}  # by the parent's end of the result pipe
    done: dict[int, list] = {}
    poller = select.poll()

    def hand_out(worker: SimpleNamespace) -> None:
        worker.task = next(pending, None)
        if worker.task is not None:
            try:
                os.write(worker.inbox, b"%d\n" % worker.task)
            except BrokenPipeError:  # the worker died; its result pipe ends next
                pass
        else:  # at end of file the worker exits
            os.close(worker.inbox)
            worker.inbox = None

    def reap(worker: SimpleNamespace) -> int:
        worker.reader.close()
        if worker.inbox is not None:
            os.close(worker.inbox)
            # SIGKILL, a no-op on a worker that already died; the signal module costs 1 ms a launch
            os.kill(worker.pid, 9)
        return os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])

    def results() -> Iterator[list]:
        for index in range(len(tasks)):
            while index not in done:
                for fd, _ in poller.poll():
                    worker = workers[fd]
                    try:
                        done[worker.task] = marshal.loads(marshal.load(worker.reader))
                    except EOFError:  # the worker died
                        n, d, m = tasks[worker.task][1][0]
                        status = reap(workers.pop(fd))
                        raise WorkerDied(
                            f"{role} worker died with exit status {status} on cell n={n} d={d} m={m}"
                        ) from None
                    hand_out(worker)
                    if worker.task is None:
                        poller.unregister(fd)
            yield map(marshal.loads, done.pop(index))

    try:
        for _ in range(min(jobs, len(tasks))):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            pid = os.fork()
            if pid == 0:
                try:  # the worker keeps only its own two pipe ends
                    for fd in (task_w, result_r, *workers, *(w.inbox for w in workers.values())):
                        os.close(fd)
                    # open until exit: the parent sees end of file after any traceback
                    out = open(result_w, "wb")
                    while line := os.read(task_r, 32):  # empty at end of file
                        marshal.dump(marshal.dumps([*map(marshal.dumps, map(*tasks[int(line)]))]), out)
                        out.flush()
                    os._exit(0)
                except BrokenPipeError:  # the parent is gone
                    pass
                except Exception:
                    sys.excepthook(*sys.exc_info())
                finally:  # reached only on an exception
                    os._exit(1)
            os.close(task_r)
            os.close(result_w)
            worker = SimpleNamespace(pid=pid, inbox=task_w, reader=open(result_r, "rb"))
            workers[result_r] = worker
            poller.register(result_r, select.POLLIN)
            hand_out(worker)
        yield results()
    finally:
        for worker in workers.values():
            reap(worker)


def _corner_task(cells: list[tuple[int, int, int]]) -> tuple[list[tuple[int, int, int]], Callable]:
    """The corner task's items and function, for ``cells`` on both routes in dispatch order.

    The corner, with the largest d and the largest c of ``cells``, holds
    each cell's grid.  The items are the cells whose n has its corner cell
    among ``cells``.  Each gives its derivation matrix as ``GradedMap``
    arguments, the corner's for its n at the cell's places
    (``embedded_places``) or, if that raised, its own grid's, and the
    cell's failure if its Lenart matrix differs; or None and what raised.
    The first call builds the corner's matrices and the places, for this sweep only.
    """
    corner = Grid(max((d for _, d, _ in cells), default=0), max((m - d for _, d, m in cells), default=0))
    ns = sorted({n for n, d, m in cells if (d, m - d) == corner})
    items = [cell for cell in cells if cell[0] in ns]
    built, places = {}, {}

    def derive(cell: tuple[int, int, int]) -> tuple[tuple | None, str]:
        n, d, m = cell
        grid = Grid(d, m - d)
        if not built:
            places.update(embedded_places(corner, {(e, k - e) for _, e, k in items}))
            for k in ns:
                try:
                    built[k] = derivation_qn_matrix(k, corner)
                except Exception:  # each of its cells builds its own instead
                    built[k] = None
        try:
            gm = built[n].restrict(places[d, m - d]) if built[n] else derivation_qn_matrix(n, grid)
        except Exception as exc:  # the cell's failure, once it has a matrix
            return None, f"cell n={n} d={d} m={m}: {exc}"
        return tuple(gm), f"cell n={n} d={d} m={m}: matrix constructions disagree at n={n} grid={grid}"

    return items, derive


def _cells(n_range: range, d_range: range, c_range: range) -> list[tuple[int, int, int]]:
    """Every cell ``(n, d, m)`` in range, in (d, c, n) order, once the ranges are checked."""
    for name, values in (("n", n_range), ("d", d_range), ("c", c_range)):
        if not values:
            raise UsageError(f"empty {name} range {values.start}..{values.stop - 1}")
    # every cell is valid when the lowest one is
    check_cell(n_range[0], d_range[0], d_range[0] + c_range[0])
    return [(n, d, d + c) for d in d_range for c in c_range for n in n_range]


def _sweep(
    cells: list[tuple[int, int, int]], cap: int, jobs: int = 1
) -> Iterator[tuple[tuple[int, int, int], Outcome]]:
    """Each of ``cells``, given in (d, c, n) order, with its outcome.

    A cell whose basis size comb(m, d) exceeds ``cap`` runs nowhere: it is
    yielded as ``"too_large"`` before any cell runs.  Of the other grids,
    one small enough for both routes is one task, its cells in n order,
    so its context is built once; a larger grid, on the Lenart route alone,
    is one task per cell, so its cells run in parallel, by ``_sweep_cell``.
    The corner task (``_corner_task``), with its own function, goes first
    and derives its cells; each counts once its Lenart matrix equals the
    corner task's, bit for bit.  Outcomes come in task order, each once its
    task is done, from ``_fork_map`` in ``jobs`` workers if more than one.
    """
    tasks: list[list[tuple[int, int, int]]] = []
    for (d, m), grid in groupby(cells, key=itemgetter(1, 2)):
        grid = list(grid)
        if comb(m, d) > cap:
            yield from ((cell, ("too_large", None)) for cell in grid)
        elif default_method(d, m) == METHOD_BOTH:
            tasks.append(grid)
        else:
            tasks.extend([cell] for cell in grid)
    # Longest task first (Graham's LPT rule), by cell count times basis size
    # comb(m, d); the sort is stable, so ties stay in (d, c, n) order.
    tasks.sort(key=lambda task: -len(task) * comb(task[0][2], task[0][1]))
    order = list(chain.from_iterable(tasks))
    items, derive = _corner_task([cell for cell in order if default_method(*cell[1:]) == METHOD_BOTH])
    owed = set(items)
    tasks = [(partial(_sweep_cell, owed=owed), task) for task in tasks]
    tasks = [(derive, items), *tasks] if items else tasks
    jobs = jobs if jobs > 1 and len(tasks) > 1 else 0
    with _fork_map(tasks, jobs, "sweep") as results:
        derived = iter(next(results) if items else ())
        expected, why = next(derived, (None, None))  # so that serially the corner runs first
        for cell, (tag, payload, lenart) in zip(order, chain.from_iterable(results)):
            if cell in owed:
                if lenart is not None and lenart != expected:  # or the corner task raised
                    tag, payload = "failed", why
                expected, why = next(derived, (None, None))
            yield cell, (tag, ResultRecord._make(payload) if tag == "ok" else payload)


def verify_sweep(
    n_range: range,
    d_range: range,
    c_range: range,
    jobs: int = 1,
    cache_path: str = "grqn_cache.jsonl",
) -> dict:
    """Evaluate every cell in range, skipping cache hits; append new records.

    The cells still to compute go through ``_sweep`` with at most one forked
    worker per CPU the process may run on, and each record is written and
    flushed as the driver hands it over.  So an interrupted sweep keeps the
    cells finished before the interruption, except those held behind a task
    still running; a worker that dies is such an interruption, and raises
    ``WorkerDied``.  A cell that raises counts as a mismatch, or as a
    lower-bound violation, and is reported on stderr; it gets no record, so
    the next sweep retries it.  A cache that cannot be opened or read, or is
    not a regular file, is a ``UsageError``, raised before any cell runs.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    cells = _cells(n_range, d_range, c_range)
    cap = cell_limit()
    summary = dict.fromkeys([*SUMMARY.values(), "skipped", "lower_bound_violations"], 0)
    with ExitStack() as stack:
        try:
            handle = stack.enter_context(open(cache_path, "a+b"))
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # a device or FIFO reads without end
                raise UsageError(f"cannot use cache {cache_path}: not a regular file")
            cache = load_cache(handle)
            handle.truncate()  # after the last readable record: drops a write cut off
        except OSError as exc:
            raise UsageError(f"cannot use cache {cache_path}: {exc.strerror}") from exc
        if handle.tell():
            handle.write(b"\n")  # ends that record's line
        todo = []
        for n, d, m in cells:
            rec = cache.get((n, d, m, default_method(d, m)))
            if rec is None:
                todo.append((n, d, m))
            else:
                summary[SUMMARY[rec.status]] += 1
                summary["skipped"] += 1
        for _, (tag, payload) in _sweep(todo, cap, min(jobs, _usable_cpus())):
            if tag == "ok":
                summary[SUMMARY[payload.status]] += 1
                handle.write(payload.to_json().encode() + b"\n")
                handle.flush()
            elif tag == "too_large":
                summary["skipped"] += 1
            else:  # "lower_bound" or "failed", with a message naming the cell
                summary["lower_bound_violations" if tag == "lower_bound" else "mismatch"] += 1
                print(f"grqn: {payload}", file=sys.stderr)
    return summary


def _parse_range(raw: str) -> range:
    lo, dots, hi = raw.partition("..")
    try:
        return range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A or A..B, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grqn",
        description="Exact degree-shifted homology of real Grassmannians over F_2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one_cell = argparse.ArgumentParser(add_help=False)
    for flag in ("--n", "--d", "--m"):
        one_cell.add_argument(flag, type=int, required=True)

    p_compute = sub.add_parser("compute", help="compute one cell", parents=[one_cell])
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

    sub.add_parser("cofiber", help="report on one inclusion cofiber", parents=[one_cell])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (UsageError, InvalidCell) as exc:
        print(f"grqn: error: {exc}", file=sys.stderr)
        return 2
    except (TableFailed, WorkerDied) as exc:
        print(f"grqn: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        if args.command not in ("compute", "cofiber"):
            raise
        # a bug check failed on the command's one cell, as in a failing table cell
        print(f"grqn: cell n={args.n} d={args.d} m={args.m}: {exc}", file=sys.stderr)
        return 1


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
    # argparse requires a command, so this one is "cofiber"
    report = cofiber_report(args.n, args.d, args.m)
    out.write(json.dumps(report) + "\n")
    ok = (
        report["twisted_match"]
        and report["cofiber_total"] == report["predicted_cofiber"]
        and report["connecting_rank"] == report["predicted_delta_rank"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
