"""In-process run of one workload, plain or with every grqn layer wrapped.

    python3 perfbench/tracer.py --workload NAME --seed N --mode plain|traced \
        [--full-cache PATH]

Each command runs through ``grqn.cli.main`` in this interpreter; the sweep
runs serially (``--jobs 1``), because spans recorded in pool workers would be
lost.  In traced mode the public functions of ``young``, ``steenrod``,
``schubert``, ``homology``, ``formulas`` and ``cli`` are replaced, where their
callers look them up, by wrappers that record spans (name, start, end,
parent) and counters.  Spans are kept in memory and written to
``.perfbench/trace-<workload>-<seed>.json`` at the end.  Calls made millions
of times (strip candidates and coefficients, top-level ``milnor_q``) are
aggregated per name instead of kept one by one.

The last line of stdout is a JSON object with the wall time, the cell counts
and, in traced mode, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from harness import (
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

LAYERS = ("young", "steenrod", "schubert", "homology", "formulas", "cli")

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters recorded around calls into grqn's layers.

    Self time of a call is its duration minus the time covered by the traced
    calls made inside it.
    """

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[list] = []  # [span index, time covered by children]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call is kept as a span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start - self.origin, end - self.origin, parent)
                self._account(name, end - start, frame[1])
            if count is not None:
                count(result)
            return result

        return wrapper

    def leaf(self, name: str, fn, count=None, reentrant: bool = True):
        """Wrap a hot function with no traced callees; calls are aggregated.

        With ``reentrant`` false only the outermost call is timed, so a
        recursive function is measured once per top-level call.
        """
        stack = self.stack
        active = [False]

        def wrapper(*args):
            if active[0]:
                return fn(*args)
            active[0] = not reentrant
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                dur = perf_counter() - start
                active[0] = False
                self.total[name] += dur
                self.self_time[name] += dur
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(result)
            return result

        return wrapper

    def _account(self, name: str, dur: float, covered: float) -> None:
        self.total[name] += dur
        self.self_time[name] += dur - covered
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def dump(self, path: Path, extra: dict) -> None:
        payload = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def instrument(tracer: Tracer) -> list[str]:
    """Install wrappers where each caller looks the function up.

    ``schubert`` binds the ``young`` functions by name, ``cli`` binds the
    matrix builders, ``qn_homology`` and the predictions by name, and
    ``homology`` fetches ``lenart_qn_matrix`` from ``grqn.schubert`` at call
    time.  Returns the names that could not be found.
    """
    from grqn import cli, homology, schubert, steenrod
    from grqn.homology import GradedMap

    c = tracer.counters

    def count_candidates(mus):
        c["candidates"] += len(mus)

    def count_nonzero(coeff):
        if coeff:
            c["coeff_nonzero"] += 1

    def count_matrix(gm):
        c["basis_n"] += sum(gm.spaces.values())
        c["nnz"] += sum(col.bit_count() for cols in gm.blocks.values() for col in cols)

    leaf, span = tracer.leaf, tracer.span
    plan = [
        ("young.partitions_in_grid", [schubert], span, {}),
        ("young.covers_at_distance", [schubert], leaf, {"count": count_candidates}),
        ("young.lenart_coefficient", [schubert], leaf, {"count": count_nonzero}),
        ("schubert.lenart_qn_matrix", [cli, schubert], span, {"count": count_matrix}),
        ("schubert.derivation_qn_matrix", [cli], span, {"count": count_matrix}),
        ("schubert.free_operator_matrix", [schubert], span, {}),
        ("steenrod.milnor_q", [steenrod], leaf, {"reentrant": False}),
        ("homology.qn_homology", [cli, homology], span, {}),
        ("homology.compose_is_zero", [GradedMap], span, {}),
        ("homology.restrict", [GradedMap], span, {}),
        ("homology.twisted_complex", [cli], span, {"count": count_matrix}),
        ("homology.ideal_subcomplex", [cli], span, {}),
        ("formulas.predicted_k", [cli], leaf, {}),
        ("formulas.predicted_cofiber_k", [cli], leaf, {}),
        ("formulas.predicted_delta_rank", [cli], leaf, {}),
        ("cli.main", [cli], span, {}),
        ("cli.verify_sweep", [cli], span, {}),
        ("cli.compute_cell", [cli], span, {}),
        ("cli.cofiber_report", [cli], span, {}),
        ("cli.load_cache", [cli], span, {}),
    ]
    missing = []
    for name, owners, kind, opts in plan:
        attr = name.split(".", 1)[1]
        found = [o for o in owners if hasattr(o, attr)]
        if not found:
            missing.append(name)
            continue
        wrapped = kind(name, getattr(found[0], attr), **opts)
        for owner in found:
            setattr(owner, attr, wrapped)
    return missing


def memo_entries() -> int:
    """Entries in the Steenrod module's memo tables (its module-level dicts)."""
    from grqn import steenrod

    return sum(
        len(v) for k, v in vars(steenrod).items() if not k.startswith("__") and isinstance(v, dict)
    )


def run_commands(
    workload: Workload, seed: int, golden: dict, full_cache: str | None, tracer: Tracer | None
):
    """Run the workload through ``grqn.cli.main`` in process.

    Returns the wall time spent in ``main``, the cell counts and the sweep's
    cache counters.
    """
    from grqn import cli

    prefill = []
    if workload.sweep_cells:
        prefill = prefill_lines(Path(full_cache), precached_cells(workload.sweep_cells, seed))
    attempted = failed = 0
    cache_bytes = 0
    wall = 0.0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        cache = Path(tmp, "cache.jsonl")
        for argv in command_order(workload, seed):
            extra = []
            if workload.sweep_cells:
                write_cache(cache, prefill)
                extra = ["--jobs", "1", "--cache", str(cache)]
            before = cache.stat().st_size if workload.sweep_cells else 0
            out = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main([*argv, *extra])
            except Exception:  # a crash counts as failed cells; the run goes on
                traceback.print_exc()
                rc = 1
            wall += perf_counter() - start
            if workload.sweep_cells:
                cache_bytes += cache.stat().st_size - before
            tried, bad, problems = check_command(argv, rc, out.getvalue(), golden, cache, prefill)
            attempted += tried
            failed += bad
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
    sweep_cells = len(workload.sweep_cells)
    computed = tracer.calls["cli.compute_cell"] if tracer and sweep_cells else 0
    counts = {
        "cache_bytes_written": cache_bytes,
        "cache_hit_ratio": (sweep_cells - computed) / sweep_cells if sweep_cells else 0.0,
    }
    return wall, attempted, failed, counts


def per_layer(tracer: Tracer, counts: dict) -> dict[str, float]:
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counters
    coeff_calls = n["young.lenart_coefficient"]
    return {
        "young.partitions_s": t["young.partitions_in_grid"],
        "young.covers_s": t["young.covers_at_distance"],
        "young.candidates": c["candidates"],
        "young.coeff_s": t["young.lenart_coefficient"],
        "young.coeff_yield": c["coeff_nonzero"] / coeff_calls if coeff_calls else 0.0,
        "schubert.lenart_s": t["schubert.lenart_qn_matrix"],
        "schubert.lenart_self_s": s["schubert.lenart_qn_matrix"],
        "schubert.lenart_calls": n["schubert.lenart_qn_matrix"],
        "schubert.derivation_s": t["schubert.derivation_qn_matrix"],
        "schubert.free_op_self_s": s["schubert.free_operator_matrix"],
        "schubert.basis_n": c["basis_n"],
        "schubert.nnz": c["nnz"],
        "steenrod.milnor_q_s": t["steenrod.milnor_q"],
        "steenrod.milnor_q_calls": n["steenrod.milnor_q"],
        "steenrod.memo_entries": memo_entries(),
        "homology.d2_s": t["homology.compose_is_zero"],
        "homology.rank_s": s["homology.qn_homology"],
        "homology.restrict_s": t["homology.restrict"],
        "homology.twisted_s": t["homology.twisted_complex"],
        "formulas.predict_s": sum(v for k, v in t.items() if k.startswith("formulas.")),
        "cli.self_s": sum(
            v for k, v in s.items() if k.startswith("cli.") and k != "cli.load_cache"
        ),
        "cli.load_cache_s": t["cli.load_cache"],
        "cli.cache_bytes_written": counts["cache_bytes_written"],
        "cli.cache_hit_ratio": counts["cache_hit_ratio"],
        "cli.cells": n["cli.compute_cell"] + n["cli.cofiber_report"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced"))
    parser.add_argument("--full-cache")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import grqn

    if not Path(grqn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported grqn is {grqn.__file__}, not under {SRC}", file=sys.stderr)
        return 2
    workload = ALL_WORKLOADS[args.workload]
    golden = load_golden()
    WORK.mkdir(exist_ok=True)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        missing = instrument(tracer)
        if missing:
            print(f"not traced (not found): {', '.join(missing)}", file=sys.stderr)
    wall, attempted, failed, counts = run_commands(
        workload, args.seed, golden, args.full_cache, tracer
    )
    result = {"wall_s": wall, "attempted": attempted, "failed": failed}
    if tracer is not None:
        layers = tracer.layer_self_times()
        layers["outside grqn"] = wall - sum(layers.values())
        print(f"traced wall: {wall:.3f} s; self time per layer:")
        for name, seconds in layers.items():
            print(f"  {name:<14} {seconds:9.3f} s  {100 * seconds / wall:5.1f}%")
        result["metrics"] = per_layer(tracer, counts)
        result["layer_self_s"] = layers
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
