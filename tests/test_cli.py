"""Record shapes, CSV/JSON determinism, cache behavior, and exit codes."""

import contextlib
import json
import marshal
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grqn
from grqn import cli, formulas, homology, schubert, steenrod
from grqn.cli import (
    InvariantViolation,
    LowerBoundViolation,
    ResultRecord,
    TableFailed,
    UsageError,
    cofiber_report,
    compute_cell,
    default_method,
    load_cache,
    main,
    table_csv,
    table_rows,
    verify_sweep,
    _parse_range,
)
from grqn.cofiber import _ideal_cut, cofiber_homology, twisted_complex
from grqn.formulas import InvalidCell
from grqn.homology import GradedMap, HomologyProfile, NotADifferential, qn_homology
from grqn.schubert import Grid, derivation_qn_matrix, lenart_qn_matrix, schubert_basis
from oracles import word

GOLDEN_2X2 = (
    "d,c,value,status,method\n"
    "1,1,2,Proven,Both\n"
    "1,2,3,Proven,Both\n"
    "2,1,3,Proven,Both\n"
    "2,2,6,Proven,Both\n"
)


def test_compute_cell_proven_case():
    rec = compute_cell(1, 2, 4, basis="both")
    assert rec.computed_total == 6
    assert rec.predicted == 6
    assert rec.status == "Proven"
    assert rec.method == "Both"


def test_compute_cell_conjecture_case():
    rec = compute_cell(1, 3, 6, basis="both")
    assert rec.computed_total == 8
    assert rec.status == "ConjectureMatch"


def test_compute_cell_projective_row():
    values = [compute_cell(1, 1, m).computed_total for m in range(2, 8)]
    assert values == [2, 3, 4, 3, 4, 3]
    values = [compute_cell(0, 1, m).computed_total for m in range(2, 8)]
    assert values == [2, 1, 2, 1, 2, 1]


def test_compute_cell_validates_input():
    with pytest.raises(InvalidCell):
        compute_cell(1, 5, 3)


def test_compute_cell_respects_limit(monkeypatch):
    monkeypatch.setenv("GRQN_CELL_LIMIT", "5")
    with pytest.raises(UsageError, match="basis size 10 exceeds limit 5"):
        compute_cell(1, 2, 5)


def plant_profile(monkeypatch, per_degree):
    """Make every cell's homology come out as ``per_degree``."""
    profile = HomologyProfile(per_degree, sum(per_degree.values()))
    monkeypatch.setattr(cli, "qn_homology", lambda gm: profile)


@pytest.mark.parametrize(
    "m, planted, message",
    [
        (3, {0: 1, 2: 1}, "odd defect 3 - 2"),  # RP^2 has H = {0: 1}
        (4, {0: 1, 1: 1}, "H^0 = 1 but H^3 = 0"),  # RP^3 has H = {0: 1, 3: 1}
    ],
    ids=["parity", "duality"],
)
def test_compute_cell_rejects_a_broken_profile(monkeypatch, tmp_path, capsys, m, planted, message):
    assert compute_cell(0, 1, m).computed_total in (1, 2)  # the real profile passes
    plant_profile(monkeypatch, planted)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        compute_cell(0, 1, m)
    # in a sweep the cell counts as a mismatch and gets no record
    cache = tmp_path / "c.jsonl"
    summary = verify_sweep(range(0, 1), range(1, 2), range(m - 1, m), cache_path=str(cache))
    assert summary["mismatch"] == 1
    assert message in capsys.readouterr().err
    assert cache.read_text() == ""


def test_a_total_above_its_prediction_is_a_mismatch(monkeypatch, tmp_path, capsys):
    real = cli.predicted_k
    monkeypatch.setattr(cli, "predicted_k", lambda n, d, m: real(n, d, m) - ((n, d, m) == (1, 2, 5)))
    rec = compute_cell(1, 2, 5)
    assert rec.status == "Mismatch"
    assert rec.predicted == rec.computed_total - 1
    cache = tmp_path / "c.jsonl"
    summary = verify_sweep(range(1, 2), range(2, 3), range(2, 4), cache_path=str(cache))
    assert (summary["proven"], summary["mismatch"]) == (1, 1)
    assert [(r["m"], r["status"]) for r in map(json.loads, read_lines(cache))] == [
        (5, "Mismatch"),
        (4, "Proven"),
    ]
    argv = ["verify", "--n", "1", "--d", "2", "--c", "2..3", "--cache"]
    assert main([*argv, str(tmp_path / "fresh.jsonl")]) == 1
    assert json.loads(capsys.readouterr().out)["mismatch"] == 1
    # resumed, the cached record counts as a mismatch again
    monkeypatch.setattr(cli, "predicted_k", real)
    assert main([*argv, str(cache)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert (summary["skipped"], summary["proven"], summary["mismatch"]) == (2, 1, 1)


def test_verify_jobs_fall_back_to_cpu_count_without_affinity(tmp_path, monkeypatch):
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    workers = RecordingForkMap(monkeypatch)
    verify_sweep(range(1, 2), range(1, 3), range(1, 3), jobs=64, cache_path=str(tmp_path / "c.jsonl"))
    assert workers.jobs == [3]  # one fork map, the corner task its first task


def test_cell_limit_env_override(monkeypatch):
    monkeypatch.setenv("GRQN_CELL_LIMIT", "5")
    with pytest.raises(UsageError, match="basis size 10 exceeds limit 5"):
        compute_cell(1, 2, 5)
    rows = table_rows(1, 2, 3)
    flagged = [r for r in rows if r["status"] == "predicted-only"]
    assert flagged and all(r["method"] == "none" for r in flagged)
    ok = {(r["d"], r["c"]): r["value"] for r in rows if r["status"] != "predicted-only"}
    assert ok[(1, 1)] == 2
    # predicted-only cells still carry the predicted value
    assert {(r["d"], r["c"]): r["value"] for r in flagged}[(2, 3)] == 4


def test_default_method_cutover():
    assert default_method(2, 4) == "Both"
    assert default_method(10, 30) == "Lenart"


def test_table_csv_golden_block():
    assert table_csv(table_rows(1, 2, 2)) == GOLDEN_2X2


# (d, c, value, status, method) rows of `table --n 1 --dmax 4 --cmax 4`
TABLE_4X4 = [
    (1, 1, 2, "Proven", "Both"),
    (1, 2, 3, "Proven", "Both"),
    (1, 3, 4, "Proven", "Both"),
    (1, 4, 3, "Proven", "Both"),
    (2, 1, 3, "Proven", "Both"),
    (2, 2, 6, "Proven", "Both"),
    (2, 3, 4, "Proven", "Both"),
    (2, 4, 7, "Proven", "Both"),
    (3, 1, 4, "Proven", "Both"),
    (3, 2, 4, "ConjectureMatch", "Both"),
    (3, 3, 8, "ConjectureMatch", "Both"),
    (3, 4, 7, "ConjectureMatch", "Both"),
    (4, 1, 3, "ConjectureMatch", "Both"),
    (4, 2, 7, "ConjectureMatch", "Both"),
    (4, 3, 7, "ConjectureMatch", "Both"),
    (4, 4, 14, "ConjectureMatch", "Both"),
]


@pytest.mark.parametrize("limit", [None, "20"])
def test_main_table_json_rows_in_d_c_order(monkeypatch, capsys, limit):
    # The cells run largest first; the rows still come out in (d, c) order.
    rows = TABLE_4X4
    if limit:  # the three cells with C(m, d) > 20 are predicted only
        monkeypatch.setenv("GRQN_CELL_LIMIT", limit)
        rows = [
            (d, c, v, "predicted-only", "none") if math.comb(d + c, d) > 20 else (d, c, v, s, m)
            for d, c, v, s, m in rows
        ]
        assert sum(row[3] == "predicted-only" for row in rows) == 3
    row_bytes = '{"d": %d, "c": %d, "value": %d, "status": "%s", "method": "%s"}'
    expected = "[" + ", ".join(row_bytes % row for row in rows) + "]\n"
    assert main(["table", "--n", "1", "--dmax", "4", "--cmax", "4", "--format", "json"]) == 0
    assert capsys.readouterr().out == expected


def test_table_builds_each_grid_context_once(monkeypatch):
    built = count_context_builds(monkeypatch)
    rows = table_rows(1, 4, 4)
    assert len(rows) == 16
    grids = [(d, c) for d in range(1, 5) for c in range(1, 5)]
    assert [(g.d, g.c) for g in built] == sorted(grids, key=lambda g: -math.comb(g[0] + g[1], g[0]))


@pytest.mark.parametrize(
    "error",
    [
        InvariantViolation("odd defect 5 - 2"),
        LowerBoundViolation("computed 2 < lower bound 4"),
        RuntimeError("matrix constructions disagree"),
    ],
    ids=["invariant", "lower bound", "routes disagree"],
)
def test_main_table_with_a_failing_cell_is_a_clean_error(monkeypatch, capsys, error):
    real = cli.compute_cell

    def fail_at_d2_m3(n, d, m, **kwargs):
        if (d, m) == (2, 3):
            raise error
        return real(n, d, m, **kwargs)

    monkeypatch.setattr(cli, "compute_cell", fail_at_d2_m3)
    code = main(["table", "--n", "1", "--dmax", "2", "--cmax", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"grqn: cell n=1 d=2 m=3: {error}\n"


def test_main_table_with_an_asymmetric_total_fails(monkeypatch, capsys):
    real = cli.compute_cell

    def plant_at_d1_m3(n, d, m, **kwargs):
        rec = real(n, d, m, **kwargs)
        if (d, m) != (1, 3):
            return rec
        raw = json.loads(rec.to_json())
        return ResultRecord.from_dict({**raw, "computed_total": rec.computed_total + 2})

    monkeypatch.setattr(cli, "compute_cell", plant_at_d1_m3)
    with pytest.raises(TableFailed, match="symmetry"):
        table_rows(1, 2, 2)
    code = main(["table", "--n", "1", "--dmax", "2", "--cmax", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err in {
        "grqn: table symmetry violated at (1,2): 5 vs 3\n",
        "grqn: table symmetry violated at (2,1): 3 vs 5\n",
    }


def test_a_total_below_the_lower_bound_is_a_violation(monkeypatch, tmp_path, capsys):
    real = cli.predicted_k
    monkeypatch.setattr(cli, "predicted_k", lambda n, d, m: real(n, d, m) + (m == 3))
    assert compute_cell(1, 1, 2).computed_total == 2
    with pytest.raises(LowerBoundViolation, match=re.escape("computed 3 < lower bound 4")):
        compute_cell(1, 1, 3)
    # in a sweep the cell counts as a violation and gets no record
    cache = tmp_path / "c.jsonl"
    summary = verify_sweep(range(1, 2), range(1, 2), range(1, 3), cache_path=str(cache))
    assert summary["lower_bound_violations"] == 1
    assert summary["proven"] == 1
    assert record_cells(cache) == [(1, 1, 2)]
    message = "grqn: cell n=1 d=1 m=3: computed 3 < lower bound 4 at n=1 d=1 m=3\n"
    assert capsys.readouterr().err == message
    argv = ["verify", "--n", "1", "--d", "1", "--c", "1..2", "--cache", str(tmp_path / "v.jsonl")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["lower_bound_violations"] == 1
    assert captured.err == message


def test_table_csv_deterministic():
    a = table_csv(table_rows(1, 3, 3))
    b = table_csv(table_rows(1, 3, 3))
    assert a == b
    assert "\r" not in a
    assert all(line == line.rstrip() for line in a.split("\n"))


def test_record_json_field_order_and_roundtrip():
    rec = compute_cell(1, 2, 5)
    raw = rec.to_json()
    parsed = json.loads(raw)
    assert list(parsed) == [
        "n",
        "d",
        "m",
        "computed_total",
        "per_degree",
        "predicted",
        "status",
        "method",
        "elapsed_ms",
    ]
    assert ResultRecord.from_dict(parsed) == rec
    assert ResultRecord.from_dict({**parsed, "extra": 1}) == rec
    assert ResultRecord.from_dict({**parsed, "computed_total": 5}) != rec
    del parsed["method"]
    with pytest.raises(KeyError):
        ResultRecord.from_dict(parsed)


def test_record_with_unknown_status_is_unreadable(tmp_path):
    raw = json.loads(compute_cell(1, 1, 2).to_json())
    raw["status"] = "Bogus"
    with pytest.raises(ValueError, match="Bogus"):
        ResultRecord.from_dict(raw)
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps(raw))  # a last line with no line break is a torn write
    assert load_cache_at(cache) == {}


def test_json_stable_apart_from_timing():
    a = json.loads(compute_cell(1, 3, 6).to_json())
    b = json.loads(compute_cell(1, 3, 6).to_json())
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_verify_sweep_and_cache_idempotence(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    first = verify_sweep(range(1, 2), range(1, 3), range(1, 4), cache_path=cache)
    assert first["mismatch"] == 0
    assert first["skipped"] == 0
    assert first["proven"] + first["conjecture_match"] == 6
    with open(cache) as fh:
        assert len(fh.readlines()) == 6

    again = verify_sweep(range(1, 2), range(1, 3), range(1, 4), cache_path=cache)
    assert again["skipped"] == 6
    assert again["proven"] == first["proven"]
    assert again["conjecture_match"] == first["conjecture_match"]
    with open(cache) as fh:
        assert len(fh.readlines()) == 6  # nothing appended on a full cache hit


def test_verify_sweep_block_of_24(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    summary = verify_sweep(range(1, 2), range(1, 5), range(1, 7), cache_path=cache)
    assert summary["mismatch"] == 0
    assert summary["lower_bound_violations"] == 0
    assert summary["proven"] + summary["conjecture_match"] == 24


def test_cache_roundtrip_and_last_writer_wins(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    rec = compute_cell(1, 2, 4)
    stale = ResultRecord.from_dict(json.loads(rec.to_json()))._replace(computed_total=99)
    with open(cache, "w") as fh:
        fh.write(stale.to_json() + "\n")
        fh.write(rec.to_json() + "\n")
    loaded = load_cache_at(cache)
    assert loaded[(1, 2, 4, rec.method)] == rec


def test_cache_corruption_reports_line(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    rec = compute_cell(1, 2, 4)
    with open(cache, "w") as fh:
        fh.write(rec.to_json() + "\n")
        fh.write("{not json\n")
    with pytest.raises(UsageError, match="cache line 2 is unreadable"):
        load_cache_at(cache)


def test_verify_parallel_matches_serial(tmp_path):
    serial = verify_sweep(
        range(0, 2), range(1, 3), range(1, 3), jobs=1, cache_path=str(tmp_path / "a.jsonl")
    )
    parallel = verify_sweep(
        range(0, 2), range(1, 3), range(1, 3), jobs=2, cache_path=str(tmp_path / "b.jsonl")
    )
    serial.pop("skipped")
    parallel.pop("skipped")
    assert serial == parallel
    a = [json.loads(x) for x in open(tmp_path / "a.jsonl")]
    b = [json.loads(x) for x in open(tmp_path / "b.jsonl")]
    for x in a + b:
        x.pop("elapsed_ms")
    assert a == b


def test_cofiber_report_fields():
    rep = cofiber_report(1, 2, 7)
    assert rep["cofiber_total"] == 2
    assert rep["predicted_cofiber"] == 2
    assert rep["connecting_rank"] == 2
    assert rep["predicted_delta_rank"] == 2
    assert rep["twisted_match"] is True


def test_cofiber_report_collapse_range():
    rep = cofiber_report(2, 3, 7)
    assert rep["cofiber_total"] == 15  # C(m-1, d-1)
    assert rep["connecting_rank"] == 0
    assert rep["twisted_match"] is True


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3), st.integers(1, 6), st.integers(1, 6))
def test_twisted_complex_matches_the_cofiber_property(n, d, c):
    assert cofiber_report(n, d, d + c)["twisted_match"] is True


def test_parse_range():
    assert list(_parse_range("2..4")) == [2, 3, 4]
    assert list(_parse_range("3")) == [3]


@pytest.mark.parametrize("raw", ["x", "3..", "..3", "1..2..3", "1.5"])
def test_main_verify_bad_range_is_a_usage_error(tmp_path, capsys, raw):
    cache = tmp_path / "c.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--n", raw, "--d", "1", "--c", "1", "--cache", str(cache)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --n: expected A or A..B, got {raw!r}\n")
    assert "Traceback" not in err
    assert not cache.exists()


def test_main_compute_json(capsys):
    code = main(["compute", "--n", "1", "--d", "2", "--m", "4"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["computed_total"] == 6
    assert parsed["status"] == "Proven"


def test_main_compute_csv(capsys):
    code = main(["compute", "--n", "1", "--d", "2", "--m", "4", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("n,d,m,value,predicted,status,method\n")
    assert "1,2,4,6,6,Proven,Both" in out


def test_main_table_csv(capsys):
    code = main(["table", "--n", "1", "--dmax", "2", "--cmax", "2"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_2X2


def test_main_verify_exit_code(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    code = main(["verify", "--n", "1..1", "--d", "1..2", "--c", "1..2", "--cache", cache])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["mismatch"] == 0
    assert os.path.exists(cache)


def test_main_cofiber(capsys):
    code = main(["cofiber", "--n", "1", "--d", "3", "--m", "8"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cofiber_total"] == 5
    assert rep["predicted_cofiber"] == 5
    assert rep["twisted_match"] is True


def test_main_cofiber_with_a_twist_above_the_top_degree(capsys):
    # n=10 shifts by 2047 on a 1x3 grid, so the map has no block and the
    # twist class is not built; a recursion up to degree 2047 exhausts the stack.
    assert main(["cofiber", "--n", "10", "--d", "2", "--m", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cofiber_total"] == rep["predicted_cofiber"] == 4
    assert rep["twisted_match"] is True


def zero_differential(n, d, m):
    twisted = twisted_complex(n, d, m)
    return GradedMap(twisted.shift, twisted.spaces)


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("twisted_complex", zero_differential),
        ("predicted_cofiber_k", lambda n, d, m: 0),
        ("predicted_delta_rank", lambda n, d, m: 0),
    ],
)
def test_main_cofiber_exits_1_when_a_check_fails(monkeypatch, capsys, name, wrong):
    argv = ["cofiber", "--n", "1", "--d", "2", "--m", "5"]
    assert main(argv) == 0
    good = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, name, wrong)
    assert main(argv) == 1
    bad = json.loads(capsys.readouterr().out)
    assert list(bad) == list(good)
    assert [key for key in good if bad[key] != good[key]] == [
        {
            "twisted_complex": "twisted_match",
            "predicted_cofiber_k": "predicted_cofiber",
            "predicted_delta_rank": "predicted_delta_rank",
        }[name]
    ]


def swap_two_classes(gm):
    """``gm`` in another basis, in which two classes of one degree trade places.

    They are the first two of the lowest degree where the swap changes a
    bit.  They trade places as columns of that degree's block and as rows
    of the block below it, so the map still squares to zero.
    """
    for t, dim in gm.spaces.items():
        if dim < 2:
            continue
        blocks = dict(gm.blocks)
        if t in blocks:
            first, second, *rest = blocks[t]
            blocks[t] = (second, first, *rest)
        if t - gm.shift in blocks:
            below = blocks[t - gm.shift]  # rows 0 and 1 swap: flip both bits where they differ
            blocks[t - gm.shift] = tuple(v ^ ((v ^ v >> 1) & 1) * 0b11 for v in below)
        swapped = GradedMap(gm.shift, gm.spaces, blocks)
        if swapped != gm:
            return swapped
    raise AssertionError("no swap of two classes changes the map")


def test_a_twist_in_another_basis_fails_the_bit_for_bit_check(monkeypatch, capsys):
    argv = ["cofiber", "--n", "1", "--d", "3", "--m", "7"]
    assert main(argv) == 0
    good = json.loads(capsys.readouterr().out)
    real = twisted_complex(1, 3, 7)
    other = swap_two_classes(real)
    assert other.compose_is_zero()
    assert qn_homology(other) == qn_homology(real)
    monkeypatch.setattr(cli, "twisted_complex", lambda n, d, m: other)
    assert cofiber_report(1, 3, 7)["twisted_match"] is False
    assert main(argv) == 1
    bad = json.loads(capsys.readouterr().out)
    assert bad == {**good, "twisted_match": False}


@pytest.mark.parametrize("command", ["compute", "cofiber"])
def test_a_formula_branch_disagreement_is_a_clean_error(monkeypatch, capsys, command):
    argv = [command, "--n", "1", "--d", "2", "--m", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    real = formulas._binomial_sum
    monkeypatch.setattr(formulas, "_binomial_sum", lambda top, k, l: real(top, k, l) + 1)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "grqn: cell n=1 d=2 m=4: branch disagreement at n=1 d=2 m=4\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "1", "--d", "1", "--c", "1"],
        ["table", "--n", "1", "--dmax", "1", "--cmax", "1"],
    ],
    ids=itemgetter(0),
)
def test_a_bug_outside_any_cell_is_raised(tmp_path, monkeypatch, argv):
    def broken_driver(*args, **kwargs):
        raise RuntimeError("driver bug")

    monkeypatch.setattr(cli, "_sweep", broken_driver)
    if argv[0] == "verify":
        argv = [*argv, "--cache", str(tmp_path / "c.jsonl")]
    with pytest.raises(RuntimeError, match="driver bug"):
        main(argv)


def plant_totals_one_high(monkeypatch):
    """Every homology total, in cli and in cofiber, comes out one too high."""
    real = homology.qn_homology

    def one_high(gm):
        profile = real(gm)
        return HomologyProfile(profile.per_degree, profile.total + 1)

    monkeypatch.setattr(homology, "qn_homology", one_high)
    monkeypatch.setattr(cli, "qn_homology", one_high)


def plant_route_disagreement(monkeypatch):
    """The derivation route's matrices come out zero."""
    real = cli.derivation_qn_matrix

    def zero_map(n, grid):
        gm = real(n, grid)
        return GradedMap(gm.shift, gm.spaces)

    monkeypatch.setattr(cli, "derivation_qn_matrix", zero_map)


def plant_flipped_generator_term(monkeypatch):
    """Q_n(w_2) gains or loses its term w_1^(2^(n+1) + 1)."""
    real = steenrod.milnor_q_generators

    def flipped(n, d, slot, count):
        images = real(n, d, slot, count)
        images[1] ^= {2 ** (n + 1) + 1}
        return images

    monkeypatch.setattr(steenrod, "milnor_q_generators", flipped)


@pytest.mark.parametrize(
    "command, plant, message",
    [
        ("compute", plant_totals_one_high, "odd defect 10 - 5 at n=1 d=2 m=5"),
        ("cofiber", plant_totals_one_high, "exactness defect 5 at n=1 d=2 m=5"),
        ("compute --basis both", plant_route_disagreement, "matrix constructions disagree at n=1"),
        ("compute --basis both", plant_flipped_generator_term, "matrix constructions disagree at n=1"),
    ],
    ids=["compute parity", "cofiber parity", "routes disagree", "generator image"],
)
def test_a_failed_bug_check_on_one_cell_is_a_clean_error(monkeypatch, capsys, command, plant, message):
    argv = [*command.split(), "--n", "1", "--d", "2", "--m", "5"]
    assert main(argv) == 0
    capsys.readouterr()
    plant(monkeypatch)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"grqn: cell n=1 d=2 m=5: {message}")
    assert captured.err.count("\n") == 1


def plant_ideal_leak(monkeypatch):
    """The first ideal column of degree 3 at n=1 on the 3x3 grid gains bit 2.

    The ideal holds the first two of degree 6's classes, so the bit falls
    outside it, and the map still squares to zero.
    """
    real = schubert.lenart_qn_matrix

    def leak(n, grid):
        gm = real(n, grid)
        first, *rest = gm.blocks[3]
        return GradedMap(gm.shift, gm.spaces, {**gm.blocks, 3: (first ^ 0b100, *rest)})

    monkeypatch.setattr(schubert, "lenart_qn_matrix", leak)


def test_an_ideal_that_is_not_a_subcomplex_is_a_clean_error(monkeypatch, capsys):
    assert _ideal_cut(Grid(3, 3))[3] == 1 and _ideal_cut(Grid(3, 3))[6] == 2
    assert cofiber_homology(1, 3, 6)[1] == 0
    plant_ideal_leak(monkeypatch)
    assert schubert.lenart_qn_matrix(1, Grid(3, 3)).compose_is_zero()
    message = "the ideal is not a subcomplex at degree 3 at n=1 d=3 m=6"
    with pytest.raises(RuntimeError, match=message):
        cofiber_homology(1, 3, 6)
    assert main(["cofiber", "--n", "1", "--d", "3", "--m", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"grqn: cell n=1 d=3 m=6: {message}\n"


def forked_and_serial(monkeypatch, capsys, argv):
    """``main(argv)``'s exit code, stdout and stderr with two usable CPUs, then with one.

    With two it must fork one twist worker and reap it, with one fork none.
    """
    fork, forks, runs = os.fork, [], []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        code = main(argv)
        runs.append((code, *capsys.readouterr()))
        assert len(forks) == 1, cpus
        with pytest.raises(ChildProcessError):  # the twist worker was reaped
            os.waitpid(-1, os.WNOHANG)
    return runs


COFIBER_CELLS = [(1, 7, 14), (2, 6, 13), (1, 6, 13), (1, 2, 4), (1, 2, 5), (10, 2, 5), (3, 3, 17)]


@pytest.mark.parametrize("cell", COFIBER_CELLS, ids=str)
def test_a_forked_twist_gives_the_serial_bytes(monkeypatch, capsys, cell):
    argv = ["cofiber", *(f"--{k}={v}" for k, v in zip("ndm", cell))]
    forked, serial = forked_and_serial(monkeypatch, capsys, argv)
    assert forked == serial
    assert forked[0] == 0 and forked[2] == ""
    assert json.loads(forked[1])["twisted_match"] is True


def raise_in_the_twist(n, d, m):
    raise RuntimeError(f"planted twist failure at n={n} d={d} m={m}")


def raise_a_bug_in_the_twist(n, d, m):
    raise ValueError(f"planted bug at n={n} d={d} m={m}")


def a_twist_without_alpha(n, d, m):
    grid = Grid(d - 1, m - d)
    return schubert.free_operator_matrix(grid, 2 ** (n + 1) - 1, schubert.derivation_parts(n, grid))


def a_twist_with_a_wide_column(n, d, m):
    # wider than the 4300 decimal digits Python converts an int to or from
    return GradedMap(1, {0: 1, 1: 1}, {0: (1 << 15001,)})


def a_twist_wider_than_the_pipe(n, d, m):
    # a 2^21-bit column: 256 KiB, four times a 64 KiB pipe buffer
    return GradedMap(1, {0: 1, 1: 1}, {0: (1 << 2**21 - 1,)})


@pytest.mark.parametrize(
    "twist, out, err",
    [
        (lambda n, d, m: swap_two_classes(twisted_complex(n, d, m)), '"twisted_match": false', ""),
        (raise_in_the_twist, "", "grqn: cell n=1 d=3 m=7: planted twist failure at n=1 d=3 m=7\n"),
        (raise_a_bug_in_the_twist, "", "grqn: cell n=1 d=3 m=7: planted bug at n=1 d=3 m=7\n"),
        (a_twist_with_a_wide_column, '"twisted_match": false', ""),
        (a_twist_wider_than_the_pipe, '"twisted_match": false', ""),
        (a_twist_without_alpha, '"twisted_match": false', ""),
    ],
    ids=["another basis", "failed check", "other exception", "wide column", "over a pipe", "no alpha"],
)
def test_a_forked_twist_fails_as_the_serial_one_does(monkeypatch, capsys, twist, out, err):
    monkeypatch.setattr(cli, "twisted_complex", twist)  # before the worker forks
    forked, serial = forked_and_serial(monkeypatch, capsys, ["cofiber", "--n=1", "--d=3", "--m=7"])
    assert forked == serial
    assert forked[0] == 1
    assert out in forked[1] and (out or forked[1] == "")
    assert forked[2] == err


def test_a_dead_twist_worker_is_a_clean_error_and_leaves_no_child(monkeypatch, capsys):
    monkeypatch.setattr(cli, "twisted_complex", lambda n, d, m: os._exit(3))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["cofiber", "--n", "1", "--d", "3", "--m", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grqn: twist worker died with exit status 3 on cell n=1 d=3 m=7\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def plant_not_a_differential(monkeypatch):
    """Every map the ideal side takes homology of fails the d^2 = 0 check."""
    monkeypatch.setattr(GradedMap, "compose_is_zero", lambda gm: False)


@pytest.mark.parametrize(
    "plant, cell, message",
    [
        (plant_totals_one_high, (1, 2, 5), "exactness defect 5 at n=1 d=2 m=5"),
        (plant_ideal_leak, (1, 3, 6), "the ideal is not a subcomplex at degree 3 at n=1 d=3 m=6"),
        (plant_not_a_differential, (1, 2, 5), "composite of consecutive blocks is nonzero"),
    ],
    ids=["exactness", "subcomplex", "d squared"],
)
def test_a_failed_check_on_the_ideal_side_kills_the_twist_worker(monkeypatch, capsys, plant, cell, message):
    # The ideal side fails while the worker may still build the twist: it is
    # killed and reaped before the error reaches main, and its error wins.
    plant(monkeypatch)
    argv = ["cofiber", *(f"--{k}={v}" for k, v in zip("ndm", cell))]
    forked, serial = forked_and_serial(monkeypatch, capsys, argv)
    assert forked == serial
    n, d, m = cell
    assert forked == (1, "", f"grqn: cell n={n} d={d} m={m}: {message}\n")


# Modules no command needs, a pooled sweep included.
NOT_ON_THE_LAUNCH_PATH = (
    "dataclasses",
    "inspect",
    "typing",
    "concurrent",
    "multiprocessing",
)


def loaded_modules(statement):
    """Modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(Path(grqn.__file__).parents[1]))
    code = f"{statement}\nimport sys\nprint(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return set(out.stdout.split())


def off_the_launch_path(modules):
    return [
        name
        for name in modules
        for module in NOT_ON_THE_LAUNCH_PATH
        if name == module or name.startswith(module + ".")
    ]


def test_the_cli_loads_neither_the_pool_nor_dataclasses():
    # Compared with a bare interpreter under the same flags and environment,
    # so modules a site hook preloads do not count.
    added = loaded_modules("import grqn.cli") - loaded_modules("pass")
    assert "grqn.cli" in added
    found = off_the_launch_path(added)
    assert not found, found


def test_a_pooled_verify_in_a_fresh_process_forks_its_workers(tmp_path):
    cache = tmp_path / "c.jsonl"
    cell_range = ["--n", "1", "--d", "1..2", "--c", "1..2"]  # four grids, four tasks
    argv = ["verify", *cell_range, "--jobs", "8", "--cache", str(cache)]
    cpus = cli._usable_cpus()
    # one worker per task, the corner task and four grids, up to the CPUs
    forks = min(cpus, 5) if cpus > 1 else 0
    statement = "\n".join([
        "import os",
        "from grqn import cli",
        "fork, forked = os.fork, []",
        "os.fork = lambda: forked.append(1) or fork()",
        f"assert cli.main({argv!r}) == 0",
        f"assert len(forked) == {forks}, forked",
    ])
    added = loaded_modules(statement) - loaded_modules("pass")
    assert "grqn.cli" in added
    found = off_the_launch_path(added)
    assert not found, found
    serial = tmp_path / "serial.jsonl"
    assert main(["verify", *cell_range, "--jobs", "1", "--cache", str(serial)]) == 0
    assert records_without_timing(cache) == records_without_timing(serial)
    assert len(read_lines(cache)) == 4


def test_main_verify_with_every_cell_too_large_exits_1(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "c.jsonl"
    argv = ["verify", "--n", "1", "--d", "1..2", "--c", "1..2", "--cache", str(cache)]
    monkeypatch.setenv("GRQN_CELL_LIMIT", "1")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "proven": 0,
        "conjecture_match": 0,
        "mismatch": 0,
        "skipped": 4,
        "lower_bound_violations": 0,
    }
    assert captured.err.startswith("grqn: nothing verified")
    assert captured.err.count("\n") == 1
    assert cache.read_text() == ""
    monkeypatch.delenv("GRQN_CELL_LIMIT")
    assert main(argv) == 0
    monkeypatch.setenv("GRQN_CELL_LIMIT", "1")
    assert main(argv) == 0  # all four cached: verified from the cache
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["skipped"] == 4


def assert_clean_error(capsys, code):
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert captured.err.startswith("grqn: error: ")
    assert "Traceback" not in captured.err
    return captured


def test_main_compute_invalid_cell_is_an_error(capsys):
    assert_clean_error(capsys, main(["compute", "--n", "1", "--d", "5", "--m", "3"]))


def test_main_cofiber_without_codimension_is_an_error(capsys):
    assert_clean_error(capsys, main(["cofiber", "--n", "1", "--d", "3", "--m", "3"]))


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n", "1", "--d", "2", "--m", "4"],
        ["table", "--n", "1", "--dmax", "2", "--cmax", "2"],
        ["verify", "--n", "1", "--d", "1..2", "--c", "1..2"],
        ["cofiber", "--n", "1", "--d", "2", "--m", "4"],
    ],
    ids=itemgetter(0),
)
def test_main_bad_cell_limit_is_an_error(tmp_path, monkeypatch, capsys, argv):
    cache = tmp_path / "c.jsonl"
    if argv[0] == "verify":
        argv = [*argv, "--cache", str(cache)]
    for raw in ("abc", "\u00b2"):  # a superscript two is a digit that int() rejects
        monkeypatch.setenv("GRQN_CELL_LIMIT", raw)
        code = main(argv)
        assert code == 2
        err = assert_clean_error(capsys, code).err
        assert err.count("\n") == 1 and err.startswith("grqn: error: GRQN_CELL_LIMIT ")
    assert not cache.exists()


def test_main_verify_empty_range_is_an_error(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    code = main(["verify", "--n", "1", "--d", "3..1", "--c", "1..2", "--cache", str(cache)])
    assert_clean_error(capsys, code)
    assert not cache.exists()


@pytest.mark.parametrize(
    "ranges",
    [
        ["--n", "0", "--d=-2..-1", "--c", "1"],
        ["--n", "0", "--d", "1", "--c=-3..-1"],
        ["--n=-1..0", "--d", "1", "--c", "1"],
    ],
    ids=["d", "c", "n"],
)
def test_main_verify_negative_range_is_an_error(tmp_path, capsys, ranges):
    cache = tmp_path / "c.jsonl"
    code = main(["verify", *ranges, "--cache", str(cache)])
    assert code == 2
    assert_clean_error(capsys, code)
    assert not cache.exists()


def test_main_verify_zero_jobs_is_an_error(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    argv = ["verify", "--n", "1", "--d", "1..2", "--c", "1..2", "--jobs", "0"]
    assert_clean_error(capsys, main([*argv, "--cache", str(cache)]))
    assert not cache.exists()


@pytest.mark.parametrize("damage", ["drop per_degree", "unknown status"])
def test_main_verify_unreadable_cache_is_an_error(tmp_path, capsys, damage):
    good = compute_cell(1, 1, 2).to_json()
    bad = json.loads(good)
    if damage == "drop per_degree":
        del bad["per_degree"]
    else:
        bad["status"] = "Bogus"
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps(bad) + "\n" + good + "\n")
    code = main(["verify", "--n", "1", "--d", "1", "--c", "1..2", "--cache", str(cache)])
    assert code == 2
    assert_clean_error(capsys, code)


@pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
def test_main_verify_unusable_cache_path_is_an_error(tmp_path, monkeypatch, capsys, where):
    cache = tmp_path / "missing" / "c.jsonl" if where == "in a missing directory" else tmp_path
    calls = []
    monkeypatch.setattr(cli, "compute_cell", lambda *args, **kwargs: calls.append(args))
    code = main(["verify", "--n", "0", "--d", "1", "--c", "1", "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"grqn: error: cannot use cache {cache}: ")
    assert "Traceback" not in captured.err
    assert calls == []


@pytest.mark.parametrize("bounds", [("0", "0"), ("-1", "2"), ("2", "0")], ids=["both", "d", "c"])
def test_main_table_empty_range_is_an_error(capsys, bounds):
    dmax, cmax = bounds
    code = main(["table", "--n", "0", "--dmax", dmax, "--cmax", cmax])
    assert code == 2
    assert_clean_error(capsys, code)
    with pytest.raises(UsageError, match="empty . range"):
        table_rows(0, int(dmax), int(cmax))


class RecordingForkMap:
    """Stands in for the fork map: records its worker counts (0 in process) and tasks, maps in process.

    Each task's results go through ``marshal``, as they do from a worker.
    """

    def __init__(self, monkeypatch):
        self.jobs = []
        self.tasks = []
        monkeypatch.setattr(cli, "_fork_map", self)

    def __call__(self, fn, tasks, jobs, role):
        self.jobs.append(jobs)
        self.tasks.extend(tasks)
        return contextlib.nullcontext(marshal.loads(marshal.dumps([*map(fn, task)])) for task in tasks)


def test_verify_jobs_capped_at_cpu_count(tmp_path, monkeypatch):
    # The usable CPUs are the affinity set where there is one: cpu_count
    # counts CPUs the process may not run on.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    workers = RecordingForkMap(monkeypatch)
    summary = verify_sweep(
        range(1, 2), range(1, 3), range(1, 3), jobs=64, cache_path=str(tmp_path / "c.jsonl")
    )
    assert workers.jobs == [3]  # one fork map, the corner task its first task
    assert summary["proven"] == 4


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def load_cache_at(path):
    """The records of the cache file at ``path``, as a sweep loads them."""
    with open(path, "rb") as fh:
        return load_cache(fh)


def test_sweep_keeps_records_finished_before_a_crash(tmp_path, monkeypatch, capsys):
    cache = str(tmp_path / "c.jsonl")
    real = cli.compute_cell
    calls = []

    def crash_on_third(n, d, m, **kwargs):
        calls.append((n, d, m))
        if len(calls) == 3:
            raise RuntimeError("injected worker failure")
        return real(n, d, m, **kwargs)

    monkeypatch.setattr(cli, "compute_cell", crash_on_third)
    summary = verify_sweep(range(1, 2), range(1, 2), range(1, 6), jobs=1, cache_path=cache)
    assert summary["mismatch"] == 1
    assert summary["proven"] + summary["conjecture_match"] == 4
    kept = [json.loads(line) for line in read_lines(cache)]
    assert [(r["n"], r["d"], r["m"]) for r in kept] == calls[:2] + calls[3:]
    assert capsys.readouterr().err == "grqn: cell n=1 d=1 m=4: injected worker failure\n"


def test_sweep_flushes_each_record_before_the_next_cell_of_its_grid(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "c.jsonl"
    real = cli.compute_cell
    on_disk = []

    def crash_at_n1(n, d, m, **kwargs):
        on_disk.append(len(read_lines(cache)))
        if n == 1:
            raise RuntimeError("injected worker failure")
        return real(n, d, m, **kwargs)

    monkeypatch.setattr(cli, "compute_cell", crash_at_n1)
    # one grid, so the failed cell and the cells on either side share it
    summary = verify_sweep(range(0, 3), range(2, 3), range(2, 3), jobs=1, cache_path=str(cache))
    assert on_disk == [0, 1, 1]
    assert summary["mismatch"] == 1
    assert record_cells(cache) == [(0, 2, 4), (2, 2, 4)]
    assert capsys.readouterr().err == "grqn: cell n=1 d=2 m=4: injected worker failure\n"


def test_parallel_sweep_keeps_every_cell_but_the_one_that_failed(tmp_path, monkeypatch, capsys):
    cache = str(tmp_path / "c.jsonl")
    real = cli.compute_cell

    def crash_at_m4(n, d, m, **kwargs):
        if m == 4:
            raise RuntimeError("injected worker failure")
        return real(n, d, m, **kwargs)

    monkeypatch.setattr(cli, "compute_cell", crash_at_m4)  # before the pool forks
    argv = ["verify", "--n", "1", "--d", "1", "--c", "1..5", "--jobs", "2", "--cache", cache]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["mismatch"] == 1
    assert captured.err == "grqn: cell n=1 d=1 m=4: injected worker failure\n"
    kept = [json.loads(line) for line in read_lines(cache)]
    assert [r["m"] for r in kept] == [6, 5, 3, 2]
    monkeypatch.setattr(cli, "compute_cell", real)
    retry = verify_sweep(range(1, 2), range(1, 2), range(1, 6), cache_path=cache)
    assert retry["skipped"] == 4 and retry["mismatch"] == 0  # the failed cell is retried


def test_a_dead_worker_is_a_clean_error_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    cache = str(tmp_path / "c.jsonl")
    real = cli._sweep_cell

    def die_at_m4(cell, **kwargs):
        if cell[2] == 4:
            os._exit(3)
        return real(cell, **kwargs)

    monkeypatch.setattr(cli, "_sweep_cell", die_at_m4)  # before the workers fork
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # so they fork on any host
    argv = ["verify", "--n", "1", "--d", "1", "--c", "1..5", "--jobs", "2", "--cache", cache]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grqn: sweep worker died with exit status 3 on cell n=1 d=1 m=4\n"
    # whatever was written came before the dead task, one whole record a line
    kept = [json.loads(line)["m"] for line in read_lines(cache)]
    assert kept == [6, 5][: len(kept)]
    assert Path(cache).read_text().count("\n") == len(kept) == len(load_cache_at(cache))
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_partway_through_its_results_is_a_clean_error(tmp_path, monkeypatch, capsys):
    cache = str(tmp_path / "c.jsonl")
    dump = marshal.dump
    sent = []

    def die_halfway_through_the_second(value, out):
        sent.append(value)  # in the worker's own copy of the list
        if len(sent) < 2:
            return dump(value, out)
        data = marshal.dumps(value)
        out.write(data[: len(data) // 2])
        out.flush()
        os._exit(3)

    monkeypatch.setattr(marshal, "dump", die_halfway_through_the_second)  # before the workers fork
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["verify", "--n", "1", "--d", "1", "--c", "1..5", "--jobs", "2", "--cache", cache]
    assert main(argv) == 1  # neither EOFError nor ValueError escapes
    captured = capsys.readouterr()
    assert captured.out == ""
    # each worker sends its first task (the corner task, m=6) whole and dies
    # halfway through its second (m=5, m=4)
    assert re.fullmatch(r"grqn: sweep worker died with exit status 3 on cell n=1 d=1 m=[45]\n", captured.err)
    kept = [json.loads(line)["m"] for line in read_lines(cache)]
    assert kept == [6][: len(kept)]
    assert Path(cache).read_text().count("\n") == len(kept) == len(load_cache_at(cache))
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_raises_prints_its_traceback_then_dies_with_status_1(tmp_path):
    # In a fresh process: a forked worker's stderr is the process's own, which capsys cannot see.
    statement = "\n".join([
        "import sys",
        "from grqn import cli",
        "real = cli._sweep_cell",
        "cli._sweep_cell = lambda cell, **kwargs: object() if cell == (1, 2, 4) else real(cell, **kwargs)",
        "cli._usable_cpus = lambda: 2",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(grqn.__file__).parents[1]))
    for run in range(5):
        argv = ["verify", "--n", "1", "--d", "1..2", "--c", "1..2", "--jobs", "2"]
        argv += ["--cache", str(tmp_path / f"{run}.jsonl")]
        done = subprocess.run(
            [sys.executable, "-c", statement, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1
        assert done.stdout == ""
        traceback, died = done.stderr.split("ValueError: unmarshallable object\n")
        assert traceback.startswith("Traceback (most recent call last):\n")
        assert died == "grqn: sweep worker died with exit status 1 on cell n=1 d=2 m=4\n"


def test_a_worker_dead_before_its_next_task_is_a_clean_error_and_leaves_no_child(monkeypatch):
    fork, write, pids, writes = os.fork, os.write, [], []

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    def write_to_a_dead_worker(fd, data):
        writes.append(data)
        if len(writes) == 2:  # the second task: its worker is gone and its task pipe has no reader
            os.kill(pids[0], signal.SIGKILL)
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
        return write(fd, data)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "write", write_to_a_dead_worker)
    with pytest.raises(cli.WorkerDied, match=r"^sweep worker died with exit status -9 on cell n=2 d=2 m=2$"):
        with cli._fork_map(str, [[(1, 1, 1)], [(2, 2, 2)]], 1, "sweep") as results:
            assert list(next(results)) == ["(1, 1, 1)"]
            next(results)
    assert writes == [b"0\n", b"1\n"]
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_torn_last_cache_line_resumes_and_recomputes(tmp_path):
    cache = str(tmp_path / "c.jsonl")
    verify_sweep(range(1, 2), range(1, 2), range(1, 4), cache_path=cache)
    lines = read_lines(cache)
    with open(cache, "w") as fh:
        fh.write("\n".join(lines[:2]) + "\n" + lines[2][:25])  # the third write cut off
    assert len(load_cache_at(cache)) == 2
    summary = verify_sweep(range(1, 2), range(1, 2), range(1, 4), cache_path=cache)
    assert summary["skipped"] == 2
    assert summary["proven"] + summary["conjecture_match"] == 3
    again = read_lines(cache)
    assert again[:2] == lines[:2]
    assert len(again) == 3
    assert json.loads(again[2])["m"] == json.loads(lines[2])["m"]
    assert len(load_cache_at(cache)) == 3


def records_without_timing(path):
    out = []
    for line in read_lines(path):
        record = json.loads(line)
        del record["elapsed_ms"]
        out.append(record)
    return out


def count_context_builds(monkeypatch):
    """Clear the grid-context cache and record every grid built from now on."""
    built = []
    init = schubert._GridContext.__init__

    def recording_init(self, grid):
        built.append(grid)
        init(self, grid)

    schubert._context.cache_clear()
    monkeypatch.setattr(schubert._GridContext, "__init__", recording_init)
    return built


SWEEP_25_GRIDS = (range(0, 4), range(1, 6), range(1, 6))  # more grids than the context cache holds


def dispatch_order(cells):
    """The sweep's order for grids small enough for both routes: a grid's
    cells together in n order, grids by cell count times basis size, largest
    first, ties by (d, c)."""
    per_grid = Counter((d, m) for n, d, m in cells)
    return sorted(cells, key=lambda cell: (-per_grid[cell[1:]] * math.comb(cell[2], cell[1]), cell[1:], cell[0]))


def record_cells(path):
    return [(r["n"], r["d"], r["m"]) for r in records_without_timing(path)]


def test_serial_sweep_builds_each_grid_context_once(tmp_path, monkeypatch):
    built = count_context_builds(monkeypatch)
    verify_sweep(*SWEEP_25_GRIDS, cache_path=str(tmp_path / "c.jsonl"))
    cells = record_cells(tmp_path / "c.jsonl")
    assert len(cells) == 100
    grids = list(dict.fromkeys((d, m - d) for n, d, m in cells))
    assert len(grids) == 25
    assert [(g.d, g.c) for g in built] == grids
    assert schubert._context.cache_info().currsize == 1  # only the last grid's context is kept


def test_resumed_sweep_builds_only_the_grids_with_uncached_cells(tmp_path, monkeypatch):
    whole = tmp_path / "whole.jsonl"
    verify_sweep(*SWEEP_25_GRIDS, cache_path=str(whole))
    lines = read_lines(whole)
    random.Random(7).shuffle(lines)
    cache = tmp_path / "half.jsonl"
    cache.write_text("".join(line + "\n" for line in lines[:50]))
    built = count_context_builds(monkeypatch)
    summary = verify_sweep(*SWEEP_25_GRIDS, cache_path=str(cache))
    assert summary["skipped"] == 50
    assert read_lines(cache)[:50] == lines[:50]
    uncached = dispatch_order([(r["n"], r["d"], r["m"]) for r in map(json.loads, lines[50:])])
    by_basis_alone = sorted(uncached, key=lambda cell: (-math.comb(cell[2], cell[1]), cell[1:], cell[0]))
    assert uncached != by_basis_alone  # the uncached cells per grid weigh in
    assert record_cells(cache)[50:] == uncached
    grids = list(dict.fromkeys((d, m - d) for n, d, m in uncached))
    assert len(grids) < 25  # the seed leaves some grids wholly cached
    assert [(g.d, g.c) for g in built] == grids


SWEEP_3X4 = ["--n", "0..2", "--d", "1..3", "--c", "1..4"]  # every grid on both routes, corner 3x4
CORNER_3X4 = Grid(3, 4)


def record_derivations(monkeypatch):
    """Each (n, grid) the sweep builds a derivation matrix for, in process."""
    real, built = cli.derivation_qn_matrix, []

    def recording(n, grid):
        built.append((n, grid))
        return real(n, grid)

    monkeypatch.setattr(cli, "derivation_qn_matrix", recording)
    return built


def test_a_sweep_builds_the_derivation_route_on_its_corner_grid_only(tmp_path, monkeypatch):
    # Pieri tables, conversions and Leibniz steps: the grids each is built on
    built = {}
    for name in ("pieri_block", "convert", "steps"):
        real = getattr(schubert._GridContext, name)

        def recording(self, *args, real=real, name=name):
            built.setdefault(name, set()).add(self.grid)
            return real(self, *args)

        monkeypatch.setattr(schubert._GridContext, name, recording)
    derivations = record_derivations(monkeypatch)
    assert main(["verify", *SWEEP_3X4, "--cache", str(tmp_path / "c.jsonl")]) == 0
    assert derivations == [(n, CORNER_3X4) for n in range(3)]
    assert built == dict.fromkeys(["pieri_block", "convert", "steps"], {CORNER_3X4})
    assert {r["method"] for r in records_without_timing(tmp_path / "c.jsonl")} == {"Both"}


def cell_of(line):
    record = json.loads(line)
    return record["n"], record["d"], record["m"]


def without_timing(line):
    return re.sub(r', "elapsed_ms": \d+', "", line)


def test_a_resumed_sweep_builds_no_corner_matrix_for_an_n_whose_corner_cell_is_cached(tmp_path, monkeypatch):
    fresh, cache = tmp_path / "fresh.jsonl", tmp_path / "resumed.jsonl"
    assert main(["verify", *SWEEP_3X4, "--cache", str(fresh)]) == 0
    lines = read_lines(fresh)
    cached = {(1, 3, 7), (0, 1, 2), (1, 1, 2), (2, 1, 2)}  # n=1 on the corner, and the 1x1 grid
    kept = [line for line in lines if cell_of(line) in cached]
    assert len(kept) == 4
    cache.write_text("".join(line + "\n" for line in kept))
    derivations = record_derivations(monkeypatch)
    assert main(["verify", *SWEEP_3X4, "--cache", str(cache)]) == 0
    # n=0 and n=2 read every grid off the corner; n=1 builds each uncached grid's own
    uncached = [(d, c) for d in range(1, 4) for c in range(1, 5) if (d, c) not in {(1, 1), (3, 4)}]
    assert sorted(derivations[:2]) == [(0, CORNER_3X4), (2, CORNER_3X4)]
    assert sorted(derivations[2:]) == sorted((1, Grid(d, c)) for d, c in uncached)
    resumed = read_lines(cache)
    assert resumed[:4] == kept
    assert sorted(map(without_timing, resumed)) == sorted(map(without_timing, lines))


def flip_a_corner_bit(monkeypatch, n, t, col, row):
    """The corner's derivation matrix for n gains or loses one bit."""
    real = cli.derivation_qn_matrix

    def flipped(k, grid):
        gm = real(k, grid)
        if (k, grid) != (n, CORNER_3X4):
            return gm
        cols = list(gm.blocks[t])
        cols[col] ^= 1 << row
        return GradedMap(gm.shift, gm.spaces, {**gm.blocks, t: tuple(cols)})

    monkeypatch.setattr(cli, "derivation_qn_matrix", flipped)


def misplace_a_word(monkeypatch, grid, t, wrong):
    """The first of ``grid``'s places in degree t names the corner's word at ``wrong``."""
    real = cli.embedded_places

    def misplaced(corner, grids):
        places = real(corner, grids)
        places[grid][t][0] = wrong
        return places

    monkeypatch.setattr(cli, "embedded_places", misplaced)


def sweep_failures(tmp_path, monkeypatch, capsys, jobs):
    """Sweep SWEEP_3X4; the cells that failed, by their messages, and the cells with records."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # so --jobs 2 forks on any host
    cache = tmp_path / f"{jobs}.jsonl"
    code = main(["verify", *SWEEP_3X4, "--jobs", str(jobs), "--cache", str(cache)])
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    failed = set()
    for line in captured.err.splitlines():
        found = re.fullmatch(
            r"grqn: cell n=(\d+) d=(\d+) m=(\d+): matrix constructions disagree "
            r"at n=(\d+) grid=Grid\(d=(\d+), c=(\d+)\)",
            line,
        )
        assert found, line
        n, d, m, n2, d2, c2 = map(int, found.groups())
        assert (n, d, m) == (n2, d2, d2 + c2)
        failed.add((n, d, m))
    assert summary["mismatch"] == len(failed)
    assert code == (1 if failed else 0)
    return failed, set(record_cells(cache))


ALL_3X4 = {(n, d, d + c) for n in range(3) for d in range(1, 4) for c in range(1, 5)}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_flipped_corner_bit_fails_every_cell_whose_restriction_holds_it(
    tmp_path, monkeypatch, capsys, jobs
):
    # Q_1(1) = 0: the empty word's column gains the row of (2, 1), which
    # every grid with d, c >= 2 keeps
    n, row = 1, schubert_basis(CORNER_3X4)[3].index(word((2, 1), 3))
    places = schubert.embedded_places(CORNER_3X4, [(d, c) for d in range(1, 4) for c in range(1, 5)])
    holds = {(n, d, d + c) for (d, c), at in places.items() if 0 in at[0] and row in at.get(3, [])}
    assert holds == {(1, d, d + c) for d in (2, 3) for c in (2, 3, 4)}
    flip_a_corner_bit(monkeypatch, n, 0, 0, row)
    failed, kept = sweep_failures(tmp_path, monkeypatch, capsys, jobs)
    assert failed == holds
    assert kept == ALL_3X4 - holds


def test_a_corner_build_that_raises_leaves_each_cell_to_build_its_own(tmp_path, monkeypatch, capsys):
    real = cli.derivation_qn_matrix

    def planted(n, grid):
        if grid == CORNER_3X4:
            raise RuntimeError("planted corner fault")
        return real(n, grid)

    monkeypatch.setattr(cli, "derivation_qn_matrix", planted)
    cache = tmp_path / "c.jsonl"
    assert main(["verify", *SWEEP_3X4, "--cache", str(cache)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["mismatch"] == 3
    # the corner's own cells raise again, each once; every other cell is checked on its own grid
    assert sorted(captured.err.splitlines()) == [
        f"grqn: cell n={n} d=3 m=7: planted corner fault" for n in range(3)
    ]
    assert set(record_cells(cache)) == {cell for cell in ALL_3X4 if cell[1:] != (3, 7)}


def test_a_dead_corner_worker_is_a_clean_error_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    real = cli._corner_task

    def dying(cells):  # before the workers fork
        items, _ = real(cells)
        return items, lambda item: os._exit(3)

    monkeypatch.setattr(cli, "_corner_task", dying)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cache = tmp_path / "c.jsonl"
    assert main(["verify", *SWEEP_3X4, "--jobs", "2", "--cache", str(cache)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grqn: sweep worker died with exit status 3 on cell n=0 d=3 m=7\n"
    assert read_lines(cache) == []  # no record is written before the corner task is back
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_planted_lenart_bit_is_reported_ahead_of_the_cells_later_failures(tmp_path, monkeypatch, capsys, jobs):
    # (1, 2, 5)'s Lenart matrix gains a bit, and then no longer squares to zero
    cell, real_lenart = (1, 2, 5), cli.lenart_qn_matrix

    def planted(n, grid):
        gm = real_lenart(n, grid)
        if (n, grid) != (1, Grid(2, 3)):
            return gm
        return GradedMap(gm.shift, gm.spaces, {**gm.blocks, 0: (gm.blocks[0][0] ^ 1,)})

    monkeypatch.setattr(cli, "lenart_qn_matrix", planted)
    with pytest.raises(RuntimeError, match="matrix constructions disagree at n=1 grid=Grid"):
        compute_cell(*cell)
    with pytest.raises(NotADifferential):  # the checks after the comparison fail too
        compute_cell(*cell, keep=lambda matrix: None)
    failed, kept = sweep_failures(tmp_path, monkeypatch, capsys, jobs)
    assert failed == {cell}
    assert kept == ALL_3X4 - {cell}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_that_raises_before_its_matrix_keeps_its_own_message(tmp_path, monkeypatch, capsys, jobs):
    real = cli.compute_cell

    def fail_at_n1_d2_m5(n, d, m, **kwargs):
        if (n, d, m) == (1, 2, 5):
            raise RuntimeError("planted fault before the matrix")
        return real(n, d, m, **kwargs)

    monkeypatch.setattr(cli, "compute_cell", fail_at_n1_d2_m5)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cache = tmp_path / "c.jsonl"
    assert main(["verify", *SWEEP_3X4, "--jobs", str(jobs), "--cache", str(cache)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "grqn: cell n=1 d=2 m=5: planted fault before the matrix\n"
    assert json.loads(captured.out)["mismatch"] == 1
    assert set(record_cells(cache)) == ALL_3X4 - {(1, 2, 5)}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_enters_the_fork_map_once_with_the_corner_task_first(tmp_path, monkeypatch, jobs):
    real, calls = cli._fork_map, []

    def recording(fn, tasks, workers, role):
        calls.append(([list(task) for task in tasks], workers, role))
        return real(fn, tasks, workers, role)

    monkeypatch.setattr(cli, "_fork_map", recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cache = tmp_path / "c.jsonl"
    assert main(["verify", *SWEEP_3X4, "--jobs", str(jobs), "--cache", str(cache)]) == 0
    [(tasks, workers, role)] = calls
    assert (workers, role) == (jobs if jobs > 1 else 0, "sweep")
    cells = record_cells(cache)
    assert [tuple(item) for item in tasks[0]] == cells  # every cell on both routes, in dispatch order
    assert [cell for task in tasks[1:] for cell in task] == cells


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cached", [(), ((0, 3, 7), (1, 3, 7))], ids=["fresh", "corner-cached-for-n0-n1"])
def test_no_record_reaches_the_cache_before_the_corner_task_is_back(tmp_path, monkeypatch, jobs, cached):
    cache, real, on_disk = tmp_path / "c.jsonl", cli._fork_map, []
    cache.write_text("".join(compute_cell(*cell).to_json() + "\n" for cell in cached))

    @contextlib.contextmanager
    def watching(fn, tasks, workers, role):
        with real(fn, tasks, workers, role) as results:
            corner = next(results)

            def watched():
                for restriction in corner:
                    on_disk.append(len(read_lines(cache)))
                    yield restriction

            yield chain([watched()], results)

    monkeypatch.setattr(cli, "_fork_map", watching)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["verify", *SWEEP_3X4, "--jobs", str(jobs), "--cache", str(cache)]) == 0
    if not cached:  # the corner's first two restrictions come before any record, then one ahead of each
        assert on_disk == [0, *range(len(ALL_3X4) - 1)]
    else:  # only n=2 has its corner cell to compute, and the first task, Grid(3, 3), starts at n=0
        assert record_cells(cache)[len(cached)] == (0, 3, 6)
        assert on_disk[0] == len(cached)
        assert len(on_disk) == sum(n == 2 for n, _, _ in ALL_3X4)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_misplaced_word_fails_the_cells_of_its_grid_where_the_matrices_differ(
    tmp_path, monkeypatch, capsys, jobs
):
    # degree 3 of the 2x3 grid holds (3) and (2, 1); (3)'s place names (1, 1, 1)
    grid, wrong = (2, 3), schubert_basis(CORNER_3X4)[3].index(word((1, 1, 1), 3))
    places = schubert.embedded_places(CORNER_3X4, [grid])[grid]
    assert wrong not in places[3]
    places[3][0] = wrong
    differ = {
        (n, 2, 5)
        for n in range(3)
        if derivation_qn_matrix(n, CORNER_3X4).select(places) != lenart_qn_matrix(n, Grid(*grid))
    }
    assert differ  # the plant shows
    misplace_a_word(monkeypatch, grid, 3, wrong)
    failed, kept = sweep_failures(tmp_path, monkeypatch, capsys, jobs)
    assert failed == differ
    assert kept == ALL_3X4 - differ


def test_pool_gets_a_grid_on_both_routes_whole_and_a_larger_grid_cell_by_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BOTH_METHOD_LIMIT", 5)  # the 2x2 grid, C(4, 2) = 6, is Lenart only
    workers = RecordingForkMap(monkeypatch)
    cache = tmp_path / "c.jsonl"
    verify_sweep(range(0, 2), range(1, 3), range(1, 3), jobs=2, cache_path=str(cache))
    tasks = workers.tasks
    # two cells of basis 3 weigh as much as one of basis 6; ties in (d, c, n) order
    assert tasks == [
        [(0, 1, 3), (1, 1, 3)],
        [(0, 2, 3), (1, 2, 3)],
        [(0, 2, 4)],
        [(1, 2, 4)],
        [(0, 1, 2), (1, 1, 2)],
    ]
    assert record_cells(cache) == [cell for task in tasks for cell in task]
    assert {r["method"] for r in records_without_timing(cache) if r["m"] == 4} == {"Lenart"}


def test_no_oversize_cell_reaches_a_worker(tmp_path, monkeypatch):
    # C(m, d) exceeds 9 on the grids 2x3, 3x2 and 3x3: six of the 18 cells
    monkeypatch.setenv("GRQN_CELL_LIMIT", "9")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    workers = RecordingForkMap(monkeypatch)
    pooled, serial = tmp_path / "pooled.jsonl", tmp_path / "serial.jsonl"
    summary = verify_sweep(range(0, 2), range(1, 4), range(1, 4), jobs=2, cache_path=str(pooled))
    assert workers.jobs == [2]
    cells = [cell for task in workers.tasks for cell in task]
    assert len(cells) == 12
    assert all(math.comb(m, d) <= 9 for n, d, m in cells)
    assert summary["skipped"] == 6
    assert verify_sweep(range(0, 2), range(1, 4), range(1, 4), cache_path=str(serial)) == summary
    assert records_without_timing(pooled) == records_without_timing(serial)
    assert record_cells(pooled) == cells


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_writes_largest_grid_first_each_in_n_order(tmp_path, jobs):
    cache = tmp_path / "c.jsonl"
    verify_sweep(range(0, 3), range(1, 4), range(1, 4), jobs=jobs, cache_path=str(cache))
    cells = dispatch_order([(n, d, d + c) for n in range(3) for d in range(1, 4) for c in range(1, 4)])
    assert record_cells(cache) == cells
    # the 3x3 grid has 20 classes, then the 2x3 grid (10) goes before the 3x2 one
    assert cells[:4] == [(0, 3, 6), (1, 3, 6), (2, 3, 6), (0, 2, 5)]


KILLED_RANGE = ["--n", "0..3", "--d", "1..6", "--c", "1..7"]  # the benchmark's sweep


def records_by_key(path):
    """The records without timing, sorted by key.

    A kill can land between two records of one task, and the resumed sweep
    weighs that grid by its uncached cells alone, so it writes them later:
    only the order of a resumed cache's records may differ.
    """
    return sorted(records_without_timing(path), key=itemgetter("n", "d", "m", "method"))


def kill_a_sweep_after_its_first_record(cache, *options):
    """Start a sweep in its own session, SIGKILL it once its cache holds a record; its pid."""
    env = dict(os.environ, PYTHONPATH=str(Path(grqn.__file__).parents[1]))
    argv = [sys.executable, "-m", "grqn.cli", "verify", *KILLED_RANGE, *options, "--cache", str(cache)]
    child = subprocess.Popen(
        argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        deadline = time.monotonic() + 60
        while child.poll() is None and time.monotonic() < deadline:
            if cache.exists() and b"\n" in cache.read_bytes():
                break
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    assert child.returncode == -signal.SIGKILL  # killed, so the sweep had not finished
    return child.pid


def test_killed_sweep_resumes_to_the_uninterrupted_records(tmp_path, capsys):
    # One child sweeps the benchmark range and is killed as soon as its cache
    # holds a complete record; resuming must finish with the same records.
    cache = tmp_path / "killed.jsonl"
    kill_a_sweep_after_its_first_record(cache)
    finished = len(load_cache_at(cache))
    assert finished >= 1
    assert main(["verify", *KILLED_RANGE, "--cache", str(cache)]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == finished
    whole = tmp_path / "whole.jsonl"
    assert main(["verify", *KILLED_RANGE, "--cache", str(whole)]) == 0
    assert records_by_key(cache) == records_by_key(whole)
    assert len(read_lines(whole)) == 4 * 6 * 7


def process_group_ends(pgid, seconds):
    """Whether every process in group ``pgid`` is gone within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def test_no_worker_outlives_a_killed_pooled_sweep(tmp_path, capsys):
    # The sweep leads its own session, so its workers share its process group;
    # once the sweep is killed they must see their pipes close and exit.
    cache = tmp_path / "killed.jsonl"
    pgid = kill_a_sweep_after_its_first_record(cache, "--jobs", "2")
    gone = process_group_ends(pgid, 10)
    if not gone:
        os.killpg(pgid, signal.SIGKILL)  # leave nothing running behind a failure
    assert gone, "a sweep worker outlived the killed sweep"
    finished = len(load_cache_at(cache))
    assert finished >= 1
    assert main(["verify", *KILLED_RANGE, "--cache", str(cache)]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == finished
    whole = tmp_path / "whole.jsonl"
    assert main(["verify", *KILLED_RANGE, "--cache", str(whole)]) == 0
    assert records_by_key(cache) == records_by_key(whole)
    assert len(read_lines(cache)) == 4 * 6 * 7


def child_pids(pid):
    """The pids of a process's children, read from /proc; none once it is gone."""
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except FileNotFoundError:
        return []


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/PID/task/TID/children to see the worker",
)
def test_no_worker_outlives_a_killed_cofiber():
    # The twist of (1, 8, 17) takes about a second, so the worker is still
    # building it when the report, in its own session, is killed; the worker
    # must then find its result pipe closed and exit.
    env = dict(os.environ, PYTHONPATH=str(Path(grqn.__file__).parents[1]))
    code = "\n".join([
        "from grqn import cli",
        "cli._usable_cpus = lambda: 2  # so it forks on any host",
        "cli.main(['cofiber', '--n', '1', '--d', '8', '--m', '17'])",
    ])
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and child.poll() is None and time.monotonic() < deadline:
            workers = child_pids(child.pid)
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    assert child.returncode == -signal.SIGKILL  # killed, so the report had not finished
    assert len(workers) == 1
    gone = process_group_ends(child.pid, 10)
    if not gone:
        os.killpg(child.pid, signal.SIGKILL)  # leave nothing running behind a failure
    assert gone, "the twist worker outlived the killed report"


def test_complete_last_record_without_line_break_is_kept(tmp_path):
    cache = str(tmp_path / "c.jsonl")
    verify_sweep(range(1, 2), range(1, 2), range(1, 3), cache_path=cache)
    lines = read_lines(cache)
    with open(cache, "w") as fh:
        fh.write(lines[0])  # only the line break was lost
    summary = verify_sweep(range(1, 2), range(1, 2), range(1, 3), cache_path=cache)
    assert summary["skipped"] == 1
    assert read_lines(cache)[0] == lines[0]
    assert len(load_cache_at(cache)) == 2


def test_unreadable_line_before_the_end_still_fails(tmp_path):
    cache = str(tmp_path / "c.jsonl")
    verify_sweep(range(1, 2), range(1, 2), range(1, 4), cache_path=cache)
    lines = read_lines(cache)
    with open(cache, "w") as fh:
        fh.write("\n".join([lines[0], lines[1][:25], lines[2]]))
    with pytest.raises(UsageError, match="cache line 2 is unreadable"):
        verify_sweep(range(1, 2), range(1, 2), range(1, 4), cache_path=cache)
