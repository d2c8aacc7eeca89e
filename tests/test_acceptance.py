"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion alongside the pytest verdicts.
"""

import time
from collections import Counter
from math import comb

from grqn.cli import compute_cell, main, verify_sweep
from grqn.formulas import predicted_delta_rank, predicted_k
from grqn.cofiber import cofiber_homology
from grqn.homology import qn_homology
from grqn.schubert import Grid, derivation_qn_matrix, lenart_qn_matrix
from oracles import (
    Polynomial,
    binom_parity,
    dual_class,
    generator,
    ideal_inclusion_induced_zero,
    ideal_subcomplex,
    is_zero,
    lemma65_check,
    milnor_q,
    one,
    schubert_support,
    zero,
)

K1_GOLDEN = {
    1: [2, 3, 4, 3, 4, 3],
    2: [3, 6, 4, 7, 5, 8],
    3: [4, 4, 8, 7, 12, 10],
    4: [3, 7, 7, 14, 12, 22],
    5: [4, 5, 12, 12, 24, 22],
    6: [3, 8, 10, 22, 22, 44],
}

K2_SPOTS = [(3, 5, 56), (7, 7, 352), (2, 7, 22), (5, 5, 112)]
K3_SPOTS = [(2, 8, 45), (5, 11, 4368), (13, 3, 560)]

ORACLE_RANGE = [
    (n, d, c) for n in range(3) for d in range(1, 5) for c in range(1, 6)
]


def _finish(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {num:2d}: PASS ({elapsed:.2f}s) {label}")


def test_criterion_01_golden_k1_table(capsys):
    t0 = time.perf_counter()
    code = main(["table", "--n", "1", "--dmax", "6", "--cmax", "6"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,c,value,status,method"
    cells = {}
    for line in lines[1:]:
        d, c, value, _status, _method = line.split(",")
        cells[(int(d), int(c))] = int(value)
    assert len(cells) == 36
    for d in range(1, 7):
        for c in range(1, 7):
            assert cells[(d, c)] == K1_GOLDEN[d][c - 1], (d, c)
    with capsys.disabled():
        _finish(1, "k_1 table 6x6 exact", t0, 10.0)


def test_criterion_02_golden_k2_spot_cells():
    t0 = time.perf_counter()
    for d, c, expected in K2_SPOTS:
        rec = compute_cell(2, d, d + c)
        assert rec.computed_total == expected, (d, c)
        assert rec.status in ("Proven", "ConjectureMatch")
    _finish(2, "k_2 spot cells", t0, 120.0)


def test_criterion_03_golden_k3_spot_cells():
    t0 = time.perf_counter()
    for d, c, expected in K3_SPOTS:
        rec = compute_cell(3, d, d + c)
        assert rec.computed_total == expected, (d, c)
    _finish(3, "k_3 spot cells", t0, 900.0)


def test_criterion_04_collapse_range_zero_action():
    t0 = time.perf_counter()
    for n in range(3):
        for m in range(2 ** (n + 1) + 1):
            for d in range(m + 1):
                grid = Grid(d, m - d)
                a = lenart_qn_matrix(n, grid)
                b = derivation_qn_matrix(n, grid)
                assert is_zero(a) and is_zero(b), (n, d, m)
                assert a == b
    _finish(4, "collapse range: zero differential both ways", t0, 60.0)


def test_criterion_05_cross_basis_oracle():
    t0 = time.perf_counter()
    for n, d, c in ORACLE_RANGE:
        grid = Grid(d, c)
        assert lenart_qn_matrix(n, grid) == derivation_qn_matrix(n, grid), (n, d, c)
    _finish(5, "strip formula == Wu derivation, bit for bit", t0, 300.0)


def test_criterion_06_differential_law():
    t0 = time.perf_counter()
    grids = [(1, d, c) for d in range(1, 7) for c in range(1, 7)]
    grids += [(2, d, c) for d, c, _v in K2_SPOTS]
    grids += [(3, d, c) for d, c, _v in K3_SPOTS]
    grids += ORACLE_RANGE
    for n, d, c in grids:
        assert lenart_qn_matrix(n, Grid(d, c)).compose_is_zero(), (n, d, c)
    for n, d, c in ORACLE_RANGE:
        assert derivation_qn_matrix(n, Grid(d, c)).compose_is_zero(), (n, d, c)
    _finish(6, "differential law on every matrix in criteria 1-5", t0, 300.0)


def test_criterion_07_d2_closed_form():
    t0 = time.perf_counter()
    for n in range(4):
        bound = 2 ** (n + 1)
        for m in range(2, bound + 21):
            rec = compute_cell(n, 2, m)
            if m <= bound:
                expected = comb(m, 2)
            else:
                eps = m % 2
                l = (m - bound + eps) // 2
                expected = comb(bound - eps, 2) + l
            assert rec.computed_total == expected == predicted_k(n, 2, m), (n, m)
            assert rec.status == "Proven"
    _finish(7, "d=2 closed form through the conjectured range", t0, 300.0)


def _even_m_range():
    for n in range(3):
        for d in range(1, 5):
            for m in range(d + 1, 13):
                if m % 2 == 0:
                    yield n, d, m


def test_criterion_08_even_m_duality():
    t0 = time.perf_counter()
    for n, d, m in _even_m_range():
        sub, _quot = ideal_subcomplex(n, Grid(d, m - d))
        cof = qn_homology(sub)
        smaller = qn_homology(lenart_qn_matrix(n, Grid(d - 1, m - d)))
        top = d * (m - d)
        for t in range(top + 1):
            assert cof.dim(t) == smaller.dim(top - t), (n, d, m, t)
    _finish(8, "even-m duality, per degree", t0, 300.0)


def test_criterion_09_top_class_survives():
    t0 = time.perf_counter()
    for n, d, m in _even_m_range():
        prof = qn_homology(lenart_qn_matrix(n, Grid(d, m - d)))
        assert prof.dim(d * (m - d)) == 1, (n, d, m)
    _finish(9, "even-m top class survives", t0, 120.0)


def test_criterion_10_d2_zero_map_and_delta():
    t0 = time.perf_counter()
    for n in range(3):
        for m in range(2 ** (n + 1) + 1, 14):
            if m % 2 == 0:
                continue
            assert ideal_inclusion_induced_zero(n, 2, m), (n, m)
            assert cofiber_homology(n, 2, m)[1] == predicted_delta_rank(n, 2, m), (n, m)
    _finish(10, "d=2 odd-m zero map and delta rank", t0, 300.0)


def test_criterion_11_identity_suites():
    t0 = time.perf_counter()
    d = 2
    w1, w2 = generator(1, d), generator(2, d)

    # recursion and expansion identities for the dual classes
    for k in range(2, 21):
        assert dual_class(k, d) == w1 * dual_class(k - 1, d) + w2 * dual_class(k - 2, d)

    def mono(a, b):
        return Polynomial(2, frozenset({(a, b)}))

    for j in range(7):
        for k in range(11):
            lhs = dual_class(k, d)
            for _ in range(j):
                lhs = lhs * w2
            rhs = zero(d)
            for i in range(j + 1):
                if binom_parity(j, i):
                    rhs = rhs + mono(j - i, 0) * dual_class(k + j + i, d)
            assert lhs == rhs, (j, k)
    for k in range(21):
        rhs = zero(d)
        for j in range(k // 2 + 1):
            if binom_parity(k - j, j):
                rhs = rhs + mono(k - 2 * j, j)
        assert dual_class(k, d) == rhs, k
    for b in range(6):
        assert dual_class(2 ** b - 1, d) == mono(2 ** b - 1, 0)
    for b in range(1, 6):
        rhs = zero(d)
        for c in range(b):
            rhs = rhs + mono(2 ** b - 2 ** (c + 1), 2 ** c - 1)
        assert dual_class(2 ** b - 2, d) == rhs

    # primitives on the generators
    for n in range(4):
        shift = 2 ** (n + 1)
        assert milnor_q(n, w1) == mono(shift, 0) == w1 * dual_class(shift - 1, d)
        expected = zero(d)
        for c in range(n + 1):
            expected = expected + mono(shift - 2 ** (c + 1) + 1, 2 ** c)
        img = milnor_q(n, w2)
        assert img == expected == w1 * w2 * dual_class(shift - 2, d)

    # lifting identities used for the odd-m zero map
    for n in range(3):
        shift = 2 ** (n + 1) - 1
        for l in range(7):
            lhs = milnor_q(n, w1 * dual_class(2 * l, d))
            assert lhs == w1 * dual_class(shift + 2 * l, d), (n, l)
        for l in range(7):
            m = 2 ** (n + 1) + 1 + 2 * l
            grid = Grid(2, m - 2)
            odd_power = one(d)
            for _ in range(2 * l + 1):
                odd_power = odd_power * w2
            lhs = schubert_support(milnor_q(n, odd_power), grid)
            rhs = schubert_support(mono(2 * l + 2, 0) * dual_class(shift + 2 * l, d), grid)
            assert lhs == rhs, (n, l)

    # exact binomial bookkeeping across all three closed forms
    for n in range(6):
        for dd in range(31):
            for l in range(1, 31):
                assert lemma65_check(n, dd, l)
    _finish(11, "ring and binomial identity suites", t0, 120.0)


def test_criterion_12_lower_bound_everywhere(tmp_path):
    t0 = time.perf_counter()
    for n in range(3):
        for d in range(1, 6):
            for c in range(1, 6):
                rec = compute_cell(n, d, d + c, basis="lenart")
                assert rec.computed_total >= rec.predicted, (n, d, c)
    summary = verify_sweep(
        range(0, 3),
        range(1, 5),
        range(1, 5),
        cache_path=str(tmp_path / "cache.jsonl"),
    )
    assert summary["mismatch"] == 0
    assert summary["lower_bound_violations"] == 0
    _finish(12, "computed totals never undercut the lower bound", t0, 300.0)


def test_criterion_13_even_m_profile_from_two_odd_m_records():
    # The ideal of an even-m cell is the dual of its odd neighbour's Lenart
    # matrix on Grid(d - 1, c): where both odd-m records meet the lower bound,
    # the even-m profile is theirs, the second reflected and raised by c.
    t0 = time.perf_counter()
    records = {}

    def record(n, d, m):
        if (n, d, m) not in records:
            records[n, d, m] = compute_cell(n, d, m)
        return records[n, d, m]

    cells = 0
    for n in range(4):
        for d in range(1, 8):
            for c in range(1, 8):
                m = d + c
                if m % 2:
                    continue
                first, second = record(n, d, m - 1), record(n, d - 1, m - 1)
                assert first.computed_total == first.predicted, (n, d, m - 1)
                assert second.computed_total == second.predicted, (n, d - 1, m - 1)
                assembled = Counter(dict(first.per_degree))
                for t, dim in second.per_degree:
                    assembled[(d - 1) * c - t + c] += dim
                built = record(n, d, m)
                assert Counter(dict(built.per_degree)) == assembled, (n, d, m)
                if d == c:  # the two sources are transposed grids
                    assert built.computed_total == 2 * first.computed_total, (n, d, m)
                cells += 1
    assert cells == 100
    _finish(13, "even-m profiles from their two odd-m sources", t0, 120.0)
