"""Exact big-integer evaluation of the closed-form dimension predictions.

Every value is an arbitrary-precision ``int``; nothing here touches floats,
so the largest table cells (10^8 and beyond) are exact.
"""

from __future__ import annotations

from math import comb


class InvalidCell(ValueError):
    """Raised for parameter combinations that do not name a Grassmannian cell."""


def _binomial_sum(top: int, k: int, l: int) -> int:
    """sum_i C(top, k-2i) C(l, i), the shape of every closed form beyond collapse."""
    return sum(comb(top, k - 2 * i) * comb(l, i) for i in range(k // 2 + 1))


def check_cell(n: int, d: int, m: int, least_d: int = 0) -> None:
    """Raise ``InvalidCell`` unless n >= 0 and least_d <= d <= m."""
    if n < 0 or not least_d <= d <= m:
        raise InvalidCell(f"invalid cell n={n} d={d} m={m}")


def _collapse_or_sum(n: int, d: int, m: int, collapsed: int, top: int, k: int) -> int:
    """``collapsed`` for m < 2^(n+1) - 1, else sum_i C(top-eps, k-2i) C(l, i).

    Here ``m = 2^(n+1) - eps + 2l`` with ``l >= 0``; on the overlap values
    2^(n+1) - 1 and 2^(n+1) of ``m`` both expressions must agree.
    """
    collapse = 2 ** (n + 1)
    if m < collapse - 1:
        return collapsed
    eps = m % 2  # 2^(n+1) is even
    total = _binomial_sum(top - eps, k, (m - collapse + eps) // 2)
    if m <= collapse and total != collapsed:
        raise RuntimeError(f"branch disagreement at n={n} d={d} m={m}")
    return total


def predicted_k(n: int, d: int, m: int) -> int:
    """Predicted total Q_n-homology dimension of Gr_d(R^m).

    C(m, d) for ``m <= 2^(n+1)``, where the differential vanishes; beyond,
    with ``m = 2^(n+1) - eps + 2l``, sum_i C(2^(n+1)-eps, d-2i) C(l, i).
    """
    check_cell(n, d, m)
    return _collapse_or_sum(n, d, m, comb(m, d), 2 ** (n + 1), d)


def predicted_cofiber_k(n: int, d: int, m: int) -> int:
    """Predicted reduced Q_n-homology dimension of the cofiber C_d(R^m).

    C(m-1, d-1) for ``m <= 2^(n+1)``; beyond, with ``m = 2^(n+1) - eps + 2l``,
    sum_i C(2^(n+1)-1-eps, d-1-2i) C(l, i).
    """
    check_cell(n, d, m, least_d=1)
    return _collapse_or_sum(n, d, m, comb(m - 1, d - 1), 2 ** (n + 1) - 1, d - 1)


def predicted_delta_rank(n: int, d: int, m: int) -> int:
    """Predicted rank of the connecting map on Q_n-homology.

    Zero for even ``m`` and throughout the collapse range; for odd
    ``m = 2^(n+1) - 1 + 2l`` with ``l > 0`` it is
    sum_i C(2^(n+1)-2, d-1-2i) C(l-1, i).
    """
    check_cell(n, d, m)
    if m % 2 == 0 or m <= 2 ** (n + 1):
        return 0
    return _binomial_sum(2 ** (n + 1) - 2, d - 1, (m - 2 ** (n + 1) - 1) // 2)
