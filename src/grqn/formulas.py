"""Exact big-integer evaluation of the closed-form dimension predictions.

Every value is an arbitrary-precision ``int``; nothing here touches floats,
so the largest table cells (10^8 and beyond) are exact.
"""

from __future__ import annotations

from collections.abc import Callable
from math import comb as _raw_comb


def _comb(a: int, b: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= b <= a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return _raw_comb(a, b)


class InvalidCell(ValueError):
    """Raised for parameter combinations that do not name a Grassmannian cell."""


def _split_parity(n: int, m: int) -> tuple[int, int]:
    """Write ``m = 2^(n+1) - eps + 2l`` with ``eps`` in {0, 1} and ``l >= 0``.

    Only defined for ``m >= 2^(n+1) - 1``.
    """
    base = 2 ** (n + 1)
    eps = (base - m) % 2
    l2 = m - base + eps
    if l2 < 0 or l2 % 2:
        raise InvalidCell(f"m={m} has no eps/l decomposition for n={n}")
    return eps, l2 // 2


def _binomial_sum(top: int, k: int, l: int) -> int:
    """sum_i C(top, k-2i) C(l, i), the shape of every closed form beyond collapse."""
    return sum(_comb(top, k - 2 * i) * _comb(l, i) for i in range(k // 2 + 1))


def _grassmannian_sum(n: int, d: int, m: int) -> int:
    """The conjectured total for Gr_d(R^m): sum_i C(2^(n+1)-eps, d-2i) C(l, i)."""
    eps, l = _split_parity(n, m)
    return _binomial_sum(2 ** (n + 1) - eps, d, l)


def _cofiber_sum(n: int, d: int, m: int) -> int:
    """The conjectured reduced total for the inclusion cofiber of Gr_d(R^m)."""
    eps, l = _split_parity(n, m)
    return _binomial_sum(2 ** (n + 1) - 1 - eps, d - 1, l)


def check_cell(n: int, d: int, m: int, least_d: int = 0) -> None:
    """Raise ``InvalidCell`` unless n >= 0 and least_d <= d <= m."""
    if n < 0 or not least_d <= d <= m:
        raise InvalidCell(f"invalid cell n={n} d={d} m={m}")


def _collapse_or_sum(
    n: int, d: int, m: int, collapsed: int, binomial_sum: Callable[[int, int, int], int]
) -> int:
    """``collapsed`` in the collapse range, ``binomial_sum(n, d, m)`` beyond it.

    The sum needs ``m >= 2^(n+1) - 1``; on the two overlap values of ``m`` up
    to ``2^(n+1)`` both expressions are evaluated and must agree.
    """
    collapse = 2 ** (n + 1)
    if m < collapse - 1:
        return collapsed
    total = binomial_sum(n, d, m)
    if m <= collapse and total != collapsed:
        raise RuntimeError(f"branch disagreement at n={n} d={d} m={m}")
    return total


def predicted_k(n: int, d: int, m: int) -> int:
    """Predicted total Q_n-homology dimension of Gr_d(R^m).

    For ``m <= 2^(n+1)`` the differential vanishes and the answer is C(m, d);
    beyond that range the binomial sum applies.
    """
    check_cell(n, d, m)
    return _collapse_or_sum(n, d, m, _comb(m, d), _grassmannian_sum)


def predicted_cofiber_k(n: int, d: int, m: int) -> int:
    """Predicted reduced Q_n-homology dimension of the cofiber C_d(R^m)."""
    check_cell(n, d, m, least_d=1)
    return _collapse_or_sum(n, d, m, _comb(m - 1, d - 1), _cofiber_sum)


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
