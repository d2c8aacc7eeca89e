"""Power sums and Milnor primitives of Stiefel-Whitney classes, on packed monomials.

A monomial w_1^(r_1)..w_d^(r_d) is an int with r_j in slot j - 1 of a
``slot``-bit field, as ``schubert`` packs them, and an F_2 polynomial is the
set of its monomials: multiplying by w_i adds w_i's packed unit, and a sum
is a symmetric difference.  Every result below stays within the degree the
caller asks for, so no exponent outgrows its slot.

Q_n is a derivation with Q_n(x) = x^(2^(n+1)) on degree-1 classes (Milnor,
"The Steenrod algebra and its dual", Ann. of Math. 67, 1958).  By the
splitting principle Q_n(w_j) is the sum of x^(2^(n+1)) e_(j-1) over the
roots x, with e_(j-1) taken in the other roots, which is
sum_(k<j) w_(j-1-k) s_(2^(n+1)+k) mod 2.
"""

from __future__ import annotations


def _units(d: int, slot: int) -> list[int]:
    """Packed w_0 = 1, w_1, .., w_d."""
    return [0] + [1 << slot * i for i in range(d)]


def power_sums(d: int, slot: int, top: int) -> list[set[int]]:
    """The power sums s_0..s_top of the roots; s_0 is left empty.

    Newton's identity mod 2: s_k = sum_(i<k) w_i s_(k-i) + (k mod 2) w_k.
    """
    unit = _units(d, slot)
    sums: list[set[int]] = [set()]
    for k in range(1, top + 1):
        acc = {unit[k]} if k % 2 and k <= d else set()
        for i in range(1, min(d, k - 1) + 1):
            acc ^= {u + unit[i] for u in sums[k - i]}
        sums.append(acc)
    return sums


def milnor_q_generators(n: int, d: int, slot: int, count: int) -> list[set[int]]:
    """Q_n(w_1), .., Q_n(w_count) for count <= d, each of degree j + 2^(n+1) - 1."""
    if count < 1:
        return []
    unit, base = _units(d, slot), 2 ** (n + 1)
    sums = power_sums(d, slot, base + count - 1)
    images = []
    for j in range(1, count + 1):
        acc: set[int] = set()
        for k in range(j):
            acc ^= {u + unit[j - 1 - k] for u in sums[base + k]}
        images.append(acc)
    return images
