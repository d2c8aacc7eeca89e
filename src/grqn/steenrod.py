"""The free mod-2 ring on Stiefel-Whitney classes and its Steenrod action.

A polynomial is a set of monomials (coefficient-1 representation over F_2);
a monomial is a length-d exponent tuple for w_1..w_d, with |w_i| = i.
Steenrod squares act on generators through the Wu formula and extend by the
Cartan formula; the Milnor primitives are built from the commutator
recursion and extended to monomials as derivations.

All operations are pure.  The generator-level memo tables are filled with
deterministic values, so concurrent readers always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import binom_parity

Monomial = tuple[int, ...]


class AmbientMismatch(ValueError):
    """Raised when combining polynomials over different generator counts."""


@dataclass(frozen=True)
class Polynomial:
    """F_2 sum of monomials in w_1..w_d."""

    d: int
    terms: frozenset[Monomial]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.d != other.d:
            raise AmbientMismatch(f"ambient d mismatch: {self.d} vs {other.d}")
        return Polynomial(self.d, self.terms ^ other.terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return multiply(self, other)

    def __bool__(self) -> bool:
        return bool(self.terms)


def monomial_degree(r: Monomial) -> int:
    return sum((i + 1) * e for i, e in enumerate(r))


def zero(d: int) -> Polynomial:
    return Polynomial(d, frozenset())


def one(d: int) -> Polynomial:
    return Polynomial(d, frozenset({(0,) * d}))


def generator(j: int, d: int) -> Polynomial:
    """The class w_j, or zero when j exceeds the ambient rank."""
    if j == 0:
        return one(d)
    if j > d:
        return zero(d)
    r = [0] * d
    r[j - 1] = 1
    return Polynomial(d, frozenset({tuple(r)}))


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.d != q.d:
        raise AmbientMismatch(f"ambient d mismatch: {p.d} vs {q.d}")
    acc: set[Monomial] = set()
    for a in p.terms:
        for b in q.terms:
            acc ^= {tuple(x + y for x, y in zip(a, b))}
    return Polynomial(p.d, frozenset(acc))


# Memo tables, keyed by ambient rank.  Values are deterministic, so a racing
# duplicate insert is harmless.
_SQ_GEN: dict[tuple[int, int, int], Polynomial] = {}
_SQ_POWER: dict[tuple[int, int, int, int], Polynomial] = {}
_Q_GEN: dict[tuple[int, int, int], Polynomial] = {}
_DUAL: dict[tuple[int, int], Polynomial] = {}
_S_CLASS: dict[tuple[int, int], Polynomial] = {}


def _sq_gen(i: int, j: int, d: int) -> Polynomial:
    """Wu formula: Sq^i(w_j) = sum_t C(j-i+t-1, t) w_{i-t} w_{j+t}."""
    if i == 0:
        return generator(j, d)
    if i > j:
        return zero(d)
    key = (d, i, j)
    cached = _SQ_GEN.get(key)
    if cached is not None:
        return cached
    acc = zero(d)
    for t in range(i + 1):
        if t and not binom_parity(j - i + t - 1, t):
            continue
        term = generator(i - t, d) * generator(j + t, d)
        acc = acc + term
    _SQ_GEN[key] = acc
    return acc


def _sq_power(i: int, j: int, e: int, d: int) -> Polynomial:
    """Sq^i(w_j^e), using the Frobenius shortcut on even exponents."""
    if e == 0:
        return one(d) if i == 0 else zero(d)
    if i == 0:
        r = [0] * d
        if j <= d:
            r[j - 1] = e
            return Polynomial(d, frozenset({tuple(r)}))
        return zero(d)
    if i > e * j:
        return zero(d)
    key = (d, i, j, e)
    cached = _SQ_POWER.get(key)
    if cached is not None:
        return cached
    if e % 2 == 0:
        acc = _frobenius(_sq_power(i // 2, j, e // 2, d)) if i % 2 == 0 else zero(d)
    else:
        acc = zero(d)
        for a in range(min(i, j) + 1):
            lhs = _sq_gen(a, j, d)
            if not lhs:
                continue
            rhs = _sq_power(i - a, j, e - 1, d)
            if rhs:
                acc = acc + lhs * rhs
    _SQ_POWER[key] = acc
    return acc


def _frobenius(p: Polynomial) -> Polynomial:
    """Squaring is exponent doubling in characteristic 2."""
    return Polynomial(p.d, frozenset(tuple(2 * e for e in r) for r in p.terms))


def _sq_monomial(i: int, r: Monomial, d: int) -> Polynomial:
    """Cartan formula across the generator factors of one monomial."""
    parts = [(j + 1, e) for j, e in enumerate(r) if e]
    states: dict[int, Polynomial] = {0: one(d)}
    for j, e in parts:
        nxt: dict[int, Polynomial] = {}
        cap = e * j
        for used, poly in states.items():
            for b in range(min(i - used, cap) + 1):
                piece = _sq_power(b, j, e, d)
                if not piece:
                    continue
                prod = poly * piece
                key = used + b
                nxt[key] = nxt[key] + prod if key in nxt else prod
        states = nxt
    return states.get(i, zero(d))


def sq(i: int, p: Polynomial) -> Polynomial:
    """Steenrod square Sq^i, raising degree by i."""
    if i < 0:
        raise ValueError(f"square index must be nonnegative, got {i}")
    if i == 0:
        return p
    acc = zero(p.d)
    for r in p.terms:
        acc = acc + _sq_monomial(i, r, p.d)
    return acc


def _q_gen(n: int, j: int, d: int) -> Polynomial:
    """Milnor primitive on a generator: Q_0 = Sq^1, Q_n = [Q_{n-1}, Sq^{2^n}]."""
    if j > d or j == 0:
        return zero(d)
    key = (d, n, j)
    cached = _Q_GEN.get(key)
    if cached is not None:
        return cached
    if n == 0:
        acc = _sq_gen(1, j, d)
    else:
        prev = _q_gen(n - 1, j, d)
        acc = sq(2 ** n, prev) + milnor_q(n - 1, _sq_gen(2 ** n, j, d))
    _Q_GEN[key] = acc
    return acc


def milnor_q(n: int, p: Polynomial) -> Polynomial:
    """Milnor primitive Q_n, a derivation raising degree by 2^(n+1) - 1."""
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    d = p.d
    acc: set[Monomial] = set()
    for r in p.terms:
        for j in range(1, d + 1):
            if r[j - 1] % 2 == 0:
                continue
            rest = list(r)
            rest[j - 1] -= 1
            for u in _q_gen(n, j, d).terms:
                acc ^= {tuple(x + y for x, y in zip(rest, u))}
    return Polynomial(d, frozenset(acc))


def dual_class(k: int, d: int) -> Polynomial:
    """The complementary-bundle class: degree-k piece of (1 + w_1 + .. + w_d)^-1."""
    if k < 0:
        raise ValueError(f"dual class index must be nonnegative, got {k}")
    if k == 0:
        return one(d)
    key = (d, k)
    cached = _DUAL.get(key)
    if cached is not None:
        return cached
    acc = zero(d)
    for i in range(1, min(d, k) + 1):
        acc = acc + generator(i, d) * dual_class(k - i, d)
    _DUAL[key] = acc
    return acc


def s_class(k: int, d: int) -> Polynomial:
    """Mod-2 power sum p_k in the Chern-root analogues, via Newton's identity.

    p_k = sum_{i<k} w_i p_{k-i} + (k mod 2) w_k, additive under Whitney sum.
    """
    if k <= 0:
        raise ValueError(f"s-class index must be positive, got {k}")
    key = (d, k)
    cached = _S_CLASS.get(key)
    if cached is not None:
        return cached
    acc = zero(d)
    for i in range(1, min(d, k - 1) + 1):
        acc = acc + generator(i, d) * s_class(k - i, d)
    if k % 2:
        acc = acc + generator(k, d)
    _S_CLASS[key] = acc
    return acc

