"""The truncated cohomology ring of a finite Grassmannian in the Schubert basis.

Two independent constructions of the degree-raising primitive are provided:
the border-strip coefficient formula applied directly to Schubert classes,
and the Wu/commutator derivation computed in Stiefel-Whitney monomials and
conjugated into the Schubert basis.  Their bit-for-bit agreement is the
project's main cross-check.

Per-grid state (basis tables, multiplication blocks, conversion caches) is
kept in a small LRU of immutable-once-built contexts; all cached values are
deterministic, so concurrent use cannot produce divergent results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from . import steenrod
from .homology import GradedMap
from .steenrod import Monomial, Polynomial
from .young import Partition, lenart_strips, partitions_in_grid


@dataclass(frozen=True)
class Grid:
    """A d x c Young-diagram frame for Gr_d(R^m) with c = m - d."""

    d: int
    c: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.c < 0:
            raise ValueError(f"grid sides must be nonnegative: {self.d}x{self.c}")

    @property
    def m(self) -> int:
        return self.d + self.c

    @property
    def top_degree(self) -> int:
        return self.d * self.c


class _GridContext:
    """Basis tables and bit-packed multiplication data for one grid."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.basis: dict[int, list[Partition]] = {}
        self.index: dict[int, dict[Partition, int]] = {}
        for lam in partitions_in_grid(grid.d, grid.c):
            t = sum(lam)
            self.basis.setdefault(t, []).append(lam)
        for t, lams in self.basis.items():
            self.index[t] = {lam: i for i, lam in enumerate(lams)}
        self._pieri: dict[tuple[int, int], tuple[int, ...]] = {}
        self._convert: dict[Monomial, int] = {(0,) * grid.d: 1}
        self._monomials: dict[int, list[Monomial]] = {}

    def pieri_block(self, j: int, t: int) -> tuple[int, ...]:
        """Columns of multiplication by w_j from degree t to degree t + j."""
        key = (j, t)
        cached = self._pieri.get(key)
        if cached is not None:
            return cached
        target = self.index.get(t + j, {})
        cols = []
        for lam in self.basis.get(t, []):
            mask = 0
            for mu in _vertical_strips(lam, j, self.grid.d, self.grid.c):
                mask |= 1 << target[mu]
            cols.append(mask)
        block = tuple(cols)
        self._pieri[key] = block
        return block

    def convert(self, r: Monomial) -> int:
        """Bitmask of the Schubert expansion of the monomial w^r.

        Zero when the image dies in the quotient.  Computed by peeling one
        generator at a time so common prefixes are shared.
        """
        cached = self._convert.get(r)
        if cached is not None:
            return cached
        t = steenrod.monomial_degree(r)
        if t > self.grid.top_degree:
            self._convert[r] = 0
            return 0
        j = max(i + 1 for i, e in enumerate(r) if e)
        prefix = list(r)
        prefix[j - 1] -= 1
        mask = self.convert(tuple(prefix))
        block = self.pieri_block(j, t - j)
        out = 0
        while mask:
            low = mask & -mask
            out ^= block[low.bit_length() - 1]
            mask ^= low
        self._convert[r] = out
        return out

    def monomials(self, t: int) -> list[Monomial]:
        """Degree-t monomial basis: exponent tuples with at most c factors."""
        cached = self._monomials.get(t)
        if cached is not None:
            return cached
        d, c = self.grid.d, self.grid.c
        out: list[Monomial] = []
        r = [0] * d

        def rec(j: int, deg: int, factors: int) -> None:
            if j == 0:
                if deg == 0:
                    out.append(tuple(r))
                return
            cap = min(deg // j, c - factors)
            for e in range(cap, -1, -1):
                r[j - 1] = e
                rec(j - 1, deg - e * j, factors + e)
            r[j - 1] = 0

        if d == 0:
            if t == 0:
                out.append(())
        else:
            rec(d, t, 0)
        self._monomials[t] = out
        return out


_CONTEXTS: OrderedDict[Grid, _GridContext] = OrderedDict()
_CONTEXT_CAP = 16


def _context(grid: Grid) -> _GridContext:
    ctx = _CONTEXTS.get(grid)
    if ctx is None:
        ctx = _GridContext(grid)
        _CONTEXTS[grid] = ctx
        while len(_CONTEXTS) > _CONTEXT_CAP:
            _CONTEXTS.popitem(last=False)
    else:
        _CONTEXTS.move_to_end(grid)
    return ctx


def schubert_basis(grid: Grid) -> dict[int, list[Partition]]:
    """Grid partitions grouped by degree, in the canonical basis order."""
    return _context(grid).basis


def _vertical_strips(lam: Partition, j: int, d: int, c: int) -> list[Partition]:
    """Partitions obtained from lam by adding j boxes, at most one per row."""
    base = list(lam) + [0] * (d - len(lam))
    out: list[Partition] = []
    mu = [0] * d

    def rec(i: int, rem: int) -> None:
        if rem > d - i:
            return
        if i == d:
            k = d
            while k and mu[k - 1] == 0:
                k -= 1
            out.append(tuple(mu[:k]))
            return
        hi = c if i == 0 else mu[i - 1]
        mu[i] = base[i]
        if base[i] + 1 <= hi and rem:
            mu[i] = base[i] + 1
            rec(i + 1, rem - 1)
            mu[i] = base[i]
        rec(i + 1, rem)

    if d:
        rec(0, j)
    return out


def lenart_qn_matrix(n: int, grid: Grid) -> GradedMap:
    """The primitive's matrix from the border-strip coefficient formula."""
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    shift = 2 ** (n + 1) - 1
    d, c = grid.d, grid.c
    ctx = _context(grid)
    spaces = {t: len(lams) for t, lams in ctx.basis.items()}
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(grid.top_degree - shift + 1):
        target = ctx.index[t + shift]
        blocks[t] = tuple(
            sum(1 << target[mu] for mu in lenart_strips(lam, shift, d, c))
            for lam in ctx.basis[t]
        )
    return GradedMap(shift, spaces, blocks)


def _invert_columns(cols: list[int], size: int) -> list[int]:
    """Columns of the inverse of a square bit matrix given by columns."""
    rows = []
    for i in range(size):
        row = 0
        for j, col in enumerate(cols):
            if col >> i & 1:
                row |= 1 << j
        rows.append(row | 1 << (size + i))
    r = 0
    for col in range(size):
        sel = None
        for i in range(r, size):
            if rows[i] >> col & 1:
                sel = i
                break
        if sel is None:
            raise RuntimeError("bit matrix is singular; basis change failed")
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(size):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        r += 1
    inv_cols = [0] * size
    for i in range(size):
        hi = rows[i] >> size
        while hi:
            low = hi & -hi
            inv_cols[low.bit_length() - 1] |= 1 << i
            hi ^= low
    return inv_cols


def free_operator_matrix(
    grid: Grid, shift: int, image: Callable[[Monomial], Polynomial]
) -> GradedMap:
    """Matrix of a free-ring operator pushed to the Schubert basis.

    ``image`` maps a basis monomial to its (degree-homogeneous, degree
    raised by ``shift``) value in the free ring; the result is conjugated
    through the monomial-to-Schubert basis change degree by degree.
    """
    ctx = _context(grid)
    spaces = {t: len(lams) for t, lams in ctx.basis.items()}
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(grid.top_degree - shift + 1):
        monos = ctx.monomials(t)
        dim = len(ctx.basis[t])
        if len(monos) != dim:
            raise RuntimeError(f"monomial/Schubert basis size mismatch at degree {t}")
        b_cols = [ctx.convert(r) for r in monos]
        c_cols = []
        for r in monos:
            out = 0
            for u in image(r).terms:
                out ^= ctx.convert(u)
            c_cols.append(out)
        inv = _invert_columns(b_cols, dim)
        cols = []
        for s in range(dim):
            x = inv[s]
            col = 0
            while x:
                low = x & -x
                col ^= c_cols[low.bit_length() - 1]
                x ^= low
            cols.append(col)
        blocks[t] = tuple(cols)
    return GradedMap(shift, spaces, blocks)


def derivation_qn_matrix(n: int, grid: Grid) -> GradedMap:
    """The primitive's matrix from the Wu-formula derivation route."""
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    shift = 2 ** (n + 1) - 1

    def image(r: Monomial) -> Polynomial:
        return steenrod.milnor_q(n, Polynomial(grid.d, frozenset({r})))

    return free_operator_matrix(grid, shift, image)
