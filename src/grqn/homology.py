"""Graded F_2 linear algebra for degree-shifting differentials.

Matrices are stored per cohomological degree as tuples of column bitmasks
packed into Python ints, so elimination works a full row of bits at a time.
Degree blocks never get assembled into one big matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .schubert import Grid


class NotADifferential(ValueError):
    """Raised when a map fed to homology fails M o M = 0."""


class GridTooSmall(ValueError):
    """Raised when a cofiber construction needs codimension at least 1."""


class ParityViolation(RuntimeError):
    """Exactness bookkeeping produced an odd defect; indicates a bug."""


def _rank_bits(cols: Iterable[int]) -> int:
    """Rank of a set of bit-packed vectors over F_2."""
    pivots: dict[int, int] = {}
    r = 0
    for v in cols:
        while v:
            b = v.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = v
                r += 1
                break
            v ^= p
    return r


def _echelon(cols: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span, keyed by leading bit."""
    pivots: dict[int, int] = {}
    for v in cols:
        while v:
            b = v.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = v
                break
            v ^= p
    return pivots


def _in_span(v: int, pivots: dict[int, int]) -> bool:
    while v:
        p = pivots.get(v.bit_length() - 1)
        if p is None:
            return False
        v ^= p
    return True


def _kernel_basis(cols: Sequence[int]) -> list[int]:
    """Masks over column indices spanning the kernel."""
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, v in enumerate(cols):
        combo = 1 << j
        while v:
            b = v.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = (v, combo)
                break
            v ^= p[0]
            combo ^= p[1]
        else:
            kernel.append(combo)
    return kernel


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over F_2 of a dense 0/1 matrix given as rows."""
    packed = []
    for row in matrix:
        bits = 0
        for j, entry in enumerate(row):
            if entry & 1:
                bits |= 1 << j
        packed.append(bits)
    return _rank_bits(packed)


@dataclass
class GradedMap:
    """A degree-raising square-zero map, one F_2 block per degree.

    ``spaces`` records positive per-degree dimensions; ``blocks[t]`` holds
    one column bitmask per degree-t basis vector, bits indexing the basis in
    degree ``t + shift``.  Blocks exist exactly where both sides have
    positive dimension, so equal maps compare equal structurally.
    """

    shift: int
    spaces: dict[int, int] = field(default_factory=dict)
    blocks: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.spaces = {t: n for t, n in sorted(self.spaces.items()) if n > 0}
        normalized: dict[int, tuple[int, ...]] = {}
        for t, n in self.spaces.items():
            if self.spaces.get(t + self.shift, 0) > 0:
                cols = tuple(self.blocks.get(t, ())) or (0,) * n
                if len(cols) != n:
                    raise ValueError(f"block at degree {t} has {len(cols)} columns, expected {n}")
                normalized[t] = cols
        self.blocks = normalized

    def block(self, t: int) -> tuple[int, ...]:
        return self.blocks.get(t, ())

    def is_zero(self) -> bool:
        return all(not any(cols) for cols in self.blocks.values())

    def compose_is_zero(self) -> bool:
        """Check the differential law: the block at t+shift kills every image."""
        for t, cols in self.blocks.items():
            nxt = self.blocks.get(t + self.shift)
            if not nxt:
                continue
            for col in cols:
                out = 0
                while col:
                    low = col & -col
                    out ^= nxt[low.bit_length() - 1]
                    col ^= low
                if out:
                    return False
        return True

    def restrict(self, selection: dict[int, list[int]]) -> "GradedMap":
        """Induced map on the sub-basis picked out per degree by ``selection``.

        Both domain and codomain are cut down; bits outside the selection are
        dropped, which is the quotient map when the selection is not
        invariant.
        """
        spaces = {t: len(idx) for t, idx in selection.items() if idx}
        blocks: dict[int, tuple[int, ...]] = {}
        for t, idx in selection.items():
            rows = selection.get(t + self.shift)
            if not idx or not rows:
                continue
            old = self.blocks.get(t)
            if old is None:
                continue
            cols = []
            for j in idx:
                mask = old[j]
                out = 0
                for k, r in enumerate(rows):
                    if mask >> r & 1:
                        out |= 1 << k
                cols.append(out)
            blocks[t] = tuple(cols)
        return GradedMap(self.shift, spaces, blocks)


@dataclass
class HomologyProfile:
    """Per-degree homology dimensions; zero degrees are omitted."""

    per_degree: dict[int, int]
    total: int

    def dim(self, t: int) -> int:
        return self.per_degree.get(t, 0)

    def shifted(self, k: int) -> "HomologyProfile":
        return HomologyProfile({t + k: v for t, v in self.per_degree.items()}, self.total)


def qn_homology(gm: GradedMap) -> HomologyProfile:
    """Homology dimensions of a square-zero graded map.

    Per degree: dim - rank(outgoing) - rank(incoming).
    """
    if not gm.compose_is_zero():
        raise NotADifferential("composite of consecutive blocks is nonzero")
    ranks = {t: _rank_bits(cols) for t, cols in gm.blocks.items()}
    per_degree: dict[int, int] = {}
    total = 0
    for t, n in gm.spaces.items():
        h = n - ranks.get(t, 0) - ranks.get(t - gm.shift, 0)
        if h < 0:
            raise NotADifferential(f"negative homology dimension at degree {t}")
        if h:
            per_degree[t] = h
        total += h
    return HomologyProfile(per_degree, total)


def _ideal_selection(d: int, c: int) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Per-degree positions of the top-column ideal basis and its complement."""
    from .schubert import Grid, schubert_basis

    basis = schubert_basis(Grid(d, c))
    sub: dict[int, list[int]] = {}
    quot: dict[int, list[int]] = {}
    for t, lams in basis.items():
        sub[t] = [i for i, lam in enumerate(lams) if lam and lam[0] == c]
        quot[t] = [i for i, lam in enumerate(lams) if not lam or lam[0] < c]
    return sub, quot


def _split_ideal(full: GradedMap, grid: "Grid") -> tuple[GradedMap, GradedMap]:
    """Restrict the whole complex to the top-column ideal and to its quotient."""
    sel_sub, sel_quot = _ideal_selection(grid.d, grid.c)
    return full.restrict(sel_sub), full.restrict(sel_quot)


def ideal_subcomplex(n: int, grid: "Grid") -> tuple[GradedMap, GradedMap]:
    """Split the Grassmannian complex along the kernel of the restriction map.

    The span of Schubert classes with a full first row is a differential
    ideal computing the reduced cohomology of the inclusion cofiber; the
    complementary span carries the complex of the one-step-smaller
    Grassmannian.
    """
    from .schubert import lenart_qn_matrix

    if grid.c < 1:
        raise GridTooSmall(f"cofiber needs codimension >= 1, got {grid}")
    return _split_ideal(lenart_qn_matrix(n, grid), grid)


def twisted_complex(n: int, d: int, m: int) -> GradedMap:
    """The cofiber complex modeled on the smaller Grassmannian's cohomology.

    On x in H^*(Gr_{d-1}(R^{m-1})) the differential is Q_n(x) + x * a where
    a is the degree-(2^(n+1)-1) additive characteristic class of the
    canonical (d-1)-plane bundle.
    """
    from . import steenrod
    from .schubert import Grid, free_operator_matrix

    if d < 1 or m < d + 1:
        raise GridTooSmall(f"twisted complex needs d >= 1 and m > d, got d={d} m={m}")
    shift = 2 ** (n + 1) - 1
    dd = d - 1
    alpha = steenrod.s_class(shift, dd) if dd >= 1 else steenrod.zero(0)

    def image(r: tuple[int, ...]):
        poly = steenrod.milnor_q(n, steenrod.Polynomial(dd, frozenset({r})))
        twist = frozenset(tuple(x + y for x, y in zip(r, u)) for u in alpha.terms)
        return steenrod.Polynomial(dd, poly.terms ^ twist)

    return free_operator_matrix(Grid(dd, m - d), shift, image)


def cofiber_homology(n: int, d: int, m: int) -> tuple[HomologyProfile, int]:
    """Reduced cofiber homology and the rank of the connecting map.

    Builds the whole complex once and restricts it to the ideal and the
    quotient.  The rank is recovered from exactness: twice the rank is the
    homology excess of the two pieces over the whole.
    """
    from .schubert import Grid, lenart_qn_matrix

    c = m - d
    if c < 1:
        raise GridTooSmall(f"cofiber needs m - d >= 1, got d={d} m={m}")
    grid = Grid(d, c)
    full = lenart_qn_matrix(n, grid)
    sub, quot = _split_ideal(full, grid)
    sub_profile = qn_homology(sub)
    excess = sub_profile.total + qn_homology(quot).total - qn_homology(full).total
    if excess < 0 or excess % 2:
        raise ParityViolation(f"exactness defect {excess} at n={n} d={d} m={m}")
    return sub_profile, excess // 2


def connecting_rank(n: int, d: int, m: int) -> int:
    """Rank of the connecting map in the cofiber long exact sequence."""
    return cofiber_homology(n, d, m)[1]


def ideal_inclusion_induced_zero(n: int, d: int, m: int) -> bool:
    """Whether the ideal's homology maps to zero in the whole complex.

    Checks on explicit representatives: every cocycle of the ideal
    subcomplex must be a coboundary of the full complex.
    """
    from .schubert import Grid, lenart_qn_matrix

    c = m - d
    if c < 1:
        raise GridTooSmall(f"cofiber needs m - d >= 1, got d={d} m={m}")
    full = lenart_qn_matrix(n, Grid(d, c))
    sel_sub, _ = _ideal_selection(d, c)
    sub = full.restrict(sel_sub)
    positions = {t: idx for t, idx in sel_sub.items() if idx}
    for t, dim in sub.spaces.items():
        block = sub.blocks.get(t)
        cocycles = _kernel_basis(block) if block else [1 << j for j in range(dim)]
        if not cocycles:
            continue
        boundaries = _echelon(full.block(t - full.shift))
        for z in cocycles:
            embedded = 0
            for j in range(dim):
                if z >> j & 1:
                    embedded |= 1 << positions[t][j]
            if not _in_span(embedded, boundaries):
                return False
    return True
