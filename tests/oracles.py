"""Reference implementations that tests compare the library against.

The strip rule here is the generate-and-filter form: every grid partition
above lam at the right distance, each tested span by span.  The library's
``lenart_strips`` walks the odd-coefficient strips directly instead.  The
skew-shape layer, the dense rank, the kernel and inverse of bit matrices
and the total square serve only as oracles and test helpers; the library
itself works on bit-packed vectors and on bead words, and
``word``/``partition`` translate between a bead word and the partition
tuple the oracles use.

The tuple Stiefel-Whitney ring with its Wu-formula squares and
commutator-recursion primitives is the reference for the library's
power-sum closed forms on packed monomials; ``pack`` translates a tuple
monomial into the library's packed int.  The closed-form identities and the
cofiber's induced-map check below have no caller in the CLI.

The per-term Wu route converts every term w^(r - e_j) * v of every image
on its own and pushes the result through each degree's basis change by a
general inverse, and ``vertical_strips`` lists the strips of one size; the
library converts each generator image once, solves its unitriangular
basis change by substitution, and walks the strips of all sizes at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from grqn import schubert, steenrod
from grqn.cofiber import _ideal_cut, check_codimension
from grqn.formulas import InvalidCell, _binomial_sum, _cofiber_sum, _comb, _grassmannian_sum
from grqn.homology import GradedMap, _echelon, column_product
from grqn.schubert import Grid, _context
from grqn.young import bits, partitions_in_grid

Partition = tuple[int, ...]
Cell = tuple[int, int]

SHARP = "sharp"
DULL = "dull"


class NotContained(ValueError):
    """Raised when the inner shape of a skew pair sticks out of the outer one."""


class InvalidStrip(ValueError):
    """Raised when corner extraction is asked of a shape with a 2x2 block."""


# --- bead words and partitions ------------------------------------------------


def word(lam: Partition, d: int) -> int:
    """The bead word of lam in a grid of d rows: row i's bead at bit lam_i + d - 1 - i."""
    padded = tuple(lam) + (0,) * (d - len(lam))
    return sum(1 << padded[i] + d - 1 - i for i in range(d))


def partition(w: int, d: int) -> Partition:
    """The partition whose bead word in a grid of d rows is w."""
    beads = [p for p in range(w.bit_length() - 1, -1, -1) if w >> p & 1]
    assert len(beads) == d, (w, d)
    return tuple(p - (d - 1 - i) for i, p in enumerate(beads) if p > d - 1 - i)


def conjugate(w: int, m: int) -> int:
    """The bead word of the conjugate partition: the m bits reversed and complemented."""
    return sum(1 << m - 1 - p for p in range(m) if not w >> p & 1)


def grid_partitions(d: int, c: int) -> list[Partition]:
    """The grid's partitions as tuples, in the library's basis order."""
    return [partition(w, d) for words in partitions_in_grid(d, c).values() for w in words]


# --- partitions and skew shapes ----------------------------------------------


def check_partition(parts: tuple[int, ...]) -> Partition:
    """Validate weak decrease and positivity; returns the tuple unchanged."""
    for i, p in enumerate(parts):
        if p <= 0:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and p > parts[i - 1]:
            raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def transpose(lam: Partition) -> Partition:
    """The conjugate partition: column lengths become row lengths."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def _extensions(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """All grid partitions containing lam with exactly k extra boxes.

    Emitted in lexicographically descending order, which makes the
    concatenation over k the canonical graded basis order.
    """
    base = list(lam) + [0] * (d - len(lam))
    out: list[Partition] = []
    row = [0] * d

    def rec(i: int, rem: int, prev: int) -> None:
        if i == d:
            if rem == 0:
                j = d
                while j and row[j - 1] == 0:
                    j -= 1
                out.append(tuple(row[:j]))
            return
        lo = base[i]
        hi = min(prev, lo + rem)
        for v in range(hi, lo - 1, -1):
            row[i] = v
            rec(i + 1, rem - (v - lo), v)
        row[i] = 0

    if d == 0:
        return [()] if k == 0 else []
    rec(0, k, c)
    return out


@dataclass(frozen=True)
class SkewShape:
    """The cells of ``outer`` not in ``inner``."""

    inner: Partition
    outer: Partition

    @cached_property
    def cells(self) -> frozenset[Cell]:
        out = set()
        for i, hi in enumerate(self.outer, start=1):
            lo = self.inner[i - 1] if i <= len(self.inner) else 0
            out.update((i, j) for j in range(lo + 1, hi + 1))
        return frozenset(out)

    @cached_property
    def row_spans(self) -> tuple[tuple[int, int, int], ...]:
        """Nonempty rows as ``(row, lo, hi)`` with cells in columns lo+1..hi."""
        spans = []
        for i, hi in enumerate(self.outer, start=1):
            lo = self.inner[i - 1] if i <= len(self.inner) else 0
            if hi > lo:
                spans.append((i, lo, hi))
        return tuple(spans)


@dataclass(frozen=True)
class StripClass:
    """Border-strip classification; ``components`` is None on a 2x2 block."""

    components: int | None

    @property
    def is_broken_border_strip(self) -> bool:
        return self.components is not None


NOT_BROKEN_BORDER_STRIP = StripClass(None)


def skew(outer: Partition, inner: Partition) -> SkewShape:
    check_partition(outer)
    check_partition(inner)
    if not contains(outer, inner):
        raise NotContained(f"{inner} is not contained in {outer}")
    return SkewShape(inner, outer)


def content(b: Cell) -> int:
    """Column minus row."""
    return b[1] - b[0]


def classify_strip(s: SkewShape) -> StripClass:
    """No-2x2-block test plus a count of edge-connected components.

    Rows of a skew shape are contiguous intervals, so both questions reduce
    to the overlap of consecutive row spans.
    """
    spans = s.row_spans
    if not spans:
        return StripClass(0)
    comps = 1
    for (i1, lo1, _hi1), (i2, _lo2, hi2) in zip(spans, spans[1:]):
        if i2 != i1 + 1:
            comps += 1
            continue
        overlap = hi2 - lo1
        if overlap >= 2:
            return NOT_BROKEN_BORDER_STRIP
        if overlap <= 0:
            comps += 1
    return StripClass(comps)


def corners(s: SkewShape) -> list[tuple[Cell, str]]:
    """Sharp and dull corners of a broken border strip, sorted by position.

    Sharp: no north, west or northwest neighbour.  Dull: north and west
    neighbours but no northwest one.
    """
    if not classify_strip(s).is_broken_border_strip:
        raise InvalidStrip("corners are only defined for broken border strips")
    spans = s.row_spans
    found: list[tuple[Cell, str]] = []
    for idx, (i, lo, hi) in enumerate(spans):
        above = spans[idx - 1] if idx and spans[idx - 1][0] == i - 1 else None
        if above is None or above[1] != lo:
            found.append(((i, lo + 1), SHARP))
        if above is not None and above[1] >= lo + 1 and above[1] + 1 <= hi:
            found.append(((i, above[1] + 1), DULL))
    found.sort()
    return found


# --- the strip rule ------------------------------------------------------------


def covers_at_distance(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """Grid partitions mu containing lam with |mu| - |lam| = k."""
    if k <= 0:
        raise ValueError(f"distance must be positive, got {k}")
    if len(lam) > d or (lam and lam[0] > c):
        raise ValueError(f"{lam} does not fit in a {d}x{c} grid")
    return _extensions(lam, k, d, c)


def lenart_coefficient(lam: Partition, mu: Partition) -> int:
    """Mod-2 border-strip coefficient of s_mu in the image of s_lam.

    Zero unless mu/lam is a broken border strip with at most two components;
    one for two components; for a single component, the parity of the total
    content of the sharp and dull corners.
    """
    if not contains(mu, lam):
        raise NotContained(f"{lam} is not contained in {mu}")
    spans = []
    for i, hi in enumerate(mu, start=1):
        lo = lam[i - 1] if i <= len(lam) else 0
        if hi > lo:
            spans.append((i, lo, hi))
    if not spans:
        return 0
    comps = 1
    for (i1, lo1, _hi1), (i2, _lo2, hi2) in zip(spans, spans[1:]):
        if i2 != i1 + 1:
            comps += 1
            continue
        overlap = hi2 - lo1
        if overlap >= 2:
            return 0
        if overlap <= 0:
            comps += 1
    if comps > 2:
        return 0
    if comps == 2:
        return 1
    total = 0
    for idx, (i, lo, hi) in enumerate(spans):
        above = spans[idx - 1] if idx and spans[idx - 1][0] == i - 1 else None
        if above is None or above[1] != lo:
            total += lo + 1 - i
        if above is not None and above[1] >= lo + 1 and above[1] + 1 <= hi:
            total += above[1] + 1 - i
    return total & 1


def filtered_strips(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """The candidates above lam whose strip coefficient is one."""
    return [mu for mu in covers_at_distance(lam, k, d, c) if lenart_coefficient(lam, mu)]


# --- the tuple Stiefel-Whitney ring and its Steenrod action ---------------------
#
# A polynomial is a set of exponent tuples for w_1..w_d.  Squares act on
# generators by the Wu formula and extend by the Cartan formula; Q_n comes
# from the commutator recursion and extends as a derivation.  The library
# computes Q_n(w_j) from power sums on packed monomials instead.


def binom_parity(a: int, b: int) -> int:
    """Binomial coefficient mod 2 via the Lucas bit criterion.

    ``C(a, b)`` is odd exactly when the binary digits of ``b`` are dominated
    by those of ``a``; equivalently the subtraction ``a - b`` has no borrows.
    """
    if b < 0 or b > a:
        return 0
    return 1 if (a - b) & b == 0 else 0


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


# Memo tables, keyed by ambient rank.
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


def pack(r: Monomial, slot: int) -> int:
    """The packed monomial w^r: r_j in slot j - 1 of ``slot`` bits, as the library packs."""
    return sum(e << slot * i for i, e in enumerate(r))


# --- closed forms and cofiber checks with no caller in the CLI ------------------


def lemma65_check(n: int, d: int, l: int) -> bool:
    """Exact integer identity tying the three closed forms to the delta rank.

    For ``m = 2^(n+1) - 1 + 2l`` with ``l > 0`` the long-exact-sequence
    bookkeeping forces
    ``(kG(d, m-1) + kC(d, m) - kG(d, m)) / 2 == predicted_delta_rank``.
    """
    if l <= 0:
        raise ValueError(f"l must be positive, got {l}")
    m = 2 ** (n + 1) - 1 + 2 * l
    lhs = _grassmannian_sum(n, d, m - 1) + _cofiber_sum(n, d, m) - _grassmannian_sum(n, d, m)
    if lhs % 2:
        return False
    return lhs // 2 == _binomial_sum(2 ** (n + 1) - 2, d - 1, l - 1)


def projective_k(n: int, m: int) -> int:
    """Closed form for projective spaces: Gr_1(R^m)."""
    if m < 1:
        raise InvalidCell(f"m must be positive, got {m}")
    collapse = 2 ** (n + 1)
    if m <= collapse:
        return m
    return collapse - m % 2


def fixed_point_count(rep: list[tuple[str, int]], d: int) -> int:
    """Total dimension contributed by a product-of-Grassmannians fixed space.

    ``rep`` lists irreducible factors as ``(kind, multiplicity)`` with kind
    ``"real"`` (1-dimensional) or ``"complex"`` (2-dimensional).  Counts all
    ways of splitting a d-plane across the factors, each factor contributing
    a full binomial coefficient.
    """
    sizes = []
    for kind, mult in rep:
        k = kind.lower()
        if k not in ("real", "complex"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult}")
        sizes.append((1 if k == "real" else 2, mult))

    def count(i: int, remaining: int) -> int:
        if i == len(sizes):
            return 1 if remaining == 0 else 0
        r, mult = sizes[i]
        total = 0
        for j in range(remaining // r + 1):
            ways = _comb(mult, j)
            if ways:
                total += ways * count(i + 1, remaining - j * r)
        return total

    return count(0, d)


def ideal_subcomplex(n: int, grid: Grid) -> tuple[GradedMap, GradedMap]:
    """Split the Grassmannian complex along the kernel of the restriction map.

    The span of Schubert classes with a full first row is a differential
    ideal computing the reduced cohomology of the inclusion cofiber; the
    complementary span carries the complex of the one-step-smaller
    Grassmannian.
    """
    check_codimension(grid)
    return schubert.lenart_qn_matrix(n, grid).restrict(_ideal_cut(grid))


def _in_span(v: int, pivots: dict[int, int]) -> bool:
    while v:
        p = pivots.get(v.bit_length() - 1)
        if p is None:
            return False
        v ^= p
    return True


def ideal_inclusion_induced_zero(n: int, d: int, m: int) -> bool:
    """Whether the ideal's homology maps to zero in the whole complex.

    Checks on explicit representatives: every cocycle of the ideal
    subcomplex must be a coboundary of the full complex.
    """
    grid = Grid(d, m - d)
    full = schubert.lenart_qn_matrix(n, grid)
    sub, _ = full.restrict(_ideal_cut(grid))
    for t, dim in sub.spaces.items():
        block = sub.blocks.get(t)
        cocycles = _kernel_basis(block) if block else [1 << j for j in range(dim)]
        if not cocycles:
            continue
        boundaries = _echelon(full.block(t - full.shift))
        # the ideal's basis is a prefix of the whole basis, so a cocycle's
        # mask is already its mask in the whole complex
        if not all(_in_span(z, boundaries) for z in cocycles):
            return False
    return True


def restrict_selection(gm: GradedMap, selection: dict[int, list[int]]) -> GradedMap:
    """Induced map on the sub-basis picked out per degree by ``selection``.

    Both domain and codomain are cut down; bits outside the selection are
    dropped, which is the quotient map when the selection is not
    invariant.  The reference for ``GradedMap.restrict``, which splits at a
    prefix.
    """
    spaces = {t: len(idx) for t, idx in selection.items() if idx}
    blocks: dict[int, tuple[int, ...]] = {}
    for t, idx in selection.items():
        rows = selection.get(t + gm.shift)
        if not idx or not rows:
            continue
        old = gm.blocks.get(t)
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
    return GradedMap(gm.shift, spaces, blocks)


# --- bit-packed vectors read back as sets --------------------------------------


def decode(mask: int, basis: Sequence[int]) -> set[int]:
    """The words whose positions in ``basis`` are set in ``mask``."""
    return {w for k, w in enumerate(basis) if mask >> k & 1}


def schubert_support(p: Polynomial, grid: Grid) -> set[Partition]:
    """The Schubert classes of p's image in the grid's quotient ring."""
    ctx = _context(grid)
    out: set[int] = set()
    for r in p.terms:
        t = monomial_degree(r)
        out ^= decode(ctx.convert(pack(r, grid.slot), t), ctx.basis.get(t, []))
    return {partition(w, grid.d) for w in out}


# --- the per-term Wu route and one-size vertical strips --------------------------


def vertical_strips(w: int, j: int, m: int) -> list[int]:
    """Words of the partitions made from w by adding j >= 1 boxes, at most one per row.

    Each run of consecutive beads whose next slot ``top`` is empty (and
    inside the word) can move its top s beads up one slot, which moves bit
    top - s to bit top.  The walk takes the runs from the highest down and
    keeps only the choices that the runs below have room to complete; the
    lowest run takes what is left.
    """
    runs = [
        (top, top - (~w & (1 << top) - 1).bit_length())
        for top in bits(w << 1 & ~w & (1 << m) - 1)
    ]
    room = sum(r for _, r in runs)
    if room < j:
        return []
    last, _ = runs.pop()
    words = [(w, j)]
    for top, r in runs:
        room -= r
        words = [
            (v ^ (1 << top ^ 1 << top - s), rem - s)
            for v, rem in words
            for s in range(max(0, rem - room), min(r, rem) + 1)
        ]
    return [v ^ (1 << last ^ 1 << last - rem) for v, rem in words]


def derivation_image(n: int, grid: Grid) -> Callable[[int], list[int]]:
    """Q_n on the grid's packed monomials, extended from generators as a derivation.

    The image of w^r lists w^(r - e_j) * v over each j with r_j odd and
    each term v of Q_n(w_j).
    """
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    count, slot = min(grid.d, grid.top_degree - 2 ** (n + 1) + 1), grid.slot
    gens = [
        (slot * j, 1 << slot * j, terms)
        for j, terms in enumerate(steenrod.milnor_q_generators(n, grid.d, slot, count))
    ]

    def image(r: int) -> list[int]:
        return [r - unit + v for offset, unit, terms in gens if r >> offset & 1 for v in terms]

    return image


def per_term_operator_matrix(
    grid: Grid, shift: int, image: Callable[[int], Iterable[int]]
) -> GradedMap:
    """A free-ring operator's Schubert matrix, every term of every image converted on its own.

    ``image`` maps a packed basis monomial of degree t to the packed terms of
    its value, all of degree t + shift, with multiplicity.
    """
    ctx = _context(grid)
    spaces = {t: len(words) for t, words in ctx.basis.items()}
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(grid.top_degree - shift + 1):
        s = t + shift
        c_cols = []
        for r in ctx.monomials[t]:
            out = 0
            for u in image(r):
                out ^= ctx.convert(u, s)
            c_cols.append(out)
        inverse = invert([ctx.convert(r, t) for r in ctx.monomials[t]])
        blocks[t] = tuple(column_product(c_cols, x) for x in inverse)
    return GradedMap(shift, spaces, blocks)


def per_term_derivation_matrix(n: int, grid: Grid) -> GradedMap:
    """The derivation route's matrix, term by term."""
    return per_term_operator_matrix(grid, 2 ** (n + 1) - 1, derivation_image(n, grid))


def per_term_twisted_complex(n: int, d: int, m: int) -> GradedMap:
    """The cofiber's twisted complex Q_n(x) + x * a, term by term."""
    shift = 2 ** (n + 1) - 1
    grid = Grid(d - 1, m - d)
    q_image = derivation_image(n, grid)
    twist = set()
    if shift <= grid.top_degree:
        twist = steenrod.power_sums(grid.d, grid.slot, shift)[shift]
    return per_term_operator_matrix(grid, shift, lambda r: q_image(r) + [r + a for a in twist])


# --- dense linear algebra and the total square -----------------------------------


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


def invert(cols: Sequence[int]) -> list[int]:
    """Columns of the inverse of a square bit matrix given by its columns.

    The kernel of ``[A | I]`` pairs each x with A x.  The columns of A come
    first, so a singular A puts a kernel vector with no bit from I first;
    otherwise kernel vector i comes from column i of I, and its low bits
    are column i of the inverse.
    """
    size = len(cols)
    kernel = _kernel_basis([*cols, *(1 << i for i in range(size))])
    if kernel and not kernel[0] >> size:
        raise RuntimeError("bit matrix is singular; basis change failed")
    low = (1 << size) - 1
    return [v & low for v in kernel]


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over F_2 of a dense 0/1 matrix given as rows."""
    packed = []
    for row in matrix:
        bits = 0
        for j, entry in enumerate(row):
            if entry & 1:
                bits |= 1 << j
        packed.append(bits)
    return len(_echelon(packed))


def total_sq(p: Polynomial) -> Polynomial:
    """Sum of all squares of p; finite by instability."""
    acc = p
    top = max((monomial_degree(r) for r in p.terms), default=0)
    for i in range(1, top + 1):
        acc = acc + sq(i, p)
    return acc
