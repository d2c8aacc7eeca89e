"""The inclusion cofiber of Gr_d(R^(m-1)) -> Gr_d(R^m) and its connecting map.

The Schubert classes with a full first row span a differential ideal of the
Grassmannian complex; it computes the reduced cofiber homology, and its
quotient is the complex of the one-step-smaller Grassmannian.  This module
sits above ``homology``, ``schubert`` and ``steenrod``.  It calls their
matrix constructions and ``qn_homology`` through the module objects, so a
wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

from . import homology, schubert, steenrod
from .homology import GradedMap, HomologyProfile
from .schubert import Grid


class GridTooSmall(ValueError):
    """Raised when a cofiber construction needs codimension at least 1."""


class ParityViolation(RuntimeError):
    """Exactness bookkeeping produced an odd defect; indicates a bug."""


def _ideal_selection(d: int, c: int) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Per-degree positions of the top-column ideal basis and its complement."""
    top = d + c - 1  # a full first row puts its bead in the top slot
    sub: dict[int, list[int]] = {}
    quot: dict[int, list[int]] = {}
    for t, words in schubert.schubert_basis(Grid(d, c)).items():
        sub[t] = [i for i, w in enumerate(words) if w >> top & 1]
        quot[t] = [i for i, w in enumerate(words) if not w >> top & 1]
    return sub, quot


def _split_ideal(full: GradedMap, grid: Grid) -> tuple[GradedMap, GradedMap]:
    """Restrict the whole complex to the top-column ideal and to its quotient."""
    sel_sub, sel_quot = _ideal_selection(grid.d, grid.c)
    return full.restrict(sel_sub), full.restrict(sel_quot)


def _full_complex(n: int, grid: Grid) -> GradedMap:
    """The Grassmannian complex of a cofiber cell, which needs codimension >= 1."""
    if grid.c < 1:
        raise GridTooSmall(f"cofiber needs codimension >= 1, got {grid}")
    return schubert.lenart_qn_matrix(n, grid)


def twisted_complex(n: int, d: int, m: int) -> GradedMap:
    """The cofiber complex modeled on the smaller Grassmannian's cohomology.

    On x in H^*(Gr_{d-1}(R^{m-1})) the differential is Q_n(x) + x * a where
    a is the degree-(2^(n+1)-1) additive characteristic class of the
    canonical (d-1)-plane bundle.
    """
    if d < 1 or m < d + 1:
        raise GridTooSmall(f"twisted complex needs d >= 1 and m > d, got d={d} m={m}")
    shift = 2 ** (n + 1) - 1
    grid = Grid(d - 1, m - d)
    q_image = schubert.derivation_image(n, grid)
    # a has degree shift: the map needs it, and it packs exactly, only when
    # the map has a block.
    twist = set()
    if shift <= grid.top_degree:
        twist = steenrod.power_sums(grid.d, grid.slot, shift)[shift]

    def image(r: int) -> list[int]:
        return q_image(r) + [r + a for a in twist]

    return schubert.free_operator_matrix(grid, shift, image)


def cofiber_homology(n: int, d: int, m: int) -> tuple[HomologyProfile, int]:
    """Reduced cofiber homology and the rank of the connecting map.

    Builds the whole complex once and restricts it to the ideal and the
    quotient.  The rank is recovered from exactness: twice the rank is the
    homology excess of the two pieces over the whole.
    """
    grid = Grid(d, m - d)
    full = _full_complex(n, grid)
    sub, quot = _split_ideal(full, grid)
    sub_profile = homology.qn_homology(sub)
    quot_total = homology.qn_homology(quot).total
    excess = sub_profile.total + quot_total - homology.qn_homology(full).total
    if excess < 0 or excess % 2:
        raise ParityViolation(f"exactness defect {excess} at n={n} d={d} m={m}")
    return sub_profile, excess // 2
