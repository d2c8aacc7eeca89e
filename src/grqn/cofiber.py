"""The inclusion cofiber of Gr_d(R^(m-1)) -> Gr_d(R^m) and its connecting map.

The Schubert classes with a full first row lead each degree of the basis
and span a differential ideal; it computes the reduced cofiber homology,
and its quotient is the complex of the one-step-smaller Grassmannian.
This module sits above ``homology``, ``schubert`` and ``steenrod``.  It
calls their matrix constructions and ``qn_homology`` through the module
objects, so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

from . import homology, schubert, steenrod
from .formulas import InvalidCell
from .homology import GradedMap, HomologyProfile
from .schubert import Grid


def _ideal_cut(grid: Grid) -> dict[int, int]:
    """Per degree, how many words have a full first row: they come first."""
    top = grid.m - 1  # a full first row puts its bead in the top slot
    return {t: sum(w >> top for w in words) for t, words in schubert.schubert_basis(grid).items()}


def check_codimension(grid: Grid) -> None:
    """A cofiber cell needs codimension >= 1."""
    if grid.c < 1:
        raise InvalidCell(f"cofiber needs codimension >= 1, got {grid}")


def twisted_complex(n: int, d: int, m: int) -> GradedMap:
    """The cofiber complex modeled on the smaller Grassmannian's cohomology.

    On x in H^*(Gr_{d-1}(R^{m-1})) the differential is Q_n(x) + x * a where
    a is the degree-(2^(n+1)-1) additive characteristic class of the
    canonical (d-1)-plane bundle.
    """
    if d < 1 or m < d + 1:
        raise InvalidCell(f"twisted complex needs d >= 1 and m > d, got d={d} m={m}")
    shift = 2 ** (n + 1) - 1
    grid = Grid(d - 1, m - d)
    parts = schubert.derivation_parts(n, grid)
    # a has degree shift: the map needs it, and it packs exactly, only when
    # the map has a block.
    if shift <= grid.top_degree:
        parts.append((None, steenrod.power_sums(grid.d, grid.slot, shift)[shift]))
    return schubert.free_operator_matrix(grid, shift, parts)


def cofiber_homology(n: int, d: int, m: int) -> tuple[HomologyProfile, int, GradedMap]:
    """Reduced cofiber homology, the rank of the connecting map, and the ideal's complex.

    Builds the whole complex once and restricts it to the ideal and the
    quotient, once no ideal column leaves the ideal: ``restrict`` would drop
    such a bit, and the bug with it.  The rank is recovered from exactness:
    twice the rank is the homology excess of the two pieces over the whole.
    """
    grid = Grid(d, m - d)
    check_codimension(grid)
    full, cut = schubert.lenart_qn_matrix(n, grid), _ideal_cut(grid)
    for t, cols in full.blocks.items():
        if any(col >> cut[t + full.shift] for col in cols[: cut[t]]):
            raise RuntimeError(f"the ideal is not a subcomplex at degree {t} at n={n} d={d} m={m}")
    sub, quot = full.restrict(cut)
    sub_profile = homology.qn_homology(sub)
    quot_total = homology.qn_homology(quot).total
    excess = sub_profile.total + quot_total - homology.qn_homology(full).total
    if excess < 0 or excess % 2:
        raise RuntimeError(f"exactness defect {excess} at n={n} d={d} m={m}")
    return sub_profile, excess // 2, sub
