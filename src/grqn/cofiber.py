"""The inclusion cofiber of Gr_d(R^(m-1)) -> Gr_d(R^m) and its connecting map.

The Schubert classes with a full first row lead each degree of the basis
and span a differential ideal; it computes the reduced cofiber homology,
and its quotient, the last words of each degree (``embedded_places``), is
the complex of the one-step-smaller Grassmannian.
This module sits above ``homology``, ``schubert`` and ``steenrod``.  It
calls their matrix constructions and ``qn_homology`` through the module
objects, so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

from . import homology, schubert, steenrod
from .formulas import InvalidCell, check_cell
from .homology import GradedMap, HomologyProfile
from .schubert import Grid


def check_codimension(grid: Grid) -> None:
    """A cofiber cell needs codimension >= 1."""
    if grid.c < 1:
        raise InvalidCell(f"cofiber needs codimension >= 1, got {grid}")


def twisted_complex(n: int, d: int, m: int) -> GradedMap:
    """The cofiber complex modeled on the smaller Grassmannian's cohomology.

    On x in H^*(Gr_{d-1}(R^{m-1})) the differential is T(x) = Q_n(x) + x a,
    with a = alpha_n = s_(2^(n+1)-1) the degree-(2^(n+1)-1) additive class of
    the canonical (d-1)-plane bundle.  T(w_k x) = w_k T(x) + x Q_n(w_k), so
    T is built as Q_n is, from T(1) = a, which the map needs only when it
    has a block (where a packs exactly).
    """
    check_cell(n, d, m, least_d=1)
    check_codimension(Grid(d, m - d))
    shift = 2 ** (n + 1) - 1
    grid = Grid(d - 1, m - d)
    a = steenrod.power_sums(grid.d, grid.slot, shift)[shift] if shift <= grid.top_degree else ()
    return schubert.free_operator_matrix(grid, shift, schubert.derivation_parts(n, grid), a)


def cofiber_homology(n: int, d: int, m: int) -> tuple[HomologyProfile, int, GradedMap]:
    """Reduced cofiber homology, the rank of the connecting map, and the ideal's complex.

    Builds the whole complex once and restricts it to the ideal and the
    quotient, once no ideal column leaves the ideal: ``restrict`` would drop
    such a bit, and the bug with it.  The quotient's places end each degree,
    so the ideal is a prefix.  The rank is recovered from exactness: twice
    the rank is the homology excess of the two pieces over the whole.
    """
    check_cell(n, d, m, least_d=1)
    grid = Grid(d, m - d)
    check_codimension(grid)
    full = schubert.lenart_qn_matrix(n, grid)
    quot_at = schubert.embedded_places(grid, [(d, grid.c - 1)])[d, grid.c - 1]
    cut = {t: size - len(quot_at.get(t, ())) for t, size in full.spaces.items()}
    for t, cols in full.blocks.items():
        if max(cols[: cut[t]], default=0) >> cut[t + full.shift]:
            raise RuntimeError(f"the ideal is not a subcomplex at degree {t} at n={n} d={d} m={m}")
    sub = full.restrict({t: [*range(k)] for t, k in cut.items()})
    sub_profile = homology.qn_homology(sub)
    quot_total = homology.qn_homology(full.restrict(quot_at)).total
    excess = sub_profile.total + quot_total - homology.qn_homology(full).total
    if excess < 0 or excess % 2:
        raise RuntimeError(f"exactness defect {excess} at n={n} d={d} m={m}")
    return sub_profile, excess // 2, sub
