"""Exact Q_n-homology of real Grassmannians and their inclusion cofibers over F_2."""

from .formulas import (
    binom_parity,
    fixed_point_count,
    lemma65_check,
    predicted_cofiber_k,
    predicted_delta_rank,
    predicted_k,
    projective_k,
)
from .homology import (
    GradedMap,
    HomologyProfile,
    cofiber_homology,
    connecting_rank,
    ideal_inclusion_induced_zero,
    ideal_subcomplex,
    qn_homology,
    rank,
    twisted_complex,
)
from .schubert import (
    Grid,
    SchubertVector,
    derivation_qn_matrix,
    lenart_qn_matrix,
    monomial_to_schubert,
    pieri_multiply,
    polynomial_to_schubert,
    schubert_basis,
)
from .steenrod import Polynomial, dual_class, milnor_q, multiply, s_class, sq
from .young import (
    Partition,
    SkewShape,
    StripClass,
    classify_strip,
    content,
    corners,
    lenart_strips,
    partitions_in_grid,
    skew,
)

__version__ = "0.1.0"
