"""Exact Q_n-homology of real Grassmannians and their inclusion cofibers over F_2."""

from .cofiber import (
    cofiber_homology,
    ideal_inclusion_induced_zero,
    ideal_subcomplex,
    twisted_complex,
)
from .formulas import (
    binom_parity,
    fixed_point_count,
    lemma65_check,
    predicted_cofiber_k,
    predicted_delta_rank,
    predicted_k,
    projective_k,
)
from .homology import GradedMap, HomologyProfile, qn_homology
from .schubert import Grid, derivation_qn_matrix, lenart_qn_matrix, schubert_basis
from .steenrod import Polynomial, dual_class, milnor_q, multiply, s_class, sq
from .young import lenart_strips, partitions_in_grid

__version__ = "0.1.0"
