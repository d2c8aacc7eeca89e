"""Exact Q_n-homology of real Grassmannians and their inclusion cofibers over F_2."""

from .cofiber import cofiber_homology, twisted_complex
from .formulas import predicted_cofiber_k, predicted_delta_rank, predicted_k
from .homology import GradedMap, HomologyProfile, qn_homology
from .schubert import Grid, derivation_qn_matrix, lenart_qn_matrix
from .steenrod import milnor_q_generators, power_sums
from .young import lenart_strips, partitions_in_grid

__version__ = "0.1.0"
