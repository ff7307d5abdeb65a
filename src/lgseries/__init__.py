"""Exact engine for linked subspace chains and limit linear series on
two-component nodal curves over prime fields and dual numbers."""

from .fields import (Dual, DualNumbers, Fp, PrimeField, is_tame,
                     tameness_determinant)
from .linalg import (BudgetError, Matrix, Subspace, apply_map, contains,
                     enumerate_between, enumerate_subspaces, gaussian_binomial,
                     image, intersect, kernel, preimage, rank_everywhere_at_most,
                     rref, sum_spaces)
from .chains import (CensusReport, ChainPoint, LinkedChain, SignatureReport,
                     ValidationReport, admissible_signatures_n2,
                     boundary_counts, census, decompose, enumerate_points,
                     exactify, expected_component_count_n2, extend_truncation,
                     is_exact, is_linked_point, make_standard_chain,
                     signature, tangent_dimension, validate_chain)
from .ramification import (INFINITY, PluckerCertificate, RamificationData,
                           is_separable, plucker_check, rho, vanishing_sequence,
                           wronskian)
from .series import (DualProbeReport, EHPair, ImageReport, LimitSeriesPoint,
                     NodalModel, build_section_chain, dual_probe,
                     enumerate_limit_series, forgetful_map, fr_image_report,
                     is_crude, is_refined, lift_crude, reconstruct_refined,
                     vanishing_sequence_dual)

__version__ = "0.1.0"
