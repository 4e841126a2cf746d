"""Toolkit for deciding whether an n-qubit pure state is determined by its
(n-1)-qubit reduced density matrices."""

from .compat import (CompatVerdict, Direction, FullWeightBasis,
                     ParentHamiltonian, WitnessFamily, determinedness,
                     direction_from_coeffs, direction_from_matrix,
                     fullweight_basis, parent_hamiltonian, rank2_check,
                     search_max_tmax, tmax_along)
from .construct import (PartnerResult, TheoremViolation, TwoLevelRestriction,
                        eigen2, mixture_state, pure_partner,
                        pure_partner_details, two_level_restriction)
from .ghz import (GhzCertificate, GhzParams, detect_ghz_type, ghz_family,
                  make_ghz)
from .qstate import (DensityMatrix, EigDecomposition, MultiIndex, PauliWord,
                     PureState, ValidationError, apply_local_unitaries,
                     haar_random_state, hermitian_eig, numeric_rank,
                     random_local_unitaries)
from .rdm import (RdmTuple, partial_trace, partial_trace_matrix, ptr_tuple,
                  rdm_max_distance, require_equal_rdms)
from .schmidt import (EnvVectors, Purification, SchmidtSplit,
                      extract_env_vectors, main_constraint_max_residual,
                      main_constraint_residual, product_split_test, purify,
                      schmidt_split)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
