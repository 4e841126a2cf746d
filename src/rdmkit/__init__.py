"""Toolkit for deciding whether an n-qubit pure state is determined by its
(n-1)-qubit reduced density matrices."""

from .compat import (CompatVerdict, FaceCheck, FullWeightBasis, WitnessFamily,
                     determinedness, face_check, fullweight_basis,
                     rank2_check, search_max_tmax)
from .construct import (PartnerResult, TheoremViolation, eigen2,
                        pure_partner, pure_partner_details)
from .ghz import (GhzCertificate, GhzParams, detect_ghz_type, ghz_family,
                  make_ghz)
from .qstate import (DensityMatrix, EigDecomposition, PauliWord, PureState,
                     ValidationError, apply_local_unitaries,
                     haar_random_state, hermitian_eig,
                     random_local_unitaries)
from .rdm import (RdmTuple, partial_trace, partial_trace_matrix, ptr_tuple,
                  rdm_max_distance, require_equal_rdms)
from .schmidt import (EnvVectors, Purification, SchmidtSplit,
                      extract_env_vectors, extract_env_vectors_all,
                      main_constraint_max_residual, purify, schmidt_split)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
