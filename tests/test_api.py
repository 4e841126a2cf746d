"""The public names of the package.  A name leaves `rdmkit.__all__` only
through a deprecation that CHANGES.md records; this list changes with it."""

import rdmkit

PUBLIC = [
    "CompatVerdict", "DensityMatrix", "EigDecomposition", "EnvVectors",
    "FaceCheck", "FullWeightBasis", "GhzCertificate", "GhzParams",
    "PartnerResult", "PauliWord", "PureState", "Purification", "RdmTuple",
    "SchmidtSplit", "TheoremViolation", "ValidationError", "WitnessFamily",
    "apply_local_unitaries", "compat", "construct", "detect_ghz_type",
    "determinedness", "eigen2", "extract_env_vectors",
    "extract_env_vectors_all", "face_check", "fullweight_basis", "ghz",
    "ghz_family", "haar_random_state", "hermitian_eig",
    "main_constraint_max_residual", "make_ghz", "partial_trace",
    "partial_trace_matrix", "ptr_tuple", "pure_partner",
    "pure_partner_details", "purify", "qstate", "random_local_unitaries",
    "rank2_check", "rdm", "rdm_max_distance", "require_equal_rdms",
    "schmidt", "schmidt_split", "search_max_tmax",
]


def test_public_names_are_pinned():
    assert sorted(rdmkit.__all__) == PUBLIC
