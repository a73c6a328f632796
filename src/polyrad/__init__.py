"""Exact joint and lower spectral radius computation for finite matrix families.

The library grows invariant polytopes (for the joint spectral radius) or
invariant antinorm polytopes, optionally extended by a polyhedral cone (for
the lower spectral radius).  Successful runs emit machine-checkable
certificates; capped runs report rigorous two-sided bounds.
"""

from .matrices import (
    EigenAnalysis,
    MatrixError,
    MatrixFamily,
    canonical_word,
    cyclic_word,
    dual_leading_eigenvector,
    leading_eigen_analysis,
    primitive_root_word,
    spectral_radius,
    word_matrix,
)
from .simplex import LinearProgram, LPOutcome, LPCyclingError, solve_lp
from .candidates import (
    Candidate,
    CyclicRoot,
    EnumerationBudgetError,
    InapplicableError,
    RestartFailedError,
    build_cyclic_root,
    enumerate_candidates,
    make_candidate,
    normalize_family,
    restart_product,
    symmetric_twins,
)
from .engine import (
    MODE_L,
    MODE_P,
    MODE_R,
    RunConfig,
    RunOutcome,
    PolytopeState,
    VertexNode,
    final_bounds,
    iterate,
    run,
    stopping_check,
)
from .membership import (
    antinorm_membership_L,
    antinorm_membership_ext,
    norm_membership_P,
    norm_membership_R,
)
from .cone import (
    ConeExtension,
    detect_near_boundary,
    rays_from_index_sets,
    root_profile,
    validate_cone,
)
from .certificates import (
    Certificate,
    CertificateFormatError,
    VerificationReport,
    deserialize,
    family_fingerprint,
    serialize,
    spans_check,
    verify,
)
from . import datasets

__version__ = "0.1.0"

__all__ = [
    "EigenAnalysis",
    "MatrixError",
    "MatrixFamily",
    "canonical_word",
    "cyclic_word",
    "dual_leading_eigenvector",
    "leading_eigen_analysis",
    "primitive_root_word",
    "spectral_radius",
    "word_matrix",
    "LinearProgram",
    "LPOutcome",
    "LPCyclingError",
    "solve_lp",
    "Candidate",
    "CyclicRoot",
    "EnumerationBudgetError",
    "InapplicableError",
    "RestartFailedError",
    "build_cyclic_root",
    "enumerate_candidates",
    "make_candidate",
    "normalize_family",
    "restart_product",
    "symmetric_twins",
    "MODE_L",
    "MODE_P",
    "MODE_R",
    "RunConfig",
    "RunOutcome",
    "PolytopeState",
    "VertexNode",
    "final_bounds",
    "iterate",
    "run",
    "stopping_check",
    "antinorm_membership_L",
    "antinorm_membership_ext",
    "norm_membership_P",
    "norm_membership_R",
    "ConeExtension",
    "detect_near_boundary",
    "rays_from_index_sets",
    "root_profile",
    "validate_cone",
    "Certificate",
    "CertificateFormatError",
    "VerificationReport",
    "deserialize",
    "family_fingerprint",
    "serialize",
    "spans_check",
    "verify",
    "datasets",
]
