"""Identity components of isometry groups of orbit spaces V/G.

The pipeline decomposes an orthogonal representation into isotypic
components, classifies each by Schur type, assembles the equivariant
isometry group, and identifies the kernel of its descent to the quotient.
Companion modules compute quotient metrics by brute-force minimization,
verify the Hopf-fibration worked example, and lift quotient-sphere
rotations to equivariant isometries.
"""
from .catalog import CatalogAction, catalog_summary, get_action, trivial_action
from .commutant import (
    EquivariantIsometryGroup,
    Factor,
    IsotypicComponent,
    classify_component,
    commutant_basis,
    commutant_center,
    equivariant_isometry_group,
    isotypic_split,
    sample_equivariant_isometry,
)
from .errors import (
    AmbiguityError,
    DedupAmbiguityError,
    GroupSizeCapError,
    InternalCheckError,
    IsotypicSeparationError,
    KernelAmbiguityError,
    OrbitIsomError,
    RankAmbiguityError,
    TypeInconsistencyError,
    ValidationError,
)
from .fixtures import FIXTURE_NAMES, fixture_document, fixture_json, write_fixture_files
from .isom_quotient import (
    AnalysisResult,
    KernelDescription,
    center_in_component,
    center_of_group,
    classify_irreducible,
    compute_kernel,
    quotient_isometry_group,
    report_json,
    validate_report_schema,
    verify_theorem_B,
)
from .lift_verify import (
    LiftWitness,
    descend_check,
    hopf_map,
    lift_rotation,
    verify_hopf_metric,
)
from .orbit_geometry import (
    QuotientPoint,
    has_boundary,
    orbit_equivalence_test,
    quotient_distance,
    sample_generic_point,
    sector_angle_estimate,
    sphere_quotient_distance,
)
from .repr_model import (
    FiniteGroupData,
    RepresentationSpec,
    TrivialSplit,
    enumerate_group,
    fixed_subspace,
    load_spec,
    parse_spec,
    restrict_group,
)
from .verification import SUITE_IDS, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "AnalysisResult",
    "CatalogAction",
    "DedupAmbiguityError",
    "EquivariantIsometryGroup",
    "FIXTURE_NAMES",
    "Factor",
    "FiniteGroupData",
    "GroupSizeCapError",
    "InternalCheckError",
    "IsotypicComponent",
    "IsotypicSeparationError",
    "KernelAmbiguityError",
    "KernelDescription",
    "LiftWitness",
    "OrbitIsomError",
    "QuotientPoint",
    "RankAmbiguityError",
    "RepresentationSpec",
    "SUITE_IDS",
    "SuiteResult",
    "TrivialSplit",
    "TypeInconsistencyError",
    "ValidationError",
    "catalog_summary",
    "center_in_component",
    "center_of_group",
    "classify_component",
    "classify_irreducible",
    "commutant_basis",
    "commutant_center",
    "compute_kernel",
    "descend_check",
    "enumerate_group",
    "equivariant_isometry_group",
    "fixed_subspace",
    "fixture_document",
    "fixture_json",
    "get_action",
    "has_boundary",
    "hopf_map",
    "isotypic_split",
    "lift_rotation",
    "load_spec",
    "orbit_equivalence_test",
    "parse_spec",
    "quotient_distance",
    "quotient_isometry_group",
    "report_json",
    "restrict_group",
    "run_suites",
    "sample_equivariant_isometry",
    "sample_generic_point",
    "sector_angle_estimate",
    "sphere_quotient_distance",
    "trivial_action",
    "validate_report_schema",
    "verify_hopf_metric",
    "verify_theorem_B",
    "write_fixture_files",
]
