"""Problem ingestion, exact oracles, shipped fixtures and the command line."""

from .fcidump import (
    ParseError,
    SpatialIntegrals,
    SymmetryViolation,
    emit_fcidump,
    parse_fcidump,
    parse_fcidump_spatial,
    to_spin_orbitals,
)
from .fixtures import (
    FIXTURES,
    H2_CURVE,
    H2_EQUILIBRIUM,
    fixture_text,
    list_fixtures,
    load_fixture,
    load_fixture_spatial,
    load_problem,
)
from .oracle import exact_eigensolve, ground_state
from .pipeline import (
    CurveResult,
    RunConfig,
    StageFailure,
    config_document,
    dissociation_curve,
    document_json,
    run_pipeline,
)

__all__ = [
    "FIXTURES", "H2_CURVE", "H2_EQUILIBRIUM", "CurveResult", "ParseError",
    "RunConfig", "SpatialIntegrals", "StageFailure",
    "SymmetryViolation", "config_document", "dissociation_curve",
    "document_json", "emit_fcidump", "exact_eigensolve", "fixture_text",
    "ground_state", "list_fixtures", "load_fixture", "load_fixture_spatial",
    "load_problem", "parse_fcidump", "parse_fcidump_spatial", "run_pipeline",
    "to_spin_orbitals",
]
