"""SCMA codebook design and link simulation for shot-noise-limited optical channels."""

from .decoder import (
    DecoderState,
    OpCounts,
    joint_map_bruteforce,
    max_log_mpa,
    mpa_linear,
    mpa_linear_batch,
    op_counts,
)
from .designer import DesignConfig, DesignResult, design, project_feasible, random_init
from .fileio import load_codebook_set, save_codebook_set
from .fixtures import fixture_names, load_fixture
from .metrics import (
    DistanceReport,
    EpdEllipse,
    StackedVector,
    epd_ellipses,
    logsumexp_gradient,
    logsumexp_objective,
    pairwise_report,
    red,
    stack_codebook_set,
)
from .model import (
    Codebook,
    CodebookSet,
    FactorGraph,
    SuperConstellation,
    SystemParams,
    build_factor_graph,
    codeword,
    enumerate_superimposed,
    mapping_from_graph,
    power,
    scale_codebook_set,
)
from .simulator import (
    BerPoint,
    TrialStream,
    add_idgn,
    analytical_ber,
    pep_idgn,
    qfunc,
    simulate_ber,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BerPoint", "Codebook", "CodebookSet", "DecoderState", "DesignConfig",
    "DesignResult", "DistanceReport", "EpdEllipse", "FactorGraph",
    "OpCounts", "StackedVector", "SuperConstellation", "SystemParams",
    "TrialStream", "add_idgn", "analytical_ber",
    "build_factor_graph", "codeword", "design", "enumerate_superimposed",
    "epd_ellipses", "fixture_names", "joint_map_bruteforce",
    "load_codebook_set", "load_fixture", "logsumexp_gradient",
    "logsumexp_objective", "mapping_from_graph", "max_log_mpa",
    "mpa_linear", "mpa_linear_batch", "op_counts", "pairwise_report",
    "pep_idgn", "power", "project_feasible", "qfunc", "random_init", "red",
    "save_codebook_set", "scale_codebook_set", "simulate_ber",
    "stack_codebook_set", "sweep",
]
