"""Simulation and verification tools for particle systems on infinite grids.

Particles are anonymous, occupy grid cells, label their ports clockwise
in a private frame, and act only on local information.  The package
covers three grids (square, triangular, king), leader election by
candidate elimination, spanning tree construction, port relabeling to a
common frame, identifier assignment that stays locally unique out to a
chosen distance, and the periodic colorings the identifiers come from.
"""

from .grid import (
    Coord,
    GridKind,
    degree,
    distance,
    neighbors,
    opposite_port,
)
from .particles import (
    HoleReport,
    ParticleConfig,
    border,
    find_holes,
    make_config,
    mtree,
    radius,
    round_bound,
    validate_config,
)
from .coloring import (
    ColoringPattern,
    color_at,
    color_count,
    color_table_text,
    pattern,
    verify_coloring,
)
from .scheduler import (
    POLICY_EXPLICIT,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    AlgorithmReport,
    RunResult,
    RunTrace,
    Schedule,
    SimulationError,
    TraceEvent,
    TraceRound,
    run,
)
from .algorithms import (
    ELECT,
    IDS,
    PIPELINE_FULL,
    RENUMBER,
    TREE,
    ParticleState,
    id_histogram,
    leader_of,
    tree_height,
    tree_parent,
    update_id_after_move,
)

__version__ = "0.1.0"
