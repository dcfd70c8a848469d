"""Rigidity, vertex-redundant rigidity and global rigidity of fixed-lattice
periodic bar-joint and body-bar frameworks, decided exactly from their
quotient gain graphs."""

from .body_bar import (
    CountReport,
    body_bar_rank,
    build_body_bar_gain_graph,
    count_rank,
    decide_body_bar_global,
    is_bar_redundantly_rigid,
)
from .framework import (
    Framework,
    Lattice,
    generic_rank,
    identity_lattice,
)
from .gain_graph import (
    CoveringWindow,
    GainEdge,
    GainGraph,
    InvalidGainGraphError,
    covering_window,
    gain_graph,
    gain_rank,
    reverse_edge,
    switch,
)
from .linalg import integer_rank
from .motion import (
    FlexPath,
    PathCertificate,
    build_flex_path,
    sample_path,
    verify_path,
)
from .rigidity import (
    GlobalVerdict,
    RigidityVerdict,
    decide_global_rigidity,
    is_rigid,
    is_vertex_redundantly_rigid,
)

__version__ = "0.1.0"
