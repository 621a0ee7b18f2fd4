"""2-D mesh substrate: topology, diagonal geometry, Manhattan paths.

This package is the platform model of the paper's Section 3.1: a ``p × q``
grid of cores with **two unidirectional links** between every pair of
neighbouring cores.  Everything above it (power model, heuristics, theory)
speaks in terms of the dense integer *link ids* defined by
:class:`repro.mesh.topology.Mesh`, so link loads can live in flat NumPy
vectors.

Coordinates are 0-indexed ``(u, v)`` with ``u`` the row (0 at the top,
growing "south") and ``v`` the column (0 at the left, growing "east").  The
paper uses 1-indexed coordinates; the mapping is ``C_{u+1, v+1}``.
"""

from repro.mesh.topology import Mesh, Orientation
from repro.mesh.diagonals import (
    direction_of,
    direction_steps,
    diag_index,
    diagonal_cores,
    band_links_full,
    band_link_count,
)
from repro.mesh.moves import (
    MOVE_H,
    MOVE_V,
    xy_moves,
    yx_moves,
    two_bend_moves,
    moves_to_cores,
    moves_to_links,
    relocate_h_after,
    relocate_v_before,
)
from repro.mesh.paths import Path, CommDag, count_paths, manhattan_path_count
from repro.mesh.kernel import (
    FlatRoutingKernel,
    links_from_vmask,
    moves_to_vmask,
    stack_vmasks,
)
from repro.mesh.batch import LoadLedger, flip_corners

__all__ = [
    "Mesh",
    "Orientation",
    "direction_of",
    "direction_steps",
    "diag_index",
    "diagonal_cores",
    "band_links_full",
    "band_link_count",
    "MOVE_H",
    "MOVE_V",
    "xy_moves",
    "yx_moves",
    "two_bend_moves",
    "moves_to_cores",
    "moves_to_links",
    "relocate_h_after",
    "relocate_v_before",
    "Path",
    "CommDag",
    "count_paths",
    "manhattan_path_count",
    "FlatRoutingKernel",
    "links_from_vmask",
    "moves_to_vmask",
    "stack_vmasks",
    "LoadLedger",
    "flip_corners",
]
