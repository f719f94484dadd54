"""Exact characters of code lattices and their order-2 orbifolds.

From a doubly-even binary code the package builds the two associated
even lattices, the Z4 quotient codes used by the framed construction,
the lattice-net vacuum characters by two independent routes, and the
twisted orbifold character, all as exact integer q-series.
"""

from .codes import (
    BinaryCode,
    CodeError,
    CodeReport,
    Z4Code,
    builtin_code,
    builtin_delta,
    delta_code,
    hat_map,
    load_code,
    sigma2_code,
    validate_binary_code,
)
from .fusion import (
    Census,
    ExtensionResult,
    FramedStructure,
    FusionError,
    PointedSystem,
    Zroot2,
    framed_from_code,
    framed_structure,
    fusion_group_disambiguation,
    integer_weight_subgroup,
    ising_decomposition,
    miyamoto_involution,
    mu_index,
    orbifold_census,
    simple_current_extension,
    u14_system,
    z4_power_system,
)
from .netchar import (
    NetCharacter,
    emit_branching_graph,
    frame_char,
    ising_branching_check,
    ising_char,
    lattice_net_char,
    theta_over_eta,
    u14_sector_char,
)
from .orbifold import (
    OrbifoldPieces,
    fixed_point_sector_chars,
    orbifold_pieces,
    orbifold_vacuum_char,
)
from .qseries import DEN, GridError, QSeries, eta_power, product_form

__version__ = "0.1.0"
