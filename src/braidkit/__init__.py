"""braidkit: braids, loops, and the dynamics between them.

Exact braid-group algebra on generator words, Dynnikov-style loop
coordinates with the piecewise-linear braid action, iterative topological
entropy estimation, Burau/Alexander polynomial invariants, and conversion of
sampled 2-D trajectories into braids.
"""
from .config import Properties, properties, get_prop, set_prop, PROP_KEYS
from .loops import (
    Loop,
    IntersectionNumbers,
    make_loop,
    canonical_loop,
    intersec,
    minlength,
    intaxis,
    loop_from_json,
)
from .action import (
    LinearAction,
    CycleResult,
    CycleNotFoundError,
    apply_generator,
    act,
    act_with_matrix,
    loopcoords,
    cycle,
)
from .braids import (
    Braid,
    AnnularBraid,
    make_braid,
    make_annular_braid,
    identity_braid,
    mul,
    embed,
    inverse,
    power,
    equals,
    lexeq,
    istrivial,
    compact,
    perm,
    ispure,
    writhe,
    subbraid,
    tensor,
    random_braid,
    halftwist,
    fulltwist,
    braid_from_json,
)
from .laurent import LaurentPoly, laurent_from_json
from .linalg import charpoly, log_spectral_radius, spectral_radius
from .burau import BurauMatrix, FractionalPowersError, alexander, burau
from .entropy import EntropyResult, complexity, entropy, entropy_fixed_iterates
from .render import RenderSpec, render_braid, render_loop

__version__ = "0.1.0"

# Trajectory analysis needs numpy; load it only when one of its names is used.
_TRAJECTORY_NAMES = frozenset({
    "CoincidentProjectionError",
    "Crossing",
    "DataBraid",
    "TrajectorySet",
    "UndersampledDataError",
    "braid_from_data",
    "closure",
    "crossings_from_data",
    "databraid_from_data",
    "databraid_from_json",
    "db_compact",
    "db_equals",
    "db_mul",
    "db_to_braid",
    "db_trunc",
    "ftbe",
    "load_trajectories",
    "save_trajectories_csv",
    "trajectories_from_braid",
    "trajectories_from_json",
})


def __getattr__(name):
    if name in _TRAJECTORY_NAMES:
        from . import trajectories

        return getattr(trajectories, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
