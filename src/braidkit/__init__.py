"""braidkit: braids, loops, and the dynamics between them.

Exact braid-group algebra on generator words, Dynnikov-style loop
coordinates with the piecewise-linear braid action, iterative topological
entropy estimation, Burau/Alexander polynomial invariants, and conversion of
sampled 2-D trajectories into braids.

The public names are loaded lazily (PEP 562): ``import braidkit`` runs no
submodule, and the first use of a name imports the one module that defines
it, so a script pays only for the layers it touches.  numpy, for instance,
loads only with the trajectory names, ``random_braid``, ``spectral_radius``
and ``log_spectral_radius``.  ``braidkit.burau`` and ``braidkit.entropy`` are
always the functions, never the submodules of the same names; ``from
braidkit.burau import ...`` still reaches the module.
"""
import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("Properties", "properties", "get_prop", "set_prop", "PROP_KEYS"),
    "loops": (
        "Loop", "IntersectionNumbers", "make_loop", "canonical_loop", "intersec",
        "minlength", "intaxis", "loop_from_json",
    ),
    "action": (
        "LinearAction", "CycleResult", "CycleNotFoundError", "apply_generator", "act",
        "act_with_matrix", "loopcoords", "cycle",
    ),
    "braids": (
        "Braid", "AnnularBraid", "make_braid", "make_annular_braid", "identity_braid",
        "mul", "embed", "inverse", "power", "equals", "lexeq", "istrivial", "compact",
        "perm", "ispure", "writhe", "subbraid", "tensor", "random_braid", "halftwist",
        "fulltwist", "braid_from_json",
    ),
    "laurent": ("LaurentPoly", "laurent_from_json"),
    "linalg": ("charpoly", "log_spectral_radius", "spectral_radius"),
    "burau": ("BurauMatrix", "FractionalPowersError", "alexander", "burau"),
    "entropy": ("EntropyResult", "complexity", "entropy", "entropy_fixed_iterates"),
    "render": ("RenderSpec", "render_braid", "render_loop"),
    "trajectories": (
        "CoincidentProjectionError", "Crossing", "DataBraid", "TrajectorySet",
        "UndersampledDataError", "braid_from_data", "closure", "crossings_from_data",
        "databraid_from_data", "databraid_from_json", "db_compact", "db_equals", "db_mul",
        "db_to_braid", "db_trunc", "ftbe", "load_trajectories", "save_trajectories_csv",
        "trajectories_from_braid", "trajectories_from_json",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__


class _Namespace(types.ModuleType):
    """The package module.  Importing a submodule binds it on its package,
    which would put the modules ``burau`` and ``entropy`` in place of the
    functions of the same names; such bindings are dropped."""

    def __setattr__(self, name, value):
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
