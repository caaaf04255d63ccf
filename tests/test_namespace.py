"""The lazy package namespace, what each CLI command loads, and the
package's private helpers."""
import ast
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import braidkit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The public names of the package as its eager imports defined them.
PUBLIC_NAMES = {
    "Properties", "properties", "get_prop", "set_prop", "PROP_KEYS",
    "Loop", "IntersectionNumbers", "make_loop", "canonical_loop", "intersec", "minlength",
    "intaxis", "loop_from_json",
    "LinearAction", "CycleResult", "CycleNotFoundError", "apply_generator", "act",
    "act_with_matrix", "loopcoords", "cycle",
    "Braid", "AnnularBraid", "make_braid", "make_annular_braid", "identity_braid", "mul",
    "embed", "inverse", "power", "equals", "lexeq", "istrivial", "compact", "perm", "ispure",
    "writhe", "subbraid", "tensor", "random_braid", "halftwist", "fulltwist", "braid_from_json",
    "LaurentPoly", "laurent_from_json",
    "charpoly", "log_spectral_radius", "spectral_radius",
    "BurauMatrix", "FractionalPowersError", "alexander", "burau",
    "EntropyResult", "complexity", "entropy", "entropy_fixed_iterates",
    "RenderSpec", "render_braid", "render_loop",
    "CoincidentProjectionError", "Crossing", "DataBraid", "TrajectorySet",
    "UndersampledDataError", "braid_from_data", "closure", "crossings_from_data",
    "databraid_from_data", "databraid_from_json", "db_compact", "db_equals", "db_mul",
    "db_to_braid", "db_trunc", "ftbe", "load_trajectories", "save_trajectories_csv",
    "trajectories_from_braid", "trajectories_from_json",
}


def _fresh(code, *argv):
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_public_names_are_the_pinned_list():
    assert set(braidkit.__all__) == PUBLIC_NAMES
    assert set(dir(braidkit)) == PUBLIC_NAMES
    star = {}
    exec("from braidkit import *", star)
    star.pop("__builtins__")
    assert set(star) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(braidkit, name)
        assert not isinstance(value, types.ModuleType), name
        assert getattr(braidkit, name) is value  # cached after the first use


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        braidkit.no_such_name


def test_import_loads_no_submodule():
    code = "import sys, braidkit; print(sorted(m for m in sys.modules if m.startswith('braidkit.')))"
    assert _fresh(code).strip() == "[]"


def test_submodule_import_keeps_the_functions():
    code = (
        "import types, braidkit.burau, braidkit.entropy\n"
        "import braidkit\n"
        "print(all(isinstance(f, types.FunctionType) for f in (braidkit.burau, braidkit.entropy)))\n"
        "print(braidkit.burau(braidkit.make_braid([1]), 2).entries, braidkit.entropy(braidkit.make_braid([1, -2])).value > 0)"
    )
    assert _fresh(code).split("\n")[:2] == ["True", "((-2,),) True"]


_LOADED_BY_CLI = """
import io, json, sys, contextlib
from braidkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in ('braidkit', 'numpy', 'scipy', 'fractions', 'decimal', 'logging', 'dataclasses', 'inspect'))]))
"""


def _loaded_by(*argv):
    code, modules = json.loads(_fresh(_LOADED_BY_CLI, *argv))
    assert code == 0
    return set(modules)


def test_cli_entropy_loads_only_the_action_layers():
    loaded = _loaded_by("entropy", "1 2 -3")
    assert "braidkit.entropy" in loaded
    heavy = {"braidkit.render", "braidkit.burau", "braidkit.laurent", "braidkit.trajectories"}
    assert not loaded & heavy
    assert not {m for m in loaded if m.split(".")[0] in ("numpy", "scipy")}


def test_cli_cycle_loads_the_row_codec_without_fractions():
    # act_with_matrix packs its rows with the slot codec of linalg, which
    # needs neither LaurentPoly nor Fraction
    for argv in (("cycle", "1 -2"), ("charpoly", "1 -2"), ("act", "1 -2", "0 -1", "--matrix")):
        loaded = _loaded_by(*argv)
        assert "braidkit.linalg" in loaded
        assert not loaded & {"braidkit.laurent", "fractions"}, argv


def test_cli_alexander_and_symbolic_burau_load_no_fractions_or_logging():
    # Fraction enters only on the integer-t path of burau, and logging only
    # when an elimination step widens its slot
    for argv in (("alexander", "1 2 -3"), ("burau", "1 -2", "--symbolic")):
        loaded = _loaded_by(*argv)
        assert {"braidkit.burau", "braidkit.laurent", "braidkit.linalg"} <= loaded, argv
        assert not loaded & {"fractions", "decimal", "logging"}, argv


def test_laurent_determinants_do_not_load_logging():
    code = (
        "import sys, braidkit as bk\n"
        "from braidkit.linalg import det_exact\n"
        "t = bk.LaurentPoly.var()\n"
        "bk.alexander(bk.random_braid(7, 200, 1)); bk.burau(bk.make_braid([1, -2, 3], 4)).det()\n"
        "det_exact([[t, 1, 2], [0, 1 - t, t], [t * t, 3, 0]])\n"
        "print('logging' in sys.modules)"
    )
    assert _fresh(code).strip() == "False"


def test_cli_ftbe_mindist_loads_no_scipy(tmp_path):
    path = tmp_path / "tracks.csv"
    braidkit.save_trajectories_csv(braidkit.trajectories_from_braid(braidkit.make_braid([1, -2, 1, 2])), path)
    loaded = _loaded_by("ftbe", str(path), "--closure", "mindist")
    assert "braidkit.trajectories" in loaded and "numpy" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_cli_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # the records are on braidkit's own base; numpy imports inspect itself,
    # so the numpy commands are held to dataclasses only
    path = tmp_path / "tracks.csv"
    braidkit.save_trajectories_csv(braidkit.trajectories_from_braid(braidkit.make_braid([1, -2, 1, 2])), path)
    for argv in (
        ("entropy", "1 2 -3"), ("cycle", "1 -2"), ("alexander", "1 2 -3"), ("burau", "1 -2", "--symbolic"),
        ("render", "braid", "1 2 -1", "--out", str(tmp_path / "b.svg")), ("ftbe", str(path)),
    ):
        loaded = _loaded_by(*argv)
        assert "dataclasses" not in loaded, argv
        assert "inspect" not in loaded or "numpy" in loaded, argv
    assert "numpy" not in _loaded_by("render", "braid", "1 2 -1", "--out", str(tmp_path / "b.svg"))


def test_no_module_imports_dataclasses():
    modules = ", ".join(f"braidkit.{m}" for m in (*braidkit._EXPORTS, "cli"))
    code = f"import sys, {modules}\nprint('dataclasses' in sys.modules)"
    assert _fresh(code).strip() == "False"


def test_only_the_matrix_commands_load_linalg(tmp_path):
    # action and burau import the slot codec, the matrix products and the
    # determinant from linalg where they run, so the commands that never
    # build a matrix or take a determinant do not load, or compile, linalg;
    # an evaluated Burau matrix loads no laurent either
    path = tmp_path / "tracks.csv"
    braidkit.save_trajectories_csv(braidkit.trajectories_from_braid(braidkit.make_braid([1, -2, 1, 2])), path)
    for argv in (
        ("braid", "compact", "1 2 1 -2 -1"), ("braid", "equals", "1 2 1", "2 1 2"), ("loopcoords", "1 -2"),
        ("entropy", "1 2 -3"), ("render", "braid", "1 2 -1", "--out", str(tmp_path / "b.svg")),
        ("fromdata", str(path), "--databraid"), ("ftbe", str(path), "--closure", "mindist"),
    ):
        assert "braidkit.linalg" not in _loaded_by(*argv), argv
    for at in ("2", "0.5"):
        loaded = _loaded_by("burau", "1 -2 1 2 -1 2", "--at", at, "--n", "3")
        assert "braidkit.burau" in loaded and not loaded & {"braidkit.linalg", "braidkit.laurent"}, at
    for argv in (("act", "1 -2", "0 -1", "--matrix"), ("cycle", "1 -2"), ("charpoly", "1 -2")):
        assert "braidkit.linalg" in _loaded_by(*argv), argv


def test_every_private_module_level_helper_has_a_reference_in_src():
    # a module-level function or class named with one leading underscore
    # serves src alone, so one that src names nowhere outside its own
    # definition is dead code
    helpers, named = set(), set()
    for path in pathlib.Path(SRC, "braidkit").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own[:1] == "_" and own[:2] != "__":
                helpers.add(own)
            for node in ast.walk(top):
                ref = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and ref != own:
                    named.add(ref)
    assert helpers
    assert not helpers - named, f"no reference in src: {sorted(helpers - named)}"
