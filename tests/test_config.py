import os
import subprocess
import sys

import pytest

import braidkit as bk
from braidkit.config import get_prop, set_prop

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_defaults():
    assert get_prop("GenRotDir") == 1
    assert get_prop("GenLoopActDir") == "lr"
    assert get_prop("GenPlotOverUnder") is True
    assert get_prop("BraidAbsTol") == 1e-10
    assert get_prop("BraidPlotDir") == "bt"
    assert get_prop("LoopCoordsBasePoint") == "right"


def test_set_and_validate():
    set_prop("BraidAbsTol", "1e-8")
    try:
        assert get_prop("BraidAbsTol") == 1e-8
    finally:
        set_prop("BraidAbsTol", "1e-10")
    with pytest.raises(ValueError):
        set_prop("GenRotDir", "2")
    with pytest.raises(ValueError):
        set_prop("LoopCoordsBasePoint", "left")
    with pytest.raises(KeyError):
        set_prop("NoSuchKey", "1")


@pytest.mark.parametrize("raw", ["nan", "-1e-10"])
def test_braid_abs_tol_must_be_a_nonnegative_number(raw):
    # a NaN tolerance used to be accepted, after which two particles that
    # coincide at a sample gave < -1 > instead of a CoincidentProjectionError
    try:
        with pytest.raises(ValueError, match="BraidAbsTol must be nonnegative"):
            set_prop("BraidAbsTol", raw)
        assert get_prop("BraidAbsTol") == 1e-10
    finally:
        set_prop("BraidAbsTol", "1e-10")


def test_env_override_applies_at_import():
    code = "import braidkit; print(braidkit.get_prop('BraidAbsTol'))"
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],  # -B: no bytecode written into src
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "BRAIDKIT_BRAIDABSTOL": "1e-7"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1e-07"


def test_annular_single_puncture_ring_generator():
    ab = bk.make_annular_braid([1])
    assert ab.nann == 1 and ab.n == 2
    assert ab.to_braid().word == (1, 1)
    inv = bk.make_annular_braid([-1])
    assert inv.to_braid().word == (-1, -1)
    assert bk.istrivial(bk.mul(ab.to_braid(), inv.to_braid()))
