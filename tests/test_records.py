"""The value records on the one record base: construction, repr, equality,
hashing, immutability, replace and pickling, pinned to what they were as
dataclasses."""
import pickle

import numpy as np
import pytest

import braidkit as bk
from braidkit.config import Record, replace
from braidkit.action import CycleResult, LinearAction
from braidkit.config import Properties
from braidkit.loops import IntersectionNumbers, Loop
from braidkit.trajectories import Crossing

_LA = ((1, 2), (0, 1))

# name: (build, repr, hash where it is the same in every process, a change)
RECORDS = {
    "Loop": (
        lambda: Loop((0, 1), (-1, 2), True),
        "Loop(a=(0, 1), b=(-1, 2), basepoint=True)", -9003532678339338914, {"basepoint": False},
    ),
    "IntersectionNumbers": (
        lambda: IntersectionNumbers((1, 2), (3,)),
        "IntersectionNumbers(mu=(1, 2), nu=(3,))", -8303551883679707139, {"nu": (4,)},
    ),
    "Properties": (
        Properties,
        "Properties(gen_rot_dir=1, gen_loop_act_dir='lr', gen_plot_over_under=True, "
        "braid_abs_tol=1e-10, braid_plot_dir='bt', loop_coords_base_point='right')", None, {"gen_rot_dir": -1},
    ),
    "Braid": (
        lambda: bk.make_braid([1, -2]),
        "Braid(word=(1, -2), n=3)", -4491848588534745594, {"n": 4},
    ),
    "AnnularBraid": (
        lambda: bk.make_annular_braid([1, 2, -3]),
        "AnnularBraid(word=(1, 2, -3), nann=3)", -2827736430657497804, {"word": (1, 2, 3)},
    ),
    "LinearAction": (
        lambda: LinearAction(_LA),
        "LinearAction(entries=((1, 2), (0, 1)))", 663568956065269905, {"entries": ((1,),)},
    ),
    "CycleResult": (
        lambda: CycleResult(0, 1, (LinearAction(_LA),)),
        "CycleResult(preperiod=0, period=1, matrices=(LinearAction(entries=((1, 2), (0, 1))),))",
        8941655347728444862, {"preperiod": 2},
    ),
    "EntropyResult": (
        lambda: bk.EntropyResult(0.5, True, 12),
        "EntropyResult(value=0.5, converged=True, iterations=12, reason='converged')", None, {"value": 0.25},
    ),
    "LaurentPoly": (
        lambda: bk.LaurentPoly(-1, (1, 0, -2)),
        "LaurentPoly(lowest=-1, coeffs=(1, 0, -2))", -1303490765473271142, {"lowest": 0},
    ),
    "BurauMatrix": (
        lambda: bk.burau(bk.make_braid([1, -2])),
        "BurauMatrix(entries=((LaurentPoly(lowest=1, coeffs=(-1,)), LaurentPoly(lowest=1, coeffs=(1,))), "
        "(LaurentPoly(lowest=0, coeffs=(-1,)), LaurentPoly(lowest=-1, coeffs=(-1, 1)))), symbolic=True)",
        7996688983948622499, {"symbolic": False},
    ),
    "RenderSpec": (
        bk.RenderSpec,
        "RenderSpec(direction=None, over_under=None, width=480, height=360)", None, {"width": 500},
    ),
    "TrajectorySet": (
        lambda: bk.TrajectorySet([0.0, 1.0], [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]),
        "TrajectorySet(times=array([0., 1.]), positions=array([[[0., 0.],\n        [1., 0.]],\n\n"
        "       [[0., 1.],\n        [1., 1.]]]))", None, {"times": [0.0, 2.0]},
    ),
    "Crossing": (
        lambda: Crossing(0.5, 1, -1),
        "Crossing(t=0.5, pos=1, sign=-1)", 8734024199645193207, {"sign": 1},
    ),
    "DataBraid": (
        lambda: bk.DataBraid(bk.make_braid([1]), (0.5,)),
        "DataBraid(braid=Braid(word=(1,), n=2), tcross=(0.5,))", -4715789987902433539, {"tcross": (0.25,)},
    ),
}
MUTABLE = {"Properties", "RenderSpec"}


def _fields(r):
    return tuple(getattr(r, f) for f in type(r)._fields)


def test_every_record_is_on_the_base():
    assert {name for name in RECORDS if isinstance(RECORDS[name][0](), Record)} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    build, text, _, _ = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"TrajectorySet"}))
def test_equality_and_hash(name):
    build, _, pinned, change = RECORDS[name]
    a, b = build(), build()
    assert a == b and not a != b
    assert a != replace(a, **change)
    assert a.__eq__(1) is NotImplemented and a != _fields(a)
    if name in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    assert hash(a) == hash(b)
    if name not in ("Braid", "AnnularBraid"):  # they hash their canonical coordinates
        assert hash(a) == hash(_fields(a))
    if pinned is not None:
        assert hash(a) == pinned


def test_records_of_different_classes_are_unequal():
    # equal field tuples, different classes
    class A(Record):
        x: int

    class B(Record):
        x: int

    assert A(1) == A(1) and A(1) != B(1) and B(1) != A(1)
    assert Loop((1,), (3,)) != IntersectionNumbers((1,), (3,))


def test_trajectory_sets_compare_their_arrays_as_a_tuple_does():
    build = RECORDS["TrajectorySet"][0]
    a = build()
    assert a == a and a.__eq__(1) is NotImplemented
    with pytest.raises(ValueError, match="ambiguous"):
        a == build()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_or_mutable(name):
    r = RECORDS[name][0]()
    field = type(r)._fields[0]
    if name in MUTABLE:
        setattr(r, field, getattr(r, field))
        r.extra = 1
        del r.extra
        return
    for attr in (field, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(r, attr, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(r, attr)


@pytest.mark.parametrize("name", RECORDS)
def test_replace_changes_one_field_through_init(name):
    build, _, _, change = RECORDS[name]
    r = build()
    new = replace(r, **change)
    assert type(new) is type(r)
    for f in type(r)._fields:
        expected = change[f] if f in change else getattr(r, f)
        assert np.array_equal(getattr(new, f), expected) if name == "TrajectorySet" else getattr(new, f) == expected
    assert repr(replace(r)) == repr(r)
    with pytest.raises(TypeError):
        replace(r, no_such_field=1)


def test_replace_runs_post_init():
    b = bk.make_braid([1, -2])
    with pytest.raises(ValueError, match="needs more than 3 strands"):
        replace(b, word=(3,))
    assert replace(bk.LaurentPoly(0, (1,)), coeffs=(0, 0, 2, 0)) == bk.LaurentPoly(2, (2,))
    with pytest.raises(ValueError, match="width"):
        replace(bk.RenderSpec(), width=60)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    r = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is type(r) and repr(back) == repr(r)
    if name != "TrajectorySet":
        assert back == r


def test_init_signature_defaults_and_errors():
    assert bk.LaurentPoly() == bk.LaurentPoly(0, ()) == bk.LaurentPoly(coeffs=(), lowest=0)
    assert Loop((0,), (-1,)).basepoint is False and Loop.basepoint is False
    assert bk.EntropyResult(0.0, False, 3).reason == "budget"
    with pytest.raises(TypeError, match=r"Braid\.__init__\(\) missing 1 required positional argument: 'n'"):
        bk.Braid((1,))
    with pytest.raises(TypeError, match="unexpected keyword argument 'x'"):
        bk.LaurentPoly(x=1)
    with pytest.raises(TypeError, match="positional argument"):
        bk.LaurentPoly(0, (1,), 2)


def test_caches_live_in_the_instance_dict():
    b = bk.make_annular_braid([1, 2, -3])
    hash(b), bk.writhe(b)
    assert {"_canonical", "_braid"} <= set(vars(b))
    assert repr(b) == RECORDS["AnnularBraid"][1]  # caches are not fields
    back = pickle.loads(pickle.dumps(b))
    assert vars(back).keys() == vars(b).keys() and back == b
