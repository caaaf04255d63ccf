"""Command-line interface.

Words are quoted, space-separated signed integers (``"1 -2"``); loops take
their coordinate vector the same way.  Structured results are printed in the
standard display forms (``< 1 -2 >``, ``(( 0 -1 ))*``) or as JSON with
``--json``.  Exit code 2 signals a usage error, 1 a domain error with the
message on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import (
    AnnularBraid,
    act,
    act_with_matrix,
    canonical_loop,
    charpoly,
    compact,
    cycle,
    equals,
    fulltwist,
    get_prop,
    halftwist,
    intaxis,
    intersec,
    inverse,
    istrivial,
    loopcoords,
    make_annular_braid,
    make_braid,
    make_loop,
    minlength,
    mul,
    perm,
    power,
    random_braid,
    set_prop,
    subbraid,
    tensor,
    writhe,
)
from .burau import alexander, burau
from .config import PROP_KEYS
from .entropy import complexity, entropy
from .linalg import poly_str
from .render import RenderSpec, render_braid, render_loop
from .trajectories import (
    DataBraid,
    closure,
    databraid_from_data,
    db_to_braid,
    ftbe,
    load_trajectories,
)

TAFFY_FIXTURES = {
    "taffy3": [-2, 1, 1, -2],
    "taffy4": [1, 3, 2, 2, 1, 3],
    "taffy6": [3, 2, 1, 2, 4, 5, 4, 3, 3, 2, 1, 2, 5, 4, 5, 3],
    "taffy6bad": [2, 1, 2, 4, 5, 4, 3, 3, 2, 1, 2, 4, 5, 4],
}


def _parse_word(text: str):
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}: {exc}") from None


def _braid_arg(args, attr="word"):
    if getattr(args, "fixture", None):
        word = TAFFY_FIXTURES[args.fixture]
    else:
        word = _parse_word(getattr(args, attr))
    if getattr(args, "annular", False):
        return make_annular_braid(word, getattr(args, "n", None))
    return make_braid(word, getattr(args, "n", None))


def _loop_arg(text: str, basepoint: bool):
    return make_loop(_parse_word(text), basepoint)


def _emit(args, obj, text):
    if getattr(args, "json", False):
        print(json.dumps(obj))
    else:
        print(text)


def _braid_out(args, b):
    _emit(args, b.to_json(), str(b))


def _matrix_text(entries):
    return "\n".join(" ".join(str(x) for x in row) for row in entries)


# ------------------------------------------------------------- subcommands


def _cmd_braid(args):
    op = args.op
    if op == "make":
        _braid_out(args, _braid_arg(args))
    elif op == "mul":
        a = make_braid(_parse_word(args.word), args.n)
        b = make_braid(_parse_word(args.other), a.n)
        _braid_out(args, mul(a, b))
    elif op == "inverse":
        _braid_out(args, inverse(_braid_arg(args)))
    elif op == "power":
        _braid_out(args, power(make_braid(_parse_word(args.word), args.n), args.k))
    elif op == "compact":
        _braid_out(args, compact(_braid_arg(args)))
    elif op == "equals":
        a = make_braid(_parse_word(args.word), args.n)
        b = make_braid(_parse_word(args.other), a.n)
        result = equals(a, b)
        _emit(args, {"equal": result}, "1" if result else "0")
    elif op == "istrivial":
        b = _braid_arg(args)
        if isinstance(b, AnnularBraid):
            b = b.to_braid()
        result = istrivial(b)
        _emit(args, {"trivial": result}, "1" if result else "0")
    elif op == "perm":
        p = perm(_braid_arg(args))
        _emit(args, {"perm": list(p)}, " ".join(str(x) for x in p))
    elif op == "writhe":
        w = writhe(_braid_arg(args))
        _emit(args, {"writhe": w}, str(w))
    elif op == "subbraid":
        keep = _parse_word(args.keep)
        _braid_out(args, subbraid(_braid_arg(args), keep))
    elif op == "tensor":
        a = make_braid(_parse_word(args.word), args.n)
        b = make_braid(_parse_word(args.other))
        _braid_out(args, tensor(a, b))
    elif op == "random":
        _braid_out(args, random_braid(args.strands, args.length, args.seed))
    elif op == "halftwist":
        _braid_out(args, halftwist(args.strands))
    elif op == "fulltwist":
        _braid_out(args, fulltwist(args.strands))
    elif op == "annular":
        ab = make_annular_braid(_parse_word(args.word), args.n)
        _braid_out(args, ab.to_braid())
    else:  # pragma: no cover
        raise ValueError(f"unknown braid op {op}")


def _cmd_loop(args):
    op = args.op
    if op == "make":
        l = _loop_arg(args.coords, args.basepoint)
        _emit(args, l.to_json(), str(l))
    elif op == "canonical":
        l = canonical_loop(args.punctures, basepoint=not args.no_basepoint)
        _emit(args, l.to_json(), str(l))
    elif op == "intersec":
        inums = intersec(_loop_arg(args.coords, args.basepoint))
        _emit(
            args,
            {"mu": list(inums.mu), "nu": list(inums.nu)},
            " ".join(str(x) for x in inums.mu + inums.nu),
        )
    elif op == "minlength":
        v = minlength(_loop_arg(args.coords, args.basepoint))
        _emit(args, {"minlength": v}, str(v))
    elif op == "intaxis":
        v = intaxis(_loop_arg(args.coords, args.basepoint))
        _emit(args, {"intaxis": v}, str(v))
    else:  # pragma: no cover
        raise ValueError(f"unknown loop op {op}")


def _cmd_act(args):
    b = make_braid(_parse_word(args.word), args.n)
    l = _loop_arg(args.coords, args.basepoint)
    if args.matrix:
        image, M = act_with_matrix(b, l)
        _emit(
            args,
            {"loop": image.to_json(), "matrix": M.to_json()},
            str(image) + "\n" + _matrix_text(M.entries),
        )
    else:
        image = act(b, l)
        _emit(args, image.to_json(), str(image))


def _cmd_loopcoords(args):
    l = loopcoords(_braid_arg(args))
    _emit(args, l.to_json(), str(l))


def _cmd_cycle(args):
    b = _braid_arg(args)
    l0 = None
    if args.l0 is not None:
        l0 = _loop_arg(args.l0, args.basepoint)
    elif args.no_basepoint:
        l0 = canonical_loop(b.n, basepoint=False)
    result = cycle(b, l0=l0, maxit=args.maxit)
    if args.json:
        print(
            json.dumps(
                {
                    "preperiod": result.preperiod,
                    "period": result.period,
                    "matrices": [M.to_json() for M in result.matrices]
                    if args.iter
                    else [result.product().to_json()],
                }
            )
        )
        return
    print(f"preperiod = {result.preperiod}")
    print(f"period = {result.period}")
    mats = result.matrices if args.iter else [result.product()]
    for M in mats:
        print(_matrix_text(M.entries))
        print()


def _cmd_charpoly(args):
    b = _braid_arg(args)
    l0 = canonical_loop(b.n, basepoint=False) if args.no_basepoint else None
    result = cycle(b, l0=l0, maxit=args.maxit)
    coeffs = charpoly(result.product())
    _emit(args, {"coeffs": [int(c) for c in coeffs]}, poly_str(coeffs))


def _cmd_entropy(args):
    b = _braid_arg(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = entropy(b, tol=args.tol, maxit=args.maxit)
    for w in caught:
        print(f"Warning: {w.message}", file=sys.stderr)
    _emit(
        args,
        {
            "entropy": result.value,
            "converged": result.converged,
            "iterations": result.iterations,
            "reason": result.reason,
        },
        f"{result.value:.4f}",
    )


def _cmd_complexity(args):
    v = complexity(_braid_arg(args))
    _emit(args, {"complexity": v}, f"{v:.4f}")


def _cmd_burau(args):
    b = make_braid(_parse_word(args.word), args.n)
    if args.symbolic or args.at is None:
        B = burau(b)
        rows = [[p.display("t") for p in row] for row in B.entries]
        _emit(args, B.to_json(), "\n".join("[ " + ", ".join(row) + " ]" for row in rows))
    else:
        B = burau(b, _number(args.at))
        text = "\n".join(" ".join(_fmt_num(x) for x in row) for row in B.entries)
        _emit(args, B.to_json(), text)


def _number(text: str):
    v = float(text)
    return int(v) if v == int(v) else v


def _fmt_num(x):
    if isinstance(x, int):
        return str(x)
    return f"{float(x):g}"


def _cmd_alexander(args):
    b = make_braid(_parse_word(args.word), args.n)
    poly = alexander(b, centered=args.centered)
    _emit(args, poly.to_json(), poly.display("z"))


def _load_databraid(args) -> DataBraid:
    ts = load_trajectories(args.file)
    if args.closure != "none":
        ts = closure(ts, args.closure)
    return databraid_from_data(ts, angle=args.angle)


def _cmd_fromdata(args):
    db = _load_databraid(args)
    if args.databraid:
        _emit(
            args,
            db.to_json(),
            str(db.braid) + "\ntcross: " + " ".join(f"{t:g}" for t in db.tcross),
        )
    else:
        _braid_out(args, db_to_braid(db))


def _cmd_ftbe(args):
    db = _load_databraid(args)
    v = ftbe(db, T=args.T, norm=args.norm)
    _emit(args, {"ftbe": v}, f"{v:.4f}")


def _cmd_render(args):
    spec = RenderSpec(direction=args.direction, width=args.width, height=args.height)
    if args.kind == "braid":
        obj = _braid_arg(args)
        svg = render_braid(obj, spec)
    else:
        svg = render_loop(_loop_arg(args.word, args.basepoint), spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(args.out)


def _cmd_prop(args):
    if args.op == "get":
        value = get_prop(args.name)
        if isinstance(value, bool):
            text = "1" if value else "0"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        _emit(args, {args.name: value}, text)
    else:
        set_prop(args.name, args.value)
        value = get_prop(args.name)
        _emit(args, {args.name: value}, f"{args.name} = {value}")


# ----------------------------------------------------------------- parser


def _add_word_opts(p, fixture=True, annular=True):
    p.add_argument("word", nargs="?", default="", help="space-separated signed generator indices")
    p.add_argument("--n", type=int, default=None, help="strand count (default: minimal)")
    if fixture:
        p.add_argument("--fixture", choices=sorted(TAFFY_FIXTURES), default=None)
    if annular:
        p.add_argument("--annular", action="store_true", help="treat the word as an annular braid")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="braidkit", description=__doc__)
    ap.add_argument("--json", action="store_true", help="emit JSON instead of display text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pb = sub.add_parser("braid", help="braid algebra operations")
    pb.add_argument(
        "op",
        choices=[
            "make", "mul", "inverse", "power", "compact", "equals", "istrivial",
            "perm", "writhe", "subbraid", "tensor", "random", "halftwist",
            "fulltwist", "annular",
        ],
    )
    _add_word_opts(pb)
    pb.add_argument("other", nargs="?", default="", help="second word (mul/equals/tensor)")
    pb.add_argument("--k", type=int, default=2, help="exponent for power")
    pb.add_argument("--keep", default="", help="strands to keep for subbraid")
    pb.add_argument("--strands", type=int, default=3, help="strand count for random/halftwist")
    pb.add_argument("--length", type=int, default=10, help="word length for random")
    pb.add_argument("--seed", type=int, default=None)
    pb.set_defaults(func=_cmd_braid)

    pl = sub.add_parser("loop", help="loop coordinate operations")
    pl.add_argument("op", choices=["make", "canonical", "intersec", "minlength", "intaxis"])
    pl.add_argument("coords", nargs="?", default="", help="coordinate vector")
    pl.add_argument("--punctures", type=int, default=3, help="puncture count for canonical")
    pl.add_argument("--basepoint", action="store_true")
    pl.add_argument("--no-basepoint", action="store_true", help="canonical loop without basepoint")
    pl.set_defaults(func=_cmd_loop)

    pa = sub.add_parser("act", help="act on a loop with a braid")
    pa.add_argument("word")
    pa.add_argument("coords")
    pa.add_argument("--n", type=int, default=None)
    pa.add_argument("--basepoint", action="store_true")
    pa.add_argument("--matrix", action="store_true", help="also print the effective linear action")
    pa.set_defaults(func=_cmd_act)

    pc = sub.add_parser("loopcoords", help="canonical loop coordinates of a braid")
    _add_word_opts(pc)
    pc.set_defaults(func=_cmd_loopcoords)

    py = sub.add_parser("cycle", help="limit cycle of the effective linear action")
    _add_word_opts(py)
    py.add_argument("--l0", default=None, help="starting loop coordinates")
    py.add_argument("--basepoint", action="store_true", help="--l0 carries a basepoint")
    py.add_argument("--no-basepoint", action="store_true", help="start from the plain canonical loop")
    py.add_argument("--iter", action="store_true", help="per-iterate matrices instead of the product")
    py.add_argument("--maxit", type=int, default=1000)
    py.set_defaults(func=_cmd_cycle)

    pp = sub.add_parser("charpoly", help="characteristic polynomial of the cycle product")
    _add_word_opts(pp)
    pp.add_argument("--no-basepoint", action="store_true")
    pp.add_argument("--maxit", type=int, default=1000)
    pp.set_defaults(func=_cmd_charpoly)

    pe = sub.add_parser("entropy", help="iterative topological entropy estimate")
    _add_word_opts(pe)
    pe.add_argument("--tol", type=float, default=1e-6)
    pe.add_argument("--maxit", type=int, default=1000)
    pe.set_defaults(func=_cmd_entropy)

    px = sub.add_parser("complexity", help="one-step geometric complexity")
    _add_word_opts(px)
    px.set_defaults(func=_cmd_complexity)

    pu = sub.add_parser("burau", help="reduced Burau matrix")
    pu.add_argument("word")
    pu.add_argument("--n", type=int, default=None)
    pu.add_argument("--at", default=None, help="evaluate the entries at this value of t")
    pu.add_argument("--symbolic", action="store_true")
    pu.set_defaults(func=_cmd_burau)

    pal = sub.add_parser("alexander", help="Alexander-Conway polynomial of the closure")
    pal.add_argument("word")
    pal.add_argument("--n", type=int, default=None)
    pal.add_argument("--centered", action="store_true")
    pal.set_defaults(func=_cmd_alexander)

    pf = sub.add_parser("fromdata", help="braid from a trajectory file (CSV or JSON)")
    pf.add_argument("file")
    pf.add_argument("--angle", type=float, default=0.0)
    pf.add_argument("--closure", choices=["default", "mindist", "none"], default="none")
    pf.add_argument("--databraid", action="store_true", help="include crossing times")
    pf.set_defaults(func=_cmd_fromdata)

    pt = sub.add_parser("ftbe", help="finite-time braiding exponent of a trajectory file")
    pt.add_argument("file")
    pt.add_argument("--angle", type=float, default=0.0)
    pt.add_argument("--closure", choices=["default", "mindist", "none"], default="none")
    pt.add_argument("--T", type=float, default=None)
    pt.add_argument("--norm", choices=["intaxis", "minlength"], default="intaxis")
    pt.set_defaults(func=_cmd_ftbe)

    pr = sub.add_parser("render", help="render a braid or loop to SVG")
    pr.add_argument("kind", choices=["braid", "loop"])
    pr.add_argument("word", help="braid word or loop coordinates")
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--fixture", choices=sorted(TAFFY_FIXTURES), default=None)
    pr.add_argument("--annular", action="store_true")
    pr.add_argument("--basepoint", action="store_true")
    pr.add_argument("--out", required=True, help="output SVG path")
    pr.add_argument("--direction", choices=["bt", "tb", "lr", "rl"], default=None)
    pr.add_argument("--width", type=int, default=480)
    pr.add_argument("--height", type=int, default=360)
    pr.set_defaults(func=_cmd_render)

    pg = sub.add_parser("prop", help="get or set a global property")
    pg.add_argument("op", choices=["get", "set"])
    pg.add_argument("name", choices=sorted(PROP_KEYS))
    pg.add_argument("value", nargs="?", default=None)
    pg.set_defaults(func=_cmd_prop)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
