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

import braidkit as bk

# Handlers reach the library through the lazy package, so a command loads
# only the modules it calls; argparse needs the property names up front.
from .config import PROP_KEYS, replace

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


def _braid_arg(args, word=None):
    """The braid of ``word`` (default: ``--fixture`` or the word argument),
    read with ``--n`` and ``--annular``."""
    if word is None:
        word = TAFFY_FIXTURES[args.fixture] if args.fixture else _parse_word(args.word)
    if args.annular:
        return bk.make_annular_braid(word, args.n)
    return bk.make_braid(word, args.n)


def _other_arg(args, a):
    """The second word of ``braid mul|equals``, as a braid of the first
    braid's type and strand count."""
    return replace(a, word=_parse_word(args.other))


def _loop_arg(text: str, basepoint: bool):
    return bk.make_loop(_parse_word(text), basepoint)


def _emit(args, obj, text):
    if getattr(args, "json", False):
        print(json.dumps(obj, allow_nan=False))
    else:
        print(text)


def _record(v):
    """A record's JSON and display forms, for :func:`_emit`."""
    return v.to_json(), str(v)


def _keyed(key):
    """The output shape ``{key: v}`` for :func:`_emit`; as text, a flag is 1 or
    0 and a tuple is space-separated."""
    def shape(v):
        if isinstance(v, tuple):
            return {key: list(v)}, " ".join(map(str, v))
        return {key: v}, ("1" if v else "0") if isinstance(v, bool) else str(v)
    return shape


def _matrix_text(entries):
    return "\n".join(" ".join(str(x) for x in row) for row in entries)


# ------------------------------------------------------------- subcommands

# The ops of `braid` and `loop`, in the order of their help: each maps to its
# handler and its output shape.
_BRAID_OPS = {
    "make": (_braid_arg, _record),
    "mul": (lambda args: bk.mul(a := _braid_arg(args), _other_arg(args, a)), _record),
    "inverse": (lambda args: bk.inverse(_braid_arg(args)), _record),
    "power": (lambda args: bk.power(_braid_arg(args), args.k), _record),
    "compact": (lambda args: bk.compact(_braid_arg(args)), _record),
    "equals": (lambda args: bk.equals(a := _braid_arg(args), _other_arg(args, a)), _keyed("equal")),
    "istrivial": (lambda args: bk.istrivial(_braid_arg(args)), _keyed("trivial")),
    "perm": (lambda args: bk.perm(_braid_arg(args)), _keyed("perm")),
    "writhe": (lambda args: bk.writhe(_braid_arg(args)), _keyed("writhe")),
    "subbraid": (lambda args: bk.subbraid(keep=_parse_word(args.keep), b=_braid_arg(args)), _record),
    "tensor": (lambda args: bk.tensor(_braid_arg(args), _braid_arg(args, _parse_word(args.other))), _record),
    "random": (lambda args: bk.random_braid(args.strands, args.length, args.seed), _record),
    "halftwist": (lambda args: bk.halftwist(args.strands), _record),
    "fulltwist": (lambda args: bk.fulltwist(args.strands), _record),
    "annular": (lambda args: bk.make_annular_braid(_parse_word(args.word), args.n).to_braid(), _record),
}

_LOOP_OPS = {
    "make": (lambda args: _loop_arg(args.coords, args.basepoint), _record),
    "canonical": (lambda args: bk.canonical_loop(args.punctures, basepoint=not args.no_basepoint), _record),
    "intersec": (
        lambda args: bk.intersec(_loop_arg(args.coords, args.basepoint)),
        lambda i: ({"mu": list(i.mu), "nu": list(i.nu)}, " ".join(map(str, i.mu + i.nu))),
    ),
    "minlength": (lambda args: bk.minlength(_loop_arg(args.coords, args.basepoint)), _keyed("minlength")),
    "intaxis": (lambda args: bk.intaxis(_loop_arg(args.coords, args.basepoint)), _keyed("intaxis")),
}


def _run_op(ops):
    """The command that runs ``args.op`` of the table ``ops``."""
    def run(args):
        handler, shape = ops[args.op]
        _emit(args, *shape(handler(args)))
    return run


def _cmd_act(args):
    b = _braid_arg(args)
    l = _loop_arg(args.coords, args.basepoint)
    if args.matrix:
        image, M = bk.act_with_matrix(b, l)
        _emit(
            args,
            {"loop": image.to_json(), "matrix": M.to_json()},
            str(image) + "\n" + _matrix_text(M.entries),
        )
    else:
        _emit(args, *_record(bk.act(b, l)))


def _cmd_loopcoords(args):
    _emit(args, *_record(bk.loopcoords(_braid_arg(args))))


def _cmd_cycle(args):
    b = _braid_arg(args)
    l0 = None
    if args.l0 is not None:
        l0 = _loop_arg(args.l0, args.basepoint)
    elif args.no_basepoint:
        l0 = bk.canonical_loop(b.n, basepoint=False)
    result = bk.cycle(b, l0=l0, maxit=args.maxit)
    mats = result.matrices if args.iter else [result.product()]
    head = [f"preperiod = {result.preperiod}", f"period = {result.period}"]
    _emit(
        args,
        {"preperiod": result.preperiod, "period": result.period, "matrices": [M.to_json() for M in mats]},
        "\n".join(head + [_matrix_text(M.entries) + "\n" for M in mats]),  # a blank line after each matrix
    )


def _cmd_charpoly(args):
    from .linalg import poly_str

    b = _braid_arg(args)
    l0 = bk.canonical_loop(b.n, basepoint=False) if args.no_basepoint else None
    result = bk.cycle(b, l0=l0, maxit=args.maxit)
    coeffs = bk.charpoly(result.product())
    _emit(args, {"coeffs": [int(c) for c in coeffs]}, poly_str(coeffs))


def _cmd_entropy(args):
    b = _braid_arg(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = bk.entropy(b, tol=args.tol, maxit=args.maxit)
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
    v = bk.complexity(_braid_arg(args))
    _emit(args, {"complexity": v}, f"{v:.4f}")


def _cmd_burau(args):
    b = _braid_arg(args)
    if args.symbolic or args.at is None:
        B = bk.burau(b)
        rows = [[p.display("t") for p in row] for row in B.entries]
        _emit(args, B.to_json(), "\n".join("[ " + ", ".join(row) + " ]" for row in rows))
    else:
        B = bk.burau(b, args.at)
        text = "\n".join(" ".join(_fmt_num(x) for x in row) for row in B.entries)
        _emit(args, B.to_json(), text)


def _number(text: str):
    """``--at``: a finite number, an int when it is whole; anything else is
    a usage error.  ``float`` refuses a word that is not a number, and
    ``int`` an infinity or NaN."""
    try:
        v = float(text)
        return int(v) if v == int(v) else v
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"t must be a finite number, got {text!r}") from None


def _fmt_num(x):
    from .burau import entry_float

    return str(x) if isinstance(x, int) else f"{entry_float(x):g}"


def _cmd_alexander(args):
    b = _braid_arg(args)
    poly = bk.alexander(b, centered=args.centered)
    _emit(args, poly.to_json(), poly.display("z"))


def _load_databraid(args):
    ts = bk.load_trajectories(args.file)
    if args.closure != "none":
        ts = bk.closure(ts, args.closure)
    return bk.databraid_from_data(ts, angle=args.angle)


def _cmd_fromdata(args):
    db = _load_databraid(args)
    if args.databraid:
        _emit(
            args,
            db.to_json(),
            str(db.braid) + "\ntcross: " + " ".join(f"{t:g}" for t in db.tcross),
        )
    else:
        _emit(args, *_record(db.braid))


def _cmd_ftbe(args):
    db = _load_databraid(args)
    v = bk.ftbe(db, T=args.T, norm=args.norm)
    _emit(args, {"ftbe": v}, f"{v:.4f}")


def _cmd_render(args):
    spec = bk.RenderSpec(direction=args.direction, width=args.width, height=args.height)
    if args.kind == "braid":
        obj = _braid_arg(args)
        svg = bk.render_braid(obj, spec)
    else:
        svg = bk.render_loop(_loop_arg(args.word, args.basepoint), spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(args.out)


def _cmd_prop(args):
    if args.op == "get":
        _emit(args, *_keyed(args.name)(bk.get_prop(args.name)))
    else:
        bk.set_prop(args.name, args.value)
        value = bk.get_prop(args.name)
        _emit(args, {args.name: value}, f"{args.name} = {value}")


# ----------------------------------------------------------------- parser


def _add_word_opts(p):
    p.add_argument("word", nargs="?", default="", help="space-separated signed generator indices")
    p.add_argument("--n", type=int, default=None, help="strand count (default: minimal)")
    p.add_argument("--fixture", choices=sorted(TAFFY_FIXTURES), default=None)
    p.add_argument("--annular", action="store_true", help="treat the word as an annular braid")


def build_parser(cmd=None) -> argparse.ArgumentParser:
    """The parser of every command; with ``cmd``, the first argument of
    ``main`` that is not an option, only that subparser gets its arguments.
    Help and usage errors read the same: every subparser keeps its help line."""
    ap = argparse.ArgumentParser(prog="braidkit", description=__doc__)
    ap.add_argument("--json", action="store_true", help="emit JSON instead of display text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, help, func):
        sub.add_parser(name, help=help).set_defaults(func=func)
        return sub.choices[name] if cmd in (None, name) else None

    if p := command("braid", "braid algebra operations", _run_op(_BRAID_OPS)):
        p.add_argument("op", choices=list(_BRAID_OPS))
        _add_word_opts(p)
        p.add_argument("other", nargs="?", default="", help="second word (mul/equals/tensor)")
        p.add_argument("--k", type=int, default=2, help="exponent for power")
        p.add_argument("--keep", default="", help="strands to keep for subbraid")
        p.add_argument("--strands", type=int, default=3, help="strand count for random/halftwist")
        p.add_argument("--length", type=int, default=10, help="word length for random")
        p.add_argument("--seed", type=int, default=None)

    if p := command("loop", "loop coordinate operations", _run_op(_LOOP_OPS)):
        p.add_argument("op", choices=list(_LOOP_OPS))
        p.add_argument("coords", nargs="?", default="", help="coordinate vector")
        p.add_argument("--punctures", type=int, default=3, help="puncture count for canonical")
        p.add_argument("--basepoint", action="store_true")
        p.add_argument("--no-basepoint", action="store_true", help="canonical loop without basepoint")

    if p := command("act", "act on a loop with a braid", _cmd_act):
        _add_word_opts(p)
        p.add_argument("coords")
        p.add_argument("--basepoint", action="store_true")
        p.add_argument("--matrix", action="store_true", help="also print the effective linear action")

    if p := command("loopcoords", "canonical loop coordinates of a braid", _cmd_loopcoords):
        _add_word_opts(p)

    if p := command("cycle", "limit cycle of the effective linear action", _cmd_cycle):
        _add_word_opts(p)
        p.add_argument("--l0", default=None, help="starting loop coordinates")
        p.add_argument("--basepoint", action="store_true", help="--l0 carries a basepoint")
        p.add_argument("--no-basepoint", action="store_true", help="start from the plain canonical loop")
        p.add_argument("--iter", action="store_true", help="per-iterate matrices instead of the product")
        p.add_argument("--maxit", type=int, default=1000)

    if p := command("charpoly", "characteristic polynomial of the cycle product", _cmd_charpoly):
        _add_word_opts(p)
        p.add_argument("--no-basepoint", action="store_true")
        p.add_argument("--maxit", type=int, default=1000)

    if p := command("entropy", "iterative topological entropy estimate", _cmd_entropy):
        _add_word_opts(p)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--maxit", type=int, default=1000)

    if p := command("complexity", "one-step geometric complexity", _cmd_complexity):
        _add_word_opts(p)

    if p := command("burau", "reduced Burau matrix", _cmd_burau):
        _add_word_opts(p)
        p.add_argument("--at", type=_number, default=None, help="evaluate the entries at this value of t")
        p.add_argument("--symbolic", action="store_true")

    if p := command("alexander", "Alexander-Conway polynomial of the closure", _cmd_alexander):
        _add_word_opts(p)
        p.add_argument("--centered", action="store_true")

    fromdata = command("fromdata", "braid from a trajectory file (CSV or JSON)", _cmd_fromdata)
    ftbe = command("ftbe", "finite-time braiding exponent of a trajectory file", _cmd_ftbe)
    for p in filter(None, (fromdata, ftbe)):
        p.add_argument("file")
        p.add_argument("--angle", type=float, default=0.0)
        p.add_argument("--closure", choices=["default", "mindist", "none"], default="none")
    if fromdata:
        fromdata.add_argument("--databraid", action="store_true", help="include crossing times")
    if ftbe:
        ftbe.add_argument("--T", type=float, default=None)
        ftbe.add_argument("--norm", choices=["intaxis", "minlength"], default="intaxis")

    if p := command("render", "render a braid or loop to SVG", _cmd_render):
        p.add_argument("kind", choices=["braid", "loop"])
        _add_word_opts(p)  # a loop's coordinates go in the word argument
        p.add_argument("--basepoint", action="store_true")
        p.add_argument("--out", required=True, help="output SVG path")
        p.add_argument("--direction", choices=["bt", "tb", "lr", "rl"], default=None)
        p.add_argument("--width", type=int, default=480)
        p.add_argument("--height", type=int, default=360)

    if p := command("prop", "get or set a global property", _cmd_prop):
        p.add_argument("op", choices=["get", "set"])
        p.add_argument("name", choices=sorted(PROP_KEYS))
        p.add_argument("value", nargs="?", default=None)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
