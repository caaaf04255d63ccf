"""Process-global configuration record, and the base of every value record.

A single mutable :class:`Properties` instance holds the conventions used
throughout the package (crossing-sign orientation, word application order,
plotting direction, numerical tolerance for trajectory coincidence tests).
Values may be overridden through environment variables named
``BRAIDKIT_<KEY>`` where ``<KEY>`` is the upper-cased property key, e.g.
``BRAIDKIT_BRAIDABSTOL=1e-8``, read when the record is first used; an
invalid one raises ``ValueError`` naming the variable at every use.

The record is read-mostly: mutate it only when no braid/loop operation is in
flight (single-writer contract).
"""
from __future__ import annotations

import operator
import os


class Record:
    """Base of the value records, in place of ``dataclasses`` (whose import
    alone took a tenth of a CLI command's start).  A subclass lists its fields
    as annotations, with class-level defaults, and gets an ``__init__`` by
    position or name (then ``__post_init__``), a ``__repr__``, and, unless it
    defines its own, ``__eq__`` and ``__hash__`` over the field tuple within
    one class.  Instances are frozen, so caches write with
    ``object.__setattr__``; ``frozen=False`` makes them assignable and
    unhashable."""

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(f"{f}=_cls.{f}" if hasattr(cls, f) else f for f in fields)
        body = f"self.__dict__.update({', '.join(f'{f}={f}' for f in fields)})"
        post = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self, {params}): {body}{post}", scope := {"_cls": cls})
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        get = operator.attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = cls.__dict__.get("__hash__")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def ints(values, what: str) -> tuple:
    """``values`` as a tuple of Python ints, kept as they are when all are
    ints already.  Any other value must be an integer (such as a numpy int)
    or a whole float, or ``TypeError`` names ``what`` and the value."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        for v in values:
            if not hasattr(v, "__index__") and not (isinstance(v, float) and v.is_integer()):
                raise TypeError(f"{what} must be integers, got {v!r}")
        values = tuple(map(int, values))
    return values


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, built by ``__init__``."""
    return type(record)(**{**dict(zip(record._fields, record._values(record))), **changes})


class Properties(Record, frozen=False):
    gen_rot_dir: int = 1              # +1 or -1; flips crossing signs in data extraction
    gen_loop_act_dir: str = "lr"      # 'lr': first word entry acts on a loop first
    gen_plot_over_under: bool = True  # draw over/under gaps in braid diagrams
    braid_abs_tol: float = 1e-10      # coincidence tolerance for projected trajectories
    braid_plot_dir: str = "bt"        # 'bt', 'tb', 'lr', or 'rl'
    loop_coords_base_point: str = "right"  # only 'right' is supported


# Public property keys as shown by the `prop` command: the attribute, the
# converter of the raw string, the check of the converted value (if any) and
# its message.
_PROPS = {
    "GenRotDir": ("gen_rot_dir", int, lambda v: v in (1, -1), "GenRotDir must be 1 or -1"),
    "GenLoopActDir": ("gen_loop_act_dir", str, lambda v: v in ("lr", "rl"), "GenLoopActDir must be 'lr' or 'rl'"),
    "GenPlotOverUnder": ("gen_plot_over_under", lambda raw: raw.lower() in ("1", "true", "yes", "on"), None, None),
    "BraidAbsTol": ("braid_abs_tol", float, lambda v: v >= 0, "BraidAbsTol must be nonnegative"),
    "BraidPlotDir": ("braid_plot_dir", str, lambda v: v in ("bt", "tb", "lr", "rl"),
                     "BraidPlotDir must be one of 'bt','tb','lr','rl'"),
    "LoopCoordsBasePoint": ("loop_coords_base_point", str, lambda v: v == "right",
                            "LoopCoordsBasePoint supports only 'right'"),
}
PROP_KEYS = {key: spec[0] for key, spec in _PROPS.items()}

_properties = None


def properties() -> Properties:
    """Return the global configuration record, built on first use from the
    defaults and the ``BRAIDKIT_<KEY>`` overrides."""
    return _properties or _load()


def _load() -> Properties:
    global _properties
    _properties = Properties()
    for key in PROP_KEYS:
        name = "BRAIDKIT_" + key.upper()
        raw = os.environ.get(name)
        if raw is not None:
            try:
                set_prop(key, raw)
            except ValueError as exc:
                _properties = None
                raise ValueError(f"{name}={raw!r}: {exc}") from None
    return _properties


def get_prop(key: str):
    """Get a property by its public key, e.g. ``get_prop('BraidAbsTol')``."""
    if key not in PROP_KEYS:
        raise KeyError(f"unknown property {key!r}")
    return getattr(properties(), PROP_KEYS[key])


def set_prop(key: str, raw) -> None:
    """Set a property from a raw (string or typed) value, with validation."""
    if key not in PROP_KEYS:
        raise KeyError(f"unknown property {key!r}")
    attr, convert, check, message = _PROPS[key]
    value = convert(str(raw))
    if check and not check(value):
        raise ValueError(message)
    setattr(properties(), attr, value)
