"""Config field schema: each field states its JSON key and bounds once.

The config dataclasses declare their fields with `setting`, which keeps in
the field's metadata the JSON key where it differs from the attribute name
(L_dec, M, M_out, P, K, lambda) and the field's bounds. A field with neither
keeps a plain default. The value type comes from the annotation: int, a
finite float, a finite pair of floats, or a nested config section.

`load` builds a section from its JSON object, `dump` writes it back and
`check` tests every bound; each validate() adds only its cross-field checks.
This is a leaf module: config.py imports the modules that define the
dataclasses, so they import this one rather than config.py.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import typing

from .errors import ValidationError


def setting(default, *, key: str | None = None, ge=None, gt=None, le=None):
    """A field with default `default`, spelled `key` in JSON (the attribute
    name if None), bounded below by ge (closed) or gt (open) and, given a
    lower bound, above by le (closed)."""
    return dataclasses.field(default=default,
                             metadata={"key": key, "ge": ge, "gt": gt, "le": le})


def _as_int(path: str, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path} must be an integer, got {v!r}")
    return v


def _finite(path: str, v) -> float:
    # json.loads parses NaN, Infinity and -Infinity, and range checks written
    # as `x < 0` let NaN through, so non-finite numbers stop here, by key path
    try:
        f = float(v)
    except OverflowError:  # an integer literal beyond float range
        f = math.inf
    if not math.isfinite(f):
        raise ValidationError(f"{path} must be a finite number, got {v!r}")
    return f


def _as_float(path: str, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{path} must be a number, got {v!r}")
    return _finite(path, v)


def _as_pair(path: str, v):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)):
        raise ValidationError(f"{path} must be a pair of numbers, got {v!r}")
    return (_finite(f"{path}[0]", v[0]), _finite(f"{path}[1]", v[1]))


_CONVERT = {int: _as_int, float: _as_float, tuple[float, float]: _as_pair}


@functools.cache
def _fields(cls) -> dict:
    """JSON key -> (attribute, converter, metadata) for each field of cls."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        t = hints[f.name]
        if dataclasses.is_dataclass(t):
            conv = lambda where, v, t=t: load(t, v, where)   # a nested section
        else:
            conv = _CONVERT[t]
        out[f.metadata.get("key") or f.name] = (f.name, conv, f.metadata)
    return out


def load(cls, data: dict, path: str = ""):
    """A cls built from its JSON object at key path `path` ("" at the root).

    Keys it leaves out keep their defaults; an unknown key or a value of the
    wrong type raises ValidationError naming the key path. Bounds are left
    to `check`.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"config section {path!r} must be an object, got {data!r}")
    obj = cls()
    fields = _fields(cls)
    for key, val in data.items():
        where = f"{path}.{key}" if path else key
        if key not in fields:
            raise ValidationError(f"unknown config key {where}")
        attr, conv, _ = fields[key]
        setattr(obj, attr, conv(where, val))
    return obj


def dump(obj) -> dict:
    """obj's JSON object: every field under its JSON key, sections nested."""
    out = {}
    for key, (attr, _, _) in _fields(type(obj)).items():
        v = getattr(obj, attr)
        out[key] = dump(v) if dataclasses.is_dataclass(v) else v
    return out


def _bounds(m) -> str:
    open_lo = m["gt"] is not None
    lo = m["gt"] if open_lo else m["ge"]
    if m["le"] is None:
        return f"{'>' if open_lo else '>='} {lo}"
    return f"in {'(' if open_lo else '['}{lo}, {m['le']}]"


def check(obj, section: str) -> None:
    """Raise ValidationError, naming section.key, for the first field of obj
    outside its bounds. NaN is outside every bound."""
    for key, (attr, _, m) in _fields(type(obj)).items():
        if not m:
            continue
        v = getattr(obj, attr)
        if ((m["ge"] is not None and not v >= m["ge"])
                or (m["gt"] is not None and not v > m["gt"])
                or (m["le"] is not None and not v <= m["le"])):
            raise ValidationError(f"{section}.{key} must be {_bounds(m)}, got {v}")
