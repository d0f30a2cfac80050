"""JSON encoding/decoding for the exact domain objects.

Rationals travel as ``{"num": int, "den": int}`` — never as decimals, so
a report can be re-parsed into the identical exact values.  ``dumps`` is
canonical (sorted keys, fixed indentation, trailing newline): identical
data always produces byte-identical output.  ``from_json`` inverts
``jsonify`` for any domain dataclass, guided by its field annotations, so
the JSON shape of a type is decided by its fields alone.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from fractions import Fraction

from .types import Allocation, QuotaReport, SeededRun, TraceTable, VoteTally


def jsonify(value):
    """Recursively convert domain values to plain JSON-compatible data.

    Floats are deliberately unsupported: anything inexact reaching this
    function is a bug upstream.
    """
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot serialise {type(value).__name__} value {value!r}")


def dumps(payload) -> str:
    """Canonical JSON text for a payload of plain/domain values."""
    return json.dumps(jsonify(payload), sort_keys=True, indent=2) + "\n"


def from_json(hint, obj):
    """Rebuild a value of type ``hint`` from its :func:`jsonify` form.

    ``hint`` is a domain dataclass or an annotation its fields use:
    ``int``, ``str``, ``bool``, ``Fraction`` (a num/den pair), ``X | None``,
    ``tuple[X, ...]``, fixed-length tuples, nested dataclasses, and unions
    of dataclasses, whose member is the one with the object's keys as its
    field names.
    """
    return _decoder(hint)(obj)


def _same(obj):
    return obj


@functools.cache
def _decoder(hint):
    """The decoding function for ``hint``, built once per hint."""
    if hint in (int, str, bool):
        return _same
    if hint is Fraction:
        return lambda obj: Fraction(obj["num"], obj["den"])
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        decoded = [
            (f.name, decode)
            for f in dataclasses.fields(hint)
            if (decode := _decoder(hints[f.name])) is not _same
        ]

        def build(obj):
            kwargs = dict(obj)  # plain fields as they are, for a hand-written speed
            for name, decode in decoded:
                kwargs[name] = decode(kwargs[name])
            return hint(**kwargs)

        return build
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and args[-1:] == (...,):
        item = _decoder(args[0])
        return tuple if item is _same else lambda obj: tuple(map(item, obj))
    if origin is tuple:
        items = [_decoder(arg) for arg in args]
        return lambda obj: tuple(d(x) for d, x in zip(items, obj, strict=True))
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in args if arg is not type(None)]
        if len(members) < len(args):
            inner = _decoder(typing.Union[tuple(members)])
            return lambda obj: None if obj is None else inner(obj)
        by_keys = {
            frozenset(f.name for f in dataclasses.fields(m)): _decoder(m)
            for m in members
        }
        if len(by_keys) < len(members):
            raise TypeError(f"members of {hint} share their field names")
        return lambda obj: by_keys[frozenset(obj)](obj)
    raise TypeError(f"cannot decode {hint!r}")


def fraction_from_json(obj) -> Fraction | None:
    return from_json(Fraction | None, obj)


def tally_from_json(obj) -> VoteTally:
    return from_json(VoteTally, obj)


def allocation_from_json(obj) -> Allocation:
    return from_json(Allocation, obj)


def quota_report_from_json(obj) -> QuotaReport:
    return from_json(QuotaReport, obj)


def trace_from_json(obj) -> TraceTable:
    return from_json(TraceTable, obj)


def seeded_run_from_json(obj) -> SeededRun:
    return from_json(SeededRun, obj)
