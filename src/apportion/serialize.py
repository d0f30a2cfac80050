"""JSON encoding/decoding for the exact domain objects.

Rationals travel as ``{"num": int, "den": int}`` — never as decimals, so
a report can be re-parsed into the identical exact values.  ``dumps``
writes canonical text (sorted keys, two-space indents, trailing newline)
in one pass, in time linear in its length, so identical data always gives
byte-identical output; ``jsonify`` is that text parsed.  ``from_json``
inverts it for any domain dataclass, guided by its field annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's C function

from .types import Allocation, InputError, QuotaReport, SeededRun, TraceTable, VoteTally


def dumps(payload) -> str:
    """Canonical JSON text of plain/domain values; a float is a bug upstream."""
    pieces = []
    _writer(type(payload))(payload, "\n", pieces.append)
    return "".join(pieces) + "\n"


def jsonify(value):
    """The plain JSON data of a payload: what :func:`dumps` writes, parsed."""
    return json.loads(dumps(value))


@functools.cache
def _writer(cls):
    """``write(value, newline, put)`` puts a ``cls`` value's text at ``newline``."""
    if issubclass(cls, Fraction):
        return lambda value, newline, put: put(
            f'{{{newline}  "den": {int.__repr__(value.denominator)},'
            f'{newline}  "num": {int.__repr__(value.numerator)}{newline}}}')
    if dataclasses.is_dataclass(cls):  # before any builtin it subclasses
        keys = sorted((f.name, f"{_quote(f.name)}: ") for f in dataclasses.fields(cls))
        return lambda value, newline, put: _write_items(
            "{}", [(key, getattr(value, name)) for name, key in keys], newline, put)
    if issubclass(cls, dict):  # keys that str() merges keep the last value
        return lambda value, newline, put: _write_items("{}", [
            (f"{_quote(k)}: ", v) for k, v in sorted(
                {str(k): v for k, v in value.items()}.items())], newline, put)
    if issubclass(cls, (list, tuple)):
        return lambda value, newline, put: _write_items(
            "[]", [("", v) for v in value], newline, put)
    if cls is bool or cls is type(None):
        literals = {None: "null", True: "true", False: "false"}
        return lambda value, _, put: put(literals[value])
    if issubclass(cls, int):  # int.__repr__ raises past the digit limit
        return lambda value, _, put: put(int.__repr__(value))
    if issubclass(cls, str):
        return lambda value, _, put: put(_quote(value))

    def refuse(value, newline, put):
        raise TypeError(f"cannot serialise {cls.__name__} value {value!r}")
    return refuse


def _write_items(brackets, items, newline, put):
    """An object or array of (prefix, value) items; a prefix is '"key": ' or ''."""
    inner = newline + "  "
    start = brackets[0] + inner  # the opening bracket comes with the first item
    for prefix, value in items:
        put(start + prefix)
        _writer(type(value))(value, inner, put)
        start = "," + inner
    put(newline + brackets[1] if items else brackets)


def from_json(hint, obj):
    """Rebuild a value of type ``hint`` from its :func:`jsonify` form.

    ``hint`` is a domain dataclass or an annotation its fields use:
    ``int``, ``str``, ``bool``, ``Fraction`` (a num/den pair), ``X | None``,
    ``tuple[X, ...]``, fixed-length tuples, nested dataclasses, and unions
    of dataclasses, whose member is the one with the object's keys as its
    field names.  Data that does not fit ``hint`` raises :class:`InputError`;
    a ``hint`` outside that list raises ``TypeError``.
    """
    decode = _decoder(hint)
    try:
        return decode(obj)
    except InputError:  # a dataclass's own check: already the right error
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        name = getattr(hint, "__name__", hint)
        raise InputError(f"malformed {name} JSON ({type(exc).__name__}: {exc})") from None


def _same(obj):
    return obj


@functools.cache
def _decoder(hint):
    """The decoding function for ``hint``, built once per hint."""
    import typing  # loaded here, not at start-up: only from_json uses it
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
