"""JSON encoding/decoding for the exact domain objects.

Rationals travel as ``{"num": int, "den": int}`` — never as decimals, so
a report can be re-parsed into the identical exact values.  ``dumps``
writes canonical text (sorted keys, two-space indents, trailing newline):
each value's writer returns its text, and each object or array is put
together with one ``str.join``, so the cost is linear in the output.
An array of exact ``int`` items, or of exact ``str`` items, is one ``map``.
In any other, within one call, an item that is a ``Fraction``, ``int`` or
``str`` object already written at the same depth reuses that text, so the
N·k shared quota cells of a traced divisor table are formatted N + k times.
An array whose items are all of one dataclass whose fields are all
annotated ``int``, ``str`` or ``Fraction`` (an award log's ``SeatAward``
rows) is written a column at a time: each field is one ``map`` over the
items and each row one ``%`` template, with no writer called per item.
It falls back to the per-item writers when an item is of another class
or a field value is not exactly of its annotated type (a ``bool``,
``None``, a tuple, a subclass); any other array costs one cached lookup
of its first item's class.  Identical data always gives byte-identical
output; ``jsonify`` is that text parsed.  ``from_json`` inverts it for
any domain dataclass, guided by its field annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's C function

from .types import (
    Allocation,
    AwardLog,
    InputError,
    QuotaReport,
    SeededRun,
    TraceTable,
    VoteTally,
)

__all__ = [
    "allocation_from_json", "dumps", "jsonify", "quota_report_from_json",
    "seeded_run_from_json", "tally_from_json", "trace_from_json",
]


def dumps(payload) -> str:
    """Canonical JSON text of plain/domain values; a float is a bug upstream."""
    return _writer(type(payload))(payload, "\n", {}) + "\n"


def jsonify(value):
    """The plain JSON data of a payload: what :func:`dumps` writes, parsed."""
    return json.loads(dumps(value))


#: Array items whose text :func:`_array` keeps by identity: immutable leaves.
_SHARED = frozenset((Fraction, int, str))
#: The writer of an array whose items are all exactly ``int`` or all ``str``.
_LEAVES = {int: int.__repr__, str: _quote}  # int.__repr__ raises past the digit limit


@functools.cache
def _writer(cls):
    """``text(value, newline, seen)``: a ``cls`` value's text at ``newline``.

    ``seen`` maps each indentation to the text of the leaves already
    written at it, by ``id``; it lives for one :func:`dumps` call, whose
    payload keeps every one of those leaves alive.
    """
    if issubclass(cls, Fraction):
        return _fraction
    if dataclasses.is_dataclass(cls):  # before any builtin it subclasses
        keys = sorted((f.name, f"{_quote(f.name)}: ") for f in dataclasses.fields(cls))
        if len(keys) < 2:  # attrgetter of one name returns the bare value
            return lambda value, newline, seen: _object(
                [(key, getattr(value, name)) for name, key in keys], newline, seen)
        prefixes = [key for _, key in keys]
        values = operator.attrgetter(*[name for name, _ in keys])
        return lambda value, newline, seen: _object(
            zip(prefixes, values(value)), newline, seen)
    if issubclass(cls, dict):  # keys that str() merges keep the last value
        return lambda value, newline, seen: _object([
            (f"{_quote(k)}: ", v) for k, v in sorted(
                {str(k): v for k, v in value.items()}.items())], newline, seen)
    if issubclass(cls, (list, tuple)):
        return _array
    if cls is bool or cls is type(None):
        literals = {None: "null", True: "true", False: "false"}
        return lambda value, newline, seen: literals[value]
    if issubclass(cls, int):  # int.__repr__ raises past the digit limit
        return lambda value, newline, seen: int.__repr__(value)
    if issubclass(cls, str):
        return lambda value, newline, seen: _quote(value)

    def refuse(value, newline, seen):
        raise TypeError(f"cannot serialise {cls.__name__} value {value!r}")
    return refuse


def _fraction(value, newline, seen):
    return (f'{{{newline}  "den": {int.__repr__(value.denominator)},'
            f'{newline}  "num": {int.__repr__(value.numerator)}{newline}}}')


def _object(items, newline, seen):
    """An object of ``('"key": ', value)`` items, in the order given."""
    inner = newline + "  "
    return _lines([f"{key}{_writer(type(v))(v, inner, seen)}" for key, v in items],
                  "{", inner, newline, "}")


def _array(value, newline, seen):
    """An array; a leaf already written at this depth reuses its text.

    The rows of a traced divisor table share their unchanged quota
    objects, so each is formatted once per depth, not per row.  An array
    of exact ``int`` or exact ``str`` items is one ``map`` of its leaf
    writer, and one of one flat dataclass, such as an award log, is
    written a column at a time (:func:`_column_rows`).
    """
    inner = newline + "  "
    kind = type(value[0]) if value else None
    if kind in _LEAVES and set(map(type, value)) == {kind}:
        return _lines(list(map(_LEAVES[kind], value)), "[", inner, newline, "]")
    fields = _columns(kind)
    if fields is not None and (parts := _column_rows(value, fields, inner)) is not None:
        return _lines(parts, "[", inner, newline, "]")
    texts = seen.get(inner)
    if texts is None:
        texts = seen[inner] = {}
    parts = []
    for v in value:
        text = texts.get(id(v))
        if text is None:
            cls = type(v)
            text = _writer(cls)(v, inner, seen)
            if cls in _SHARED:
                texts[id(v)] = text
        parts.append(text)
    return _lines(parts, "[", inner, newline, "]")


#: Field annotations the column path writes, as postponed strings or types.
_FLAT = {name: cls for cls in (int, str, Fraction) for name in (cls, cls.__name__)}


@functools.cache
def _columns(cls):
    """The ``(name, type)`` fields, in key order, of a dataclass whose
    fields are all annotated ``int``, ``str`` or ``Fraction``; else None."""
    if not dataclasses.is_dataclass(cls):
        return None
    fields = [(f.name, _FLAT.get(f.type) if isinstance(f.type, (str, type)) else None)
              for f in dataclasses.fields(cls)]
    if not fields or any(kind is None for _, kind in fields):
        return None
    return sorted(fields)


def _column_rows(value, fields, newline):
    """The texts of ``value``'s items at ``newline``, written a field at a
    time and joined by one ``%`` template per row; None unless every item
    is of the first one's class and every field value exactly of its
    annotated type (no bool, None or subclass)."""
    if set(map(type, value)) != {type(value[0])}:
        return None
    inner = newline + "  "
    slots, texts = [], []
    for name, kind in fields:
        column = list(map(operator.attrgetter(name), value))
        if set(map(type, column)) != {kind}:
            return None
        if kind is Fraction:
            slots.append(f'{_quote(name)}: {{{inner}  "den": %s,{inner}  "num": %s{inner}}}')
            texts += (map(int.__repr__, map(operator.attrgetter(part), column))
                      for part in ("denominator", "numerator"))
        else:
            slots.append(f"{_quote(name)}: %s")
            texts.append(map(_quote if kind is str else int.__repr__, column))
    template = f"{{{inner}" + f",{inner}".join(slots) + f"{newline}}}"
    return list(map(template.__mod__, zip(*texts)))


def _lines(parts, opening, inner, newline, closing):
    """``parts`` one to a line at ``inner``, comma-separated and bracketed.

    The brackets join the first and last part, so the one ``str.join``
    makes the only copy of the whole text: a report's largest value is
    then held at most twice at once.
    """
    if not parts:
        return opening + closing
    parts[0] = f"{opening}{inner}{parts[0]}"
    parts[-1] = f"{parts[-1]}{newline}{closing}"
    return f",{inner}".join(parts)


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


def _plain(cls):
    """The decoder of an ``int``, ``str`` or ``bool``: the JSON value itself, if
    it is one (an ``int`` that is not a bool)."""
    def decode(obj):
        if not isinstance(obj, cls) or (cls is int and isinstance(obj, bool)):
            raise TypeError(f"expected {cls.__name__}, got {type(obj).__name__}")
        return obj
    return decode


@functools.cache
def _decoder(hint):
    """The decoding function for ``hint``, built once per hint."""
    import typing  # loaded here, not at start-up: only from_json uses it
    if hint in (int, str, bool):
        return _plain(hint)
    if hint is Fraction:
        integer = _decoder(int)
        return lambda obj: Fraction(integer(obj["num"]), integer(obj["den"]))
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        decoded = [(f.name, _decoder(hints[f.name])) for f in dataclasses.fields(hint)]

        def build(obj):
            kwargs = dict(obj)
            for name, decode in decoded:
                kwargs[name] = decode(kwargs[name])
            return hint(**kwargs)

        return build
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and args[-1:] == (...,):
        item = _decoder(args[0])
        return lambda obj: tuple(map(item, obj))
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


def trace_from_json(obj) -> TraceTable | AwardLog:
    return from_json(TraceTable | AwardLog, obj)


def seeded_run_from_json(obj) -> SeededRun:
    return from_json(SeededRun, obj)
