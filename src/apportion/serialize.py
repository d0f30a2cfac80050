"""JSON encoding/decoding for the exact domain objects.

Rationals travel as ``{"num": int, "den": int}`` — never as decimals, so
a report can be re-parsed into the identical exact values.  ``dumps``
writes canonical text (sorted keys, two-space indents, trailing newline):
each value's writer returns its text, and each object or array is put
together with one ``str.join``, so the cost is linear in the output.
An array of exact ``int`` items, or of exact ``str`` items, is one ``map``.
An engine's divisor table, a ``DivisorSteps``, is written from the cell
texts of ``DivisorSteps.cells``, the one walk of the table that its rows
and its table text read too: each ``DivisorStep`` row is one ``%``
template filled with three ``str.join``s of the running cells, and a seat
costs one ``gcd`` and three short texts besides the joins.
An engine's award log, a ``SeatAwards``, is written from its two int
columns: the array of its ``SeatAward`` rows, each one ``%`` template
filled from ``map``s over the columns, with no row object built.  Any
other array, a decoded award log among them, is written item by item,
each item's writer a cached lookup of its class.  Identical data always
gives byte-identical output; ``jsonify`` is that text parsed.
``from_json`` inverts it for any domain dataclass, guided by its field
annotations.
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
    DivisorSteps,
    InputError,
    QuotaReport,
    SeatAwards,
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
    return _writer(type(payload))(payload, "\n") + "\n"


def jsonify(value):
    """The plain JSON data of a payload: what :func:`dumps` writes, parsed."""
    return json.loads(dumps(value))


#: The writer of an array whose items are all exactly ``int`` or all ``str``.
_LEAVES = {int: int.__repr__, str: _quote}  # int.__repr__ raises past the digit limit


@functools.cache
def _writer(cls):
    """``text(value, newline)``: a ``cls`` value's text at ``newline``."""
    if issubclass(cls, Fraction):
        return _fraction
    if cls is SeatAwards:
        return _award_columns
    if cls is DivisorSteps:
        return _table_columns
    if dataclasses.is_dataclass(cls):  # before any builtin it subclasses
        keys = sorted((f.name, f"{_quote(f.name)}: ") for f in dataclasses.fields(cls))
        if len(keys) < 2:  # attrgetter of one name returns the bare value
            return lambda value, newline: _object(
                [(key, getattr(value, name)) for name, key in keys], newline)
        prefixes = [key for _, key in keys]
        values = operator.attrgetter(*[name for name, _ in keys])
        return lambda value, newline: _object(
            zip(prefixes, values(value)), newline)
    if issubclass(cls, dict):  # keys that str() merges keep the last value
        return lambda value, newline: _object([
            (f"{_quote(k)}: ", v) for k, v in sorted(
                {str(k): v for k, v in value.items()}.items())], newline)
    if issubclass(cls, (list, tuple)):
        return _array
    if cls is bool or cls is type(None):
        literals = {None: "null", True: "true", False: "false"}
        return lambda value, newline: literals[value]
    if issubclass(cls, int):  # int.__repr__ raises past the digit limit
        return lambda value, newline: int.__repr__(value)
    if issubclass(cls, str):
        return lambda value, newline: _quote(value)

    def refuse(value, newline):
        raise TypeError(f"cannot serialise {cls.__name__} value {value!r}")
    return refuse


def _fraction(value, newline):
    return (f'{{{newline}  "den": {int.__repr__(value.denominator)},'
            f'{newline}  "num": {int.__repr__(value.numerator)}{newline}}}')


def _object(items, newline):
    """An object of ``('"key": ', value)`` items, in the order given."""
    inner = newline + "  "
    return _lines([f"{key}{_writer(type(v))(v, inner)}" for key, v in items],
                  "{", inner, newline, "}")


def _array(value, newline):
    """An array: one of exact ``int`` or exact ``str`` items is one ``map``
    of its leaf writer, any other is written item by item."""
    inner = newline + "  "
    kind = type(value[0]) if value else None
    if kind in _LEAVES and set(map(type, value)) == {kind}:
        return _lines(list(map(_LEAVES[kind], value)), "[", inner, newline, "]")
    return _lines([_writer(type(v))(v, inner) for v in value], "[", inner, newline, "]")


@functools.cache
def _award_template(newline):
    """The ``%`` template of a :class:`SeatAward` row at ``newline``, filled
    with its deficit's denominator and numerator, house target, iteration
    and quoted party, in key order."""
    inner = newline + "  "
    return (f'{{{inner}"deficit": {{{inner}  "den": %s,{inner}  "num": %s{inner}}},'
            f'{inner}"house_target": %s,{inner}"iteration": %s,{inner}"party": %s{newline}}}')


def _award_columns(log, newline):
    """A :class:`SeatAwards` log as the array of its ``SeatAward`` rows,
    written from its columns (:meth:`SeatAwards.columns`, whose deficits
    are reduced by one ``gcd`` map) with :func:`_award_template`; each
    party id is quoted once.  Every text is made lazily, a row at a
    time, so a number past the digit limit fails where the rows' writer
    fails."""
    inner = newline + "  "
    iterations, houses, _, nums, dens = log.columns()
    quoted = list(map(_quote, log.party_ids))
    texts = (  # in key order: deficit (den, num), house_target, iteration, party
        map(int.__repr__, dens),
        map(int.__repr__, nums),
        map(int.__repr__, houses),
        map(int.__repr__, iterations),
        map(quoted.__getitem__, log.winners),
    )
    return _lines(list(map(_award_template(inner).__mod__, zip(*texts))),
                  "[", inner, newline, "]")


@functools.cache
def _table_templates(newline):
    """The ``%`` templates of a :class:`DivisorStep` row at ``newline``
    (filled with its next, present and seat cells, each array's items
    joined, then its step and quoted winner) and of a quota cell (the
    denominator's and numerator's text), and the separator of the items."""
    field, item = newline + "  ", newline + "    "
    arrays = ",".join(f'{field}"{name}": [{item}%s{field}]'
                      for name in ("next_quota", "present_quota", "seats_before"))
    row = f'{{{arrays},{field}"step": %s,{field}"winner": %s{newline}}}'
    return row, f'{{{item}  "den": %s,{item}  "num": %s{item}}}', f",{item}"


def _table_columns(table, newline):
    """A :class:`DivisorSteps` table as the array of its ``DivisorStep``
    rows, each one ``%`` template filled with the running cell texts of
    :meth:`DivisorSteps.cells` (three ``str.join``s), its step and its
    quoted winner.  An empty table makes no cell, so a number past the
    digit limit fails where the rows' writer fails."""
    inner = newline + "  "
    row, cell, sep = _table_templates(inner)
    quoted, winners = list(map(_quote, table.party_ids)), table.winners
    walk = table.cells(lambda num, den: cell % (int.__repr__(den), int.__repr__(num)),
                       "null", int.__repr__)
    return _lines([row % (sep.join(nexts), sep.join(presents), sep.join(seats), i + 1,
                          quoted[winners[i]]) for i, seats, presents, nexts in walk],
                  "[", inner, newline, "]")


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
