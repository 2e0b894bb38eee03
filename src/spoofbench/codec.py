"""Strict codecs for the config and report dataclasses (JSON) and for
the artifact tables (CSV).

A Record's as_dict() and from_dict() follow its field annotations, so
every record decodes the same way: numbers must be finite, ints
whole, bools and strings of exactly that JSON type, enums are looked up
by value, and unknown keys or missing keys of fields without a default
are errors. Every ConfigError names the JSON path of the offending
value, e.g. ``scenario.platforms[3].stationary must be a bool``.

Every CSV artifact is written by write_csv and read back by read_csv
into a NamedTuple row type. A number is written as its shortest
round-trip text (repr of the float) and None as an empty cell. Both
work column by column on chunks of rows, so that the per-cell work runs
in C; a file with a fault is read again through the same decoder a row
at a time, so that the error names the faulty line and cell.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import types
import typing
from dataclasses import MISSING, fields
from enum import Enum
from typing import TypeVar

from .errors import ConfigError

R = TypeVar("R", bound="Record")


def check_keys(d, allowed, required, where: str) -> None:
    """Require an object whose keys cover required and lie in allowed."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{where} missing keys: {missing}")


def decode(tp, raw, path: str):
    """Decode the JSON value raw as type tp: float, int, bool, str, an
    Enum, a Record, a NamedTuple (a list in field order), Optional[X],
    list[X], tuple[X, ...], tuple[X, Y], frozenset[X] or dict[K, V] (an
    object; int keys in canonical decimal). path names the value in
    errors."""
    # numbers first: they are most of the leaves, and get_origin is slow
    if tp is float or tp is int:
        if type(raw) is tp and -math.inf < raw < math.inf:  # the common case
            return raw
        if type(raw) is bool or not isinstance(raw, (int, float)):
            kind = "whole number" if tp is int else "number"
            raise ConfigError(f"{path} must be a {kind}, got {type(raw).__name__}")
        if tp is int:
            if isinstance(raw, float) and not raw.is_integer():
                raise ConfigError(f"{path} must be a whole number, got {raw!r}")
            return int(raw)
        try:
            value = float(raw)
        except OverflowError:
            raise ConfigError(f"{path} is out of range") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value!r}")
        return value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return None if raw is None else decode(inner, raw, path)
    if origin is dict:
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must be an object")
        key_tp, value_tp = args
        return {
            _decode_key(key_tp, key, path): decode(value_tp, value, f"{path}.{key}")
            for key, value in raw.items()
        }
    if origin in (list, tuple, frozenset):
        if not isinstance(raw, list):
            raise ConfigError(f"{path} must be a list")
        if origin is not tuple or args[-1] is Ellipsis:
            args = (args[0],) * len(raw)
        elif len(raw) != len(args):
            raise ConfigError(f"{path} must be a list of {len(args)} items")
        return origin(decode(a, x, f"{path}[{i}]") for i, (a, x) in enumerate(zip(args, raw)))
    if issubclass(tp, Record):
        return tp.from_dict(raw, path)
    if issubclass(tp, Enum):
        try:
            return tp(raw)
        except (ValueError, TypeError):
            choices = [m.value for m in tp]
            raise ConfigError(f"{path} must be one of {choices}, got {raw!r}") from None
    if issubclass(tp, tuple):
        return tp(*decode(_named_tuple_shape(tp), raw, path))
    if tp is bool or tp is str:
        if type(raw) is not tp:
            raise ConfigError(f"{path} must be a {'bool' if tp is bool else 'string'}")
        return raw
    raise TypeError(f"cannot decode {tp!r}")


def _decode_key(tp, key: str, path: str):
    """An object key as tp: a str as is, an int only from its canonical
    decimal form, so "01" and "x" are errors."""
    if tp is str:
        return key
    try:
        value = int(key)
    except ValueError:
        value = None
    if value is None or str(value) != key:
        raise ConfigError(f"{path} key {key!r} must be a decimal integer")
    return value


@functools.cache
def _named_tuple_shape(tp):
    """tuple[X, Y, ...] of a NamedTuple's field types, in field order."""
    return tuple[tuple(typing.get_type_hints(tp).values())]


def encode(value):
    """The JSON form of a decoded value; frozensets become sorted lists
    and dicts objects in ascending key order."""
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(encode(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in sorted(value.items())}
    return value


def load_json(path):
    """Parse a JSON config file; malformed JSON is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int too long to parse
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def load_record(cls: type[R], path) -> R:
    """Strict read of a JSON file holding one Record; a malformed file
    is a ConfigError naming the file and the JSON path of the bad value."""
    raw = load_json(path)
    try:
        return cls.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@functools.cache
def _schema(cls) -> dict:
    """{field name: (type, required)} in declaration order."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


class Record:
    """Base of a dataclass whose JSON form follows its fields."""

    def as_dict(self) -> dict:
        return {name: encode(getattr(self, name)) for name in _schema(type(self))}

    @classmethod
    def from_dict(cls: type[R], d, path: str = "") -> R:
        schema = _schema(cls)
        required = [name for name, (_, needed) in schema.items() if needed]
        check_keys(d, schema, required, path or "config")
        kwargs = {
            key: decode(schema[key][0], value, f"{path}.{key}" if path else key)
            for key, value in d.items()
        }
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            # value checks in __post_init__ do not know where the record sits
            if not path:
                raise
            raise ConfigError(f"{path}: {exc}") from None


def write_json(path, payload) -> None:
    """Write a JSON value as an indented file ending in a newline;
    NaN and infinities are refused."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write one CSV artifact: the header, then one line per row ending
    in "\n"; a float cell is its shortest round-trip text and None an
    empty cell. Every row must have one cell per header name."""
    width = len(header)
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # column-wise in chunks, so the per-cell work runs in C
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            columns = list(zip(*chunk, strict=True))
            if len(columns) != width:
                raise ValueError(f"{path}: a row has {len(columns)} cells, the header {width}")
            writer.writerows(zip(*map(_plain_floats, columns)))


# rows per chunk of write_csv and read_csv: each chunk's cells are held
# twice over, so a small one keeps the peak memory down
_CHUNK_ROWS = 256


def _plain_floats(column: tuple):
    """The column with float subclasses (np.float64) as plain floats: csv
    writes a float with repr, the shortest round-trip text, but a
    subclass's repr need not be."""
    if all(kind is float or not issubclass(kind, float) for kind in set(map(type, column))):
        return column
    return [float(v) if isinstance(v, float) else v for v in column]


@functools.cache
def _csv_columns(row_type) -> tuple:
    """(name, type, optional) per field of a NamedTuple row type."""
    columns = []
    for name, tp in typing.get_type_hints(row_type).items():
        optional = typing.get_origin(tp) in (typing.Union, types.UnionType)
        columns.append((name, typing.get_args(tp)[0] if optional else tp, optional))
    return tuple(columns)


def _parse_column(texts: tuple, name: str, tp, optional: bool):
    """The cells of column name as tp, an empty one as None if optional:
    an int in canonical decimal, a float finite. A bad cell raises a
    ConfigError quoting the column's first cell, which is the bad one
    when the column holds one cell."""
    if "" in texts:
        if not optional:
            raise ConfigError(f"{name} must not be empty")
        values = iter(_parse_column(tuple(filter(None, texts)), name, tp, False))
        return [next(values) if text else None for text in texts]
    if tp is str:
        return texts
    try:
        values = list(map(tp, texts))
    except ValueError:
        values = []
    if tp is int:
        if tuple(map(str, values)) != texts:
            raise ConfigError(f"{name} must be a decimal integer, got {texts[0]!r}")
    elif len(values) != len(texts) or not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be a finite number, got {texts[0]!r}")
    return values


def read_csv(path, row_type, check=None) -> list:
    """Strict inverse of write_csv for a NamedTuple row type whose fields
    are int, float, str or Optional of one of them. The header must be
    the field names and every row must have one cell per field; an int
    must be in canonical decimal, a float finite, and an empty cell is
    None in an Optional field only. check(row), if given, may raise a
    ConfigError about a whole row. Any fault is a ConfigError naming the
    file, the line and the column."""
    try:
        return _read_csv_columns(path, row_type, check)
    except (ValueError, csv.Error):
        # the file has a fault: read it again a row at a time, so the
        # error names its line and its first bad cell
        return _read_csv_columns(path, row_type, check, chunk_rows=1)


def _read_csv_columns(path, row_type, check, chunk_rows=_CHUNK_ROWS) -> list:
    """read_csv's rows, decoded column by column in chunks of chunk_rows
    rows. Any fault is a ConfigError naming the file and the last line
    read; only with one row per chunk is that line the faulty one and
    the quoted cell its first bad one."""
    columns = _csv_columns(row_type)
    names = [name for name, _, _ in columns]
    # what row_type._make does, less its length check: zip made the rows
    make_row = functools.partial(tuple.__new__, row_type)
    rows: list = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != names:
                raise ConfigError(f"header must be {names}, got {header}")
            while chunk := list(itertools.islice(reader, chunk_rows)):
                texts = list(zip(*chunk, strict=True))
                if len(texts) != len(columns):
                    raise ConfigError(f"expected {len(columns)} cells, got {len(texts)}")
                values = [_parse_column(t, *column) for t, column in zip(texts, columns)]
                block = list(map(make_row, zip(*values)))
                if check is not None:
                    for row in block:
                        check(row)
                rows += block
        except (ValueError, csv.Error) as exc:  # ConfigError, bad UTF-8, bad quoting
            raise ConfigError(f"{path}: line {max(reader.line_num, 1)}: {exc}") from None
    return rows
