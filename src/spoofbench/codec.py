"""Strict JSON codec for the config dataclasses.

A Record's as_dict() and from_dict() follow its field annotations, so
every config class decodes the same way: numbers must be finite, ints
whole, bools and strings of exactly that JSON type, enums are looked up
by value, and unknown keys or missing keys of fields without a default
are errors. Every ConfigError names the JSON path of the offending
value, e.g. ``scenario.platforms[3].stationary must be a bool``.
"""

from __future__ import annotations

import functools
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
    Enum, a Record, Optional[X], tuple[X, ...], tuple[X, Y] or
    frozenset[X]. path names the value in errors."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return None if raw is None else decode(inner, raw, path)
    if origin in (tuple, frozenset):
        if not isinstance(raw, list):
            raise ConfigError(f"{path} must be a list")
        if origin is frozenset or args[-1] is Ellipsis:
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
    if tp in (bool, str):
        if type(raw) is not tp:
            raise ConfigError(f"{path} must be a {'bool' if tp is bool else 'string'}")
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


def encode(value):
    """The JSON form of a decoded value; frozensets become sorted lists."""
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(encode(v) for v in value)
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def load_json(path):
    """Parse a JSON config file; malformed JSON is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int too long to parse
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


@functools.cache
def _schema(cls) -> dict:
    """{field name: (type, required)} in declaration order."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


class Record:
    """Base of a config dataclass whose JSON form follows its fields."""

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
