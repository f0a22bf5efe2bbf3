"""The JSON form of every config and result, and the strict parsers that read configs.

to_json is the one encoder. A dataclass becomes the object of its init
fields, unless it has a ``_json_shape`` method giving a different shape;
tuples become lists, enums their values, and an infinite float is spelled
"inf" or "-inf", as configs spell it, so every document is standard JSON.

A parser reads one field: it is called with the field's value and its path
(``config.privacy.tau``), and every error it raises names that path.
parse_fields applies a table of parsers to an object, rejecting unknown,
missing and ill-typed fields; parse_kind does so for an object whose kind
field selects the table. This module imports nothing from the package but
its errors.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Any, Callable, Iterable, Mapping

from .errors import ConfigError

Parser = Callable[[Any, str], Any]


def fields_of(value: Any, *omit: str) -> dict:
    """The init fields of dataclass ``value`` by name, leaving out ``omit``."""
    fields = dataclasses.fields(value)
    return {f.name: getattr(value, f.name) for f in fields if f.init and f.name not in omit}


def to_json(value: Any) -> Any:
    """The standard-JSON form of a config, a result, or any dict or list of them."""
    shape = getattr(value, "_json_shape", None)
    if shape is not None:
        value = shape()
    elif dataclasses.is_dataclass(value):
        value = fields_of(value)
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0.0 else "-inf"
    return value


# -- strict parsing -------------------------------------------------------------


def strict_keys(obj: Any, allowed: Iterable[str], where: str) -> None:
    """Reject a non-object, or any field of ``obj`` outside ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def parse_fields(
    obj: Any, parsers: Mapping[str, Parser], required: Iterable[str] = (), where: str = "config"
) -> dict:
    """Each field of ``obj``, read by its parser in ``parsers``.

    A field without a parser, or a ``required`` one that is missing, is a
    ConfigError. An absent optional field is left out of the result, so the
    caller's default applies.
    """
    strict_keys(obj, parsers, where)
    for name in required:
        if name not in obj:
            raise ConfigError(f"missing required field {where}.{name}")
    return {name: parsers[name](value, f"{where}.{name}") for name, value in obj.items()}


def parse_kind(
    obj: Any, key: str, kinds: Mapping[str, Mapping[str, Parser]], required: Iterable[str],
    where: str, default: str | None = None,
) -> dict:
    """parse_fields for an object whose field ``key`` names one of ``kinds``.

    ``kinds`` maps each kind to the parsers of the other fields it allows; a
    name in ``required`` is required by every kind that allows it. The
    result always holds the kind under ``key``.
    """
    kind = None  # not an object: parse_fields says so
    if isinstance(obj, dict):
        kind = choice(*kinds)(obj.get(key, default), f"{where}.{key}")
    parsers = {key: choice(*kinds), **kinds.get(kind, {})}
    fields = parse_fields(obj, parsers, [name for name in required if name in parsers], where)
    return {**fields, key: kind}


def number(value: Any, path: str) -> float:
    """A JSON number, not a bool and not NaN, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path} must be a number in the float range") from None


def integer(value: Any, path: str) -> int:
    """A JSON integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def choice(*options: str) -> Parser:
    """A parser accepting exactly one of ``options``."""

    def parse(value: Any, path: str) -> str:
        if value not in options:  # a tuple, so unhashable values compare too
            raise ConfigError(f"{path} must be one of {list(options)}, got {value!r}")
        return value

    return parse


def optional(parse: Parser) -> Parser:
    """``parse``, except that null reads as None."""
    return lambda value, path: None if value is None else parse(value, path)


def pair(value: Any, path: str) -> tuple[float, float]:
    """A list of exactly two numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path} must be a pair of numbers, got {value!r}")
    return number(value[0], f"{path}[0]"), number(value[1], f"{path}[1]")


def number_list(value: Any, path: str) -> list[float]:
    """A non-empty list of numbers."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{path} must be a non-empty list of numbers, got {value!r}")
    return [number(v, f"{path}[{i}]") for i, v in enumerate(value)]
