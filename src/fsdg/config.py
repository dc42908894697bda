"""Plain-text run configuration: one ``key = value`` per line.

Blank lines are ignored and ``#`` starts a comment.  Keys map one-to-one
onto TrainConfig fields; unknown keys are rejected rather than ignored so
typos fail loudly.  Lists (encoder widths, per-block modulation flags)
are comma separated.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, ParseError
from .training import TrainConfig

_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _parse_flag(token: str) -> bool:
    return _FLAG_WORDS[token.strip().lower()]


# Per scalar type: parser (raises ValueError or KeyError on bad text),
# formatter, and what a value of the type, and a list of them, must be.
_SCALARS = {
    str: (str, str, None, None),
    int: (int, str, "an integer", "comma-separated integers"),
    float: (float, repr, "a number", "comma-separated numbers"),
    bool: (_parse_flag, lambda flag: "1" if flag else "0",
           "a flag (1/0 or true/false)", "comma-separated flags (1/0 or true/false)"),
}


def _kind(hint) -> tuple[type, bool]:
    """A field's scalar type, and whether the field is a tuple of them."""
    if get_origin(hint) is tuple:
        return get_args(hint)[0], True
    return hint, False


_HINTS = get_type_hints(TrainConfig)
_FIELDS = {field.name: _kind(_HINTS[field.name]) for field in fields(TrainConfig)}


def _parse_value(lineno: int, key: str, raw: str):
    kind, is_tuple = _FIELDS[key]
    parse, _, one, many = _SCALARS[kind]
    raw = raw.strip()
    try:
        if is_tuple:
            return tuple(parse(tok) for tok in raw.split(",") if tok.strip())
        return parse(raw)
    except (ValueError, KeyError):
        raise ParseError(f"config line {lineno}: key {key!r} needs {many if is_tuple else one}, "
                         f"got {raw!r}") from None


def parse_config_text(text: str) -> TrainConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(lineno, key, raw)
    return TrainConfig(**values)


def load_config(path: str) -> TrainConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def format_config(config: TrainConfig) -> str:
    """Render a config as parseable text (round-trips through parse)."""
    lines = []
    for key, (kind, is_tuple) in _FIELDS.items():
        fmt = _SCALARS[kind][1]
        value = getattr(config, key)
        lines.append(f"{key} = " + (",".join(map(fmt, value)) if is_tuple else fmt(value)))
    return "\n".join(lines) + "\n"
