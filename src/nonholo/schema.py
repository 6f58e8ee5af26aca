"""Declarative run-config schema: every key declared once, read by one walker.

A schema is a tree of fields.  ``Obj({key: field, ...}).read(cfg)`` checks a
parsed JSON config against it, fills the defaults and returns plain Python
values (floats, ints, bools, strings, lists, dicts); a ``Variant`` reads the
same way, with its keys declared per value of a tag key such as ``kind``.  A
malformed value raises :class:`ConfigError` whose message starts ``config key
'<path>'`` with the full dotted path, list indices included
(``'initial.rho.modes.0.k'``); a key or value longer than ``SHOWN_CHARS``
characters is shown cut.

A field's ``default`` is ``REQUIRED`` (the key must be given), ``None`` (the
key is optional and reads as ``None`` when absent) or a raw JSON value that is
read exactly like a given one, so nested defaults fill in too.
"""

import math

REQUIRED = object()
SHOWN_CHARS = 80  # longest rendering of a key or value in an error message


class ConfigError(ValueError):
    """The run configuration is malformed; the message names the field."""


def _show(value):
    """``repr(value)``, cut to ``SHOWN_CHARS`` characters: a huge value keeps its message short."""
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def _fail(path, message):
    raise ConfigError(f"config key {_show(path)} {message}")


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _is_real(value):
    """A finite JSON number; booleans do not count as numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class Field:
    """One config key: its default and, in subclasses, ``read(value, path)``."""

    def __init__(self, default=REQUIRED):
        self.default = default


class Real(Field):
    """A finite number, as a float: ``low`` is an inclusive bound, ``positive`` excludes 0."""

    def __init__(self, default=REQUIRED, low=None, positive=False):
        super().__init__(default)
        self.low, self.positive = low, positive

    def read(self, value, path):
        if not _is_real(value):
            _fail(path, f"must be a finite number, got {_show(value)}")
        if self.positive and not value > 0:
            _fail(path, f"must be positive, got {_show(value)}")
        if self.low is not None and value < self.low:
            _fail(path, f"must be >= {self.low}, got {_show(value)}")
        return float(value)


class Int(Field):
    """An integer (not a boolean) in [least, most]; ``pow2`` asks for a power of two."""

    def __init__(self, least, most, default=REQUIRED, pow2=False):
        super().__init__(default)
        self.least, self.most, self.pow2 = least, most, pow2

    def read(self, value, path):
        if isinstance(value, bool) or not isinstance(value, int) or not (
            self.least <= value <= self.most
        ):
            _fail(path, f"must be an integer in [{self.least}, {self.most}], got {_show(value)}")
        if self.pow2 and value & (value - 1):
            _fail(path, f"must be a power of two, got {value}")
        return value


class Bool(Field):
    def read(self, value, path):
        if not isinstance(value, bool):
            _fail(path, f"must be true or false, got {_show(value)}")
        return value


class Choice(Field):
    """A string; one of ``options`` when any are given."""

    def __init__(self, *options, default=REQUIRED):
        super().__init__(default)
        self.options = options

    def read(self, value, path):
        if not isinstance(value, str):
            _fail(path, f"must be a string, got {_show(value)}")
        if self.options and value not in self.options:
            _fail(path, f"must be one of {', '.join(map(repr, self.options))}, got {_show(value)}")
        return value


def _fits(value, shape):
    if not shape:
        return _is_real(value)
    return (isinstance(value, list) and shape[0] in (None, len(value))
            and all(_fits(v, shape[1:]) for v in value))


def _floats(value):
    return [_floats(v) for v in value] if isinstance(value, list) else float(value)


class Reals(Field):
    """Nested lists of finite numbers, as floats, in one of ``shapes`` (None: any length)."""

    def __init__(self, *shapes, default=REQUIRED):
        super().__init__(default)
        self.shapes = shapes

    def read(self, value, path):
        if not any(_fits(value, shape) for shape in self.shapes):
            names = " or ".join("x".join(str(d or "n") for d in s) for s in self.shapes)
            _fail(path, f"must be a list of finite numbers of shape {names}")
        return _floats(value)


def _object(value, path):
    if not isinstance(value, dict):
        _fail(path, "must be an object")


def _read_key(key, field, value, path):
    where = _join(path, key)
    if key in value:
        return field.read(value[key], where)
    if field.default is REQUIRED:
        _fail(where, "is missing")
    return None if field.default is None else field.read(field.default, where)


def _read_fields(fields, value, path):
    for key in value:
        if key not in fields:
            _fail(_join(path, key), "is unknown")
    return {key: _read_key(key, field, value, path) for key, field in fields.items()}


class Obj(Field):
    """A JSON object with exactly the declared keys."""

    def __init__(self, fields, default=REQUIRED):
        super().__init__(default)
        self.fields = fields

    def read(self, value, path=""):
        _object(value, path)
        return _read_fields(self.fields, value, path)


class Variant(Field):
    """An object whose string ``tag`` key picks its other keys: ``{tag value: {key: field}}``.

    The tag is required unless ``pick`` names the variant of a config without it.
    """

    def __init__(self, variants, default=REQUIRED, tag="kind", pick=REQUIRED):
        super().__init__(default)
        self.tag, self.choice = tag, Choice(*variants, default=pick)
        self.variants = {name: {tag: self.choice, **fields} for name, fields in variants.items()}

    def read(self, value, path=""):
        _object(value, path)
        name = _read_key(self.tag, self.choice, value, path)
        return _read_fields(self.variants[name], value, path)


class ListOf(Field):
    """A list of at most ``most`` items, each read by ``item``."""

    def __init__(self, item, most, default=REQUIRED):
        super().__init__(default)
        self.item, self.most = item, most

    def read(self, value, path):
        if not isinstance(value, list) or len(value) > self.most:
            _fail(path, f"must be a list of at most {self.most} entries")
        return [self.item.read(v, _join(path, i)) for i, v in enumerate(value)]
