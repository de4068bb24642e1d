"""Exception types shared across the package, the typed reader that turns a
config section or a model file into the object it describes, or into one of
these errors instead of a bare KeyError or TypeError, and the JSON writer."""
import functools
import inspect
import json
import math
import re
import reprlib
import types
import typing
from pathlib import Path

import numpy as np


class GraphPhpaError(Exception):
    """Base class for all package errors."""


class ShapeError(GraphPhpaError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class ValidationError(GraphPhpaError, ValueError):
    """An input violates a documented invariant."""


class EmptyDatasetError(GraphPhpaError, ValueError):
    """A dataset-producing operation would yield zero samples."""


class DivergenceError(GraphPhpaError, RuntimeError):
    """Training or evaluation produced a non-finite value."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class TraceFormatError(GraphPhpaError, ValueError):
    """A trace file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ConfigError(GraphPhpaError, ValueError):
    """An experiment configuration document is invalid."""


class RunMismatchError(GraphPhpaError, ValueError):
    """Two runs being compared differ in a field that must match."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_keys(d, where: str, required, allowed) -> dict:
    """d itself, once it is a JSON object that holds every required key and no
    key outside allowed; else a ValidationError naming the first offending
    key."""
    check_value(d, dict, where)
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in {where}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValidationError(f"missing required key {missing[0]!r} in {where}")
    return d


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
          list: "a list", tuple: "a list", dict: "an object"}


def check_value(value, annotation, where: str):
    """value itself, once it is a JSON value of the annotated type; else a
    ValidationError naming where, or the path of the element at fault. int is
    an integer and float a finite number, neither of them a bool; X | None
    also takes null, tuple[X, ...] is a list of Xs and dict[str, X] an object
    of Xs."""
    if type(annotation) is types.UnionType:  # X | None
        if value is None:
            return value
        annotation = typing.get_args(annotation)[0]
    kind = typing.get_origin(annotation) or annotation
    if kind is float or kind is int:
        ok = (isinstance(value, (int, float) if kind is float else int)
              and not isinstance(value, bool) and -math.inf < value < math.inf)
    else:
        ok = isinstance(value, (list, tuple) if kind is tuple else kind)
    if not ok:
        raise ValidationError(f"{where} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    args = typing.get_args(annotation)
    if kind is tuple and args:
        for i, item in enumerate(value):
            check_value(item, args[0], f"{where}[{i}]")
    elif kind is dict and args:
        for key, item in value.items():
            check_value(item, args[1], f"{where}.{key}")
    return value


@functools.cache
def _parameters(target) -> tuple:
    """(name, annotation, required) of every parameter of target."""
    return tuple((p.name, p.annotation, p.default is p.empty)
                 for p in inspect.signature(target, eval_str=True).parameters.values())


def read(target, obj, where: str, **given):
    """target(**given, **obj), once obj is a JSON object of target's other
    parameters, no other key, holding each one without a default, every value
    of its annotated type (check_value): a signature states each key, type and
    default once. A ValidationError names the key by its dotted path under
    where; one that target raises comes back with each parameter it names
    written as its path, or else prefixed with where, unless it names where."""
    params = [p for p in _parameters(target) if p[0] not in given]
    names = [name for name, _, _ in params]
    check_keys(obj, where, required=[name for name, _, required in params if required],
               allowed=names)
    for name, annotation, _ in params:
        if name in obj:
            check_value(obj[name], annotation, f"{where}.{name}")
    try:
        return target(**given, **obj)
    except ValidationError as exc:
        message = str(exc)
        if where in message:
            raise
        named = re.sub(rf"(?<![\w.'\"])({'|'.join(names)})\b", lambda m: f"{where}.{m[0]}",
                       message)
        raise ValidationError(named if named != message else f"{where}: {message}") from None


# "/" and the characters no UTF-8 file or XML chart can hold: NUL and the
# other C0 controls but tab, LF and CR, and lone surrogates.
_UNWRITABLE = re.compile("[/\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff]")


def check_name(name: str, where: str) -> None:
    """A ValidationError naming where if name, which model files and charts
    are named after, holds a character of _UNWRITABLE."""
    if _UNWRITABLE.search(name):
        raise ValidationError(f"{where} {name!r} must not contain '/' or NUL, another control "
                              f"character but tab, LF and CR, or a lone surrogate: files "
                              f"are named after it")


def float_array(value, where: str, dtype=np.float64) -> np.ndarray:
    """value as an array of dtype; a ragged value, one with a leaf that is not
    a JSON number, or one that is not finite in dtype (1e39 overflows float32)
    is a ValidationError naming where."""
    check_value(value, list, where)
    try:
        with np.errstate(over="ignore"):
            out = np.asarray(value, dtype=np.float64).astype(dtype, copy=False)
        # float64 takes true for 1.0 and "2" for 2.0: the leaves' own types decide.
        if (np.all(np.isfinite(out))
                and set(map(type, np.asarray(value, dtype=object).flat)) <= {int, float}):
            return out
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{where} must be a rectangular array of finite "
                          f"{np.dtype(dtype).name} numbers")


def read_text(path) -> str:
    """The UTF-8 text of a file; one that is missing, cannot be read or is not
    UTF-8 is a ValidationError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: byte {exc.start} is not UTF-8 "
                              f"({exc.reason})") from None


def read_json_file(path, parse):
    """parse(the JSON document in a file). A file that read_text refuses or
    that does not parse is a ValidationError naming it; a ValidationError or
    ShapeError from parse comes back with the path in front."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    try:
        return parse(doc)
    except (ValidationError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_json(path, doc, indent: int | None = None) -> None:
    """Write doc to a file as JSON with sorted keys and a final newline, in
    UTF-8 with LF line endings, so that the same doc always gives the same
    bytes; indent as json.dumps takes it."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=indent) + "\n",
                          encoding="utf-8", newline="\n")
