"""Exception types shared across the package, and the checks that turn a
malformed model file into one of them instead of a bare KeyError or TypeError."""
import json
import math
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


def check_keys(d, where: str, required=(), allowed=None) -> dict:
    """d itself, once it is a JSON object that holds every required key and,
    when allowed is given, no key outside it; else a ValidationError naming
    the first offending key."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValidationError(f"{where} is missing key {missing[0]!r}")
    unknown = sorted(set(d) - set(allowed)) if allowed is not None else []
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in {where}")
    return d


def check_number(value, where: str, integer: bool = False):
    """value itself, once it is a finite JSON number (an integer when integer
    is set); else a ValidationError naming where."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not math.isfinite(value):
        raise ValidationError(f"{where} must be {'an integer' if integer else 'a finite number'}, "
                              f"got {value!r}")
    return value


def check_list(value, where: str) -> list:
    """value itself, once it is a JSON array; else a ValidationError naming where."""
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list, got {type(value).__name__}")
    return value


def float_array(value, where: str) -> np.ndarray:
    """value as a float64 array; a ragged, non-numeric or non-finite value is
    a ValidationError naming where."""
    check_list(value, where)
    try:
        out = np.asarray(value, dtype=np.float64)
        if np.all(np.isfinite(out)):
            return out
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{where} must be a rectangular array of finite numbers")


def read_json_file(path) -> object:
    """The JSON document in a file; a file that is missing, cannot be read or
    does not parse is a ValidationError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
