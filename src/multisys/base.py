"""Shared plumbing: the package error base class, file reading and writing, and
input validation.

Estimators keep their constructor arguments untouched as public attributes;
fitting writes learned state to attributes with a trailing underscore.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
from collections import Counter

import numpy as np


class MultisysError(Exception):
    """Base of every error caused by bad input or run-directory state.

    The CLI reports it as one JSON line, ``{"error": kind, "message": ...}``,
    and exits with status 2; ``kind`` defaults to the class name.
    """

    def __init__(self, message: str, *, kind: str | None = None):
        super().__init__(message)
        self.kind = kind or type(self).__name__


def read_file(path: str, decode, error, parse=json.load):
    """`decode(parse(fh))` of the UTF-8 file at `path`, a byte-order mark skipped;
    `error(message naming the file)` if it cannot be read, parsed or decoded, but
    a MultisysError keeps its class and kind, its message naming the file too."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return decode(parse(fh))
    except MultisysError as exc:
        exc.args = (f"cannot read {path}: {exc}",)
        raise
    except (OSError, csv.Error, AttributeError, LookupError, OverflowError, RecursionError,
            TypeError, ValueError) as exc:  # RecursionError: JSON nested too deep to parse
        # not the repr: a UnicodeDecodeError's holds the whole chunk it failed on
        raise error(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def write_file(path: str):
    """A text file that replaces the file at `path` atomically: it is written
    as `path.tmp` and moved onto `path` when the block ends without an error,
    so a failed write leaves the previous bytes and no temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def is_finite(value) -> bool:
    """True for an int or float that is a finite float, never for a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def numbers(values, name: str, n: int | None = None, below: int | None = None) -> np.ndarray:
    """The one decode of numbers read back from an artifact: `values`, a JSON list
    or an int CSV column's `tolist()`, as a float array, or with `below` an int
    array.  ValueError naming `name` unless it is a list (of n items if n is
    given) of finite numbers (never a bool), with `below` integers in [0, below)."""
    if not isinstance(values, list) or n is not None and len(values) != n:
        raise ValueError(f"{name} is not a list" + ("" if n is None else f" of {n} numbers"))
    valid = is_finite if below is None else lambda v: type(v) is int and 0 <= v < below
    if not all(map(valid, values)):
        expected = "a finite number" if below is None else f"an integer in [0, {below})"
        raise ValueError(f"{name} holds a value that is not {expected}")
    return np.array(values, dtype=float if below is None else int)


def repeated(keys) -> list:
    """The keys that occur more than once, each once, in order of first occurrence."""
    return [k for k, count in Counter(keys).items() if count > 1]


def check_keys(doc: dict, allowed, where: str) -> dict:
    """`doc` itself; ValueError if it holds a key outside `allowed`."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return doc


def check_X(X, n_features: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"X has {X.shape[1]} features, expected {n_features}")
    return X


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = check_X(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError("y length does not match X")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("y must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise ValueError("y holds fewer than two classes")
    return X, y.astype(int)
