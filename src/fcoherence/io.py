"""JSON file formats for states and channels.

A state file is ``{"dim": d, "matrix": [[[re, im], ...], ...]}``; a
channel file is ``{"dim": d, "kraus": [matrix, ...], "label": ...}``
with the same cell encoding. Floats are written with 17 significant
digits, so a write and re-read loses no precision; channel files round
trip byte for byte, state files only up to the validation rebuild.

There is one writer, :func:`dumps17`. It formats a float or complex
array in one batched step, and the state and channel files are its
multi-line layout of the same bytes. The reader converts a matrix with
one ``np.array`` call and one pass over the cell types; only a rejected
matrix is walked cell by cell, to name the offending cell.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain
from typing import NoReturn

import numpy as np

from .channels import (
    GioChannel,
    KrausChannel,
    dephasing_channel,
    depolarizing_extension,
    erasure_extension,
)
from .errors import FileFormatError, NotGio
from .states import DensityMatrix, validate_density

__all__ = [
    "format_float",
    "dumps17",
    "state_to_json",
    "channel_to_json",
    "save_state",
    "load_state",
    "save_channel",
    "load_channel",
    "builtin_channel",
    "load_channel_or_builtin",
]


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return _dumps_array(np.asarray(float(x)))


def dumps17(obj) -> str:
    """Serialize to JSON with every float at 17 significant digits.

    Non-finite floats become the strings "inf", "-inf", "nan" so the
    output is always strict JSON.
    """
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc":
            return _dumps_array(obj)
        return dumps17(obj.tolist())
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps17(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps17(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_NON_FINITE = re.compile(r"-?inf|nan")


def _dumps_array(a: np.ndarray, lines: int = 0) -> str:
    """The bytes of ``dumps17(a.tolist())`` for a float or complex array,
    from one %-template over the flat values.

    The first ``lines`` axes put one item per line, indented as the
    value of a top-level key in a multi-line document.
    """
    is_complex = a.dtype.kind == "c"
    flat = np.asarray(a, dtype=complex if is_complex else float).ravel()
    if is_complex:
        flat = flat.view(float)
    text = "[%.17g, %.17g]" if is_complex else "%.17g"
    for axis in reversed(range(a.ndim)):
        items = [text] * a.shape[axis]
        if axis < lines:
            br = "\n" + "  " * (axis + 2)
            text = "[" + br + ("," + br).join(items) + br[:-2] + "]"
        else:
            text = "[" + ", ".join(items) + "]"
    text %= tuple(flat.tolist())
    if not np.isfinite(flat).all():
        text = _NON_FINITE.sub(r'"\g<0>"', text)
    return text


def state_to_json(rho: DensityMatrix) -> str:
    return (
        "{\n"
        f'  "dim": {rho.dim},\n'
        f'  "matrix": {_dumps_array(rho.matrix, lines=1)}\n'
        "}\n"
    )


def channel_to_json(ch: KrausChannel) -> str:
    label = f'  "label": {json.dumps(ch.label)},\n' if ch.label else ""
    return (
        "{\n"
        f'  "dim": {ch.dim},\n'
        f"{label}"
        f'  "kraus": {_dumps_array(ch.kraus_ops, lines=2)}\n'
        "}\n"
    )


def save_state(rho: DensityMatrix, path: str) -> None:
    _write_text(path, state_to_json(rho))


def save_channel(ch: KrausChannel, path: str) -> None:
    _write_text(path, channel_to_json(ch))


def _write_text(path: str, text: str) -> None:
    """Write text to path, raising FileFormatError when it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _is_number(v) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_dim(doc: dict, path: str) -> int:
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: 'dim' must be a positive integer")
    return dim


def _parse_complex_matrix(raw, dim: int, what: str) -> np.ndarray:
    try:
        cells = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        cells = None
    # np.array would also take strings, nulls and booleans as numbers.
    if (
        cells is None
        or cells.shape != (dim, dim, 2)
        or not set(map(type, chain.from_iterable(chain.from_iterable(raw)))) <= {int, float}
    ):
        _reject_matrix(raw, dim, what)
    return cells.view(complex).reshape(dim, dim)


def _reject_matrix(raw, dim: int, what: str) -> NoReturn:
    """Raise FileFormatError naming the first bad row or cell."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise FileFormatError(f"{what}: expected {dim} rows")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"{what}: row {i} must have {dim} cells")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(_is_number(v) for v in cell)
            ):
                raise FileFormatError(
                    f"{what}: cell ({i},{j}) must be a [re, im] pair of numbers"
                )
            try:
                float(cell[0]), float(cell[1])
            except OverflowError:
                raise FileFormatError(
                    f"{what}: cell ({i},{j}) holds a number too large for a double"
                ) from None
    raise FileFormatError(f"{what}: not a {dim}x{dim} matrix of [re, im] pairs")


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise FileFormatError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers bad JSON, bad UTF-8 and integers over the
    # interpreter's digit limit; RecursionError covers deep nesting.
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return doc


def load_state(path: str) -> DensityMatrix:
    """Read a state file and validate it as a density matrix."""
    doc = _load_json(path)
    if "dim" not in doc or "matrix" not in doc:
        raise FileFormatError(f"{path}: state file needs 'dim' and 'matrix'")
    dim = _parse_dim(doc, path)
    matrix = _parse_complex_matrix(doc["matrix"], dim, f"{path}: matrix")
    return validate_density(matrix)


def load_channel(path: str) -> KrausChannel:
    """Read a channel file; completeness is enforced by the constructor.

    A channel whose Kraus operators are all diagonal loads as a
    GioChannel, which applies as a Schur product.
    """
    doc = _load_json(path)
    if "dim" not in doc or "kraus" not in doc:
        raise FileFormatError(f"{path}: channel file needs 'dim' and 'kraus'")
    dim = _parse_dim(doc, path)
    raw = doc["kraus"]
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{path}: 'kraus' must be a non-empty list")
    ops = np.stack([
        _parse_complex_matrix(block, dim, f"{path}: kraus[{i}]")
        for i, block in enumerate(raw)
    ])
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise FileFormatError(f"{path}: 'label' must be a string")
    try:
        return GioChannel(ops, label=label)
    except NotGio:
        return KrausChannel(ops, label=label)


_BUILTIN_CHANNELS = {
    "depol-ext": depolarizing_extension,
    "erase-ext": erasure_extension,
    "dephase": dephasing_channel,
}


def builtin_channel(spec: str) -> KrausChannel | None:
    """Resolve "depol-ext:d", "erase-ext:d", or "dephase:d"; None otherwise."""
    name, sep, arg = spec.partition(":")
    if not sep or name not in _BUILTIN_CHANNELS:
        return None
    try:
        d = int(arg)
    except ValueError:
        raise FileFormatError(f"bad dimension in builtin channel spec {spec!r}") from None
    if d < 2:
        raise FileFormatError(f"builtin channel {spec!r} needs dimension >= 2")
    return _BUILTIN_CHANNELS[name](d)


def load_channel_or_builtin(spec: str) -> KrausChannel:
    """A builtin channel name if the spec matches the grammar, else a file."""
    ch = builtin_channel(spec)
    if ch is not None:
        return ch
    return load_channel(spec)
