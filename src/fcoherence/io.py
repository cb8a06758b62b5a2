"""JSON file formats for states and channels.

A state file is ``{"dim": d, "matrix": [[[re, im], ...], ...]}``; a
channel file is ``{"dim": d, "kraus": [matrix, ...], "label": ...}``
with the same cell encoding. Floats are written with 17 significant
digits, so a write and re-read loses no precision; channel files round
trip byte for byte, state files only up to the validation rebuild.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .channels import (
    KrausChannel,
    dephasing_channel,
    depolarizing_extension,
    erasure_extension,
)
from .errors import FileFormatError
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
    x = float(x)
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return f"{x:.17g}"


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
        return dumps17(obj.tolist())
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps17(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps17(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _matrix_lines(matrix: np.ndarray, indent: str) -> str:
    rows = []
    for row in np.asarray(matrix):
        cells = ", ".join(
            f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in row
        )
        rows.append(f"{indent}[{cells}]")
    return ",\n".join(rows)


def state_to_json(rho: DensityMatrix) -> str:
    return (
        "{\n"
        f'  "dim": {rho.dim},\n'
        '  "matrix": [\n'
        f"{_matrix_lines(rho.matrix, '    ')}\n"
        "  ]\n"
        "}\n"
    )


def channel_to_json(ch: KrausChannel) -> str:
    blocks = []
    for k in ch.kraus_ops:
        blocks.append("    [\n" + _matrix_lines(k, "      ") + "\n    ]")
    label = f'  "label": {json.dumps(ch.label)},\n' if ch.label else ""
    return (
        "{\n"
        f'  "dim": {ch.dim},\n'
        f"{label}"
        '  "kraus": [\n'
        + ",\n".join(blocks)
        + "\n  ]\n"
        "}\n"
    )


def save_state(rho: DensityMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(rho))


def save_channel(ch: KrausChannel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(channel_to_json(ch))


def _is_number(v) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_dim(doc: dict, path: str) -> int:
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: 'dim' must be a positive integer")
    return dim


def _parse_complex_matrix(raw, dim: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise FileFormatError(f"{what}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
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
            out[i, j] = complex(float(cell[0]), float(cell[1]))
    return out


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise FileFormatError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
    """Read a channel file; completeness is enforced by the constructor."""
    doc = _load_json(path)
    if "dim" not in doc or "kraus" not in doc:
        raise FileFormatError(f"{path}: channel file needs 'dim' and 'kraus'")
    dim = _parse_dim(doc, path)
    raw = doc["kraus"]
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{path}: 'kraus' must be a non-empty list")
    ops = [
        _parse_complex_matrix(block, dim, f"{path}: kraus[{i}]")
        for i, block in enumerate(raw)
    ]
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise FileFormatError(f"{path}: 'label' must be a string")
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
