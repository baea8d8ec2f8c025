"""Sweep tables as comma-separated text, atomic text writes and config hashes.

Tables are UTF-8 with LF line endings and repr-exact floats, so identical
(config, seed) pairs reproduce files byte for byte. Writes are atomic (tmp
file + rename); a failed run leaves no partial table behind. The JSON
sidecar that records a run is assembled by the command line
(:func:`pointtomo.cli._write_run`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import InvalidInput
from .simulate import SweepResult


def _format_value(x: float) -> str:
    if isinstance(x, float) and np.isnan(x):
        return "nan"
    if isinstance(x, float) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_table_text(result: SweepResult) -> str:
    lines = [",".join(SweepResult.COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def read_sweep_table(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != SweepResult.COLUMNS:
            raise InvalidInput(f"unexpected table header {header}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError:
                row = []
            if len(row) != len(header):
                raise InvalidInput(f"line {lineno} of {path}: expected {len(header)} numeric "
                                   f"fields, got {text!r}")
            rows.append(row)
    if not rows:
        raise InvalidInput("table has no data rows")
    return np.asarray(rows, dtype=float)


def config_hash(obj) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
