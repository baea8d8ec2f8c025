"""Table and metadata output: comma-separated text plus a JSON sidecar.

Tables are UTF-8 with LF line endings and repr-exact floats, so identical
(config, seed) pairs reproduce files byte for byte. Writes are atomic (tmp
file + rename); a failed run leaves no partial table behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from .blas import blas_threads
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


def metadata_record(config_digest: str, seed: int | None, extra: dict | None = None) -> dict:
    from . import __version__

    return {
        "config_hash": config_digest,
        "seed": seed,
        "versions": {"pointtomo": __version__, "numpy": np.__version__},
        "blas_threads": blas_threads(),
        **(extra or {}),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def config_hash(obj) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_output(path: str, text: str, config_digest: str, seed: int | None,
                 extra: dict | None = None, stage_s: dict | None = None) -> None:
    """Write ``text`` to ``path`` and its ``.meta.json`` sidecar, each atomically.

    ``stage_s`` maps the run's stages to their wall seconds; when given, the
    sidecar records it under ``stage_s`` with a ``write`` stage added, the
    seconds taken to write ``text``.
    """
    start = time.perf_counter()
    atomic_write_text(path, text)
    if stage_s is not None:
        extra = {**(extra or {}), "stage_s": {**stage_s, "write": time.perf_counter() - start}}
    record = metadata_record(config_digest, seed, extra)
    atomic_write_text(os.path.splitext(path)[0] + ".meta.json",
                      json.dumps(record, indent=2, sort_keys=True) + "\n")
