"""Versioned numeric data assets and the plain-text matrix format.

Matrices are stored as text: ``#`` comment lines, then one row per line of
whitespace-separated complex tokens in ``re+imj`` form. The shipped assets
are the characterized 7-port device matrix and the 35 reference effect
tables (one per 4-of-7 input family), with SHA-256 checksums.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import numpy as np

from .errors import InvalidInput

U7_NAME = "u7.txt"
CHECKSUM_NAME = "sha256sums.txt"


def parse_matrix_text(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([complex(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise InvalidInput(f"bad complex token on line {lineno}: {exc}") from exc
    if not rows:
        raise InvalidInput("matrix text contains no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidInput("matrix text has ragged rows")
    return np.array(rows, dtype=complex)


def format_matrix_text(mat: np.ndarray) -> str:
    return "".join(" ".join(f"{z.real:+.10g}{'+' if z.imag >= 0 else '-'}{abs(z.imag):.10g}j"
                            for z in row) + "\n"
                   for row in np.atleast_2d(np.asarray(mat, dtype=complex)))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def _data_root():
    return resources.files(__package__) / "data"


def asset_text(name: str) -> str:
    return (_data_root() / name).read_text(encoding="utf-8")


def asset_matrix(name: str) -> np.ndarray:
    return parse_matrix_text(asset_text(name))


def seven_port_matrix() -> np.ndarray:
    """The characterized 7x7 device matrix (raw, slightly non-unitary)."""
    return asset_matrix(U7_NAME)


def reference_effects(subset) -> np.ndarray:
    """Shipped reference effect table for a 4-of-7 family, shape (4, 7).

    Rows are logical components j = 0..3 under the real-nonnegative leading
    row convention; columns are the seven outcomes.
    """
    key = "".join(str(int(s)) for s in subset)
    if len(key) != 4:
        raise InvalidInput(f"reference tables exist for 4-input families only, got {subset}")
    return asset_matrix(f"effects_{key}.txt")


def reference_family_keys() -> list:
    """Subsets covered by the shipped reference tables, in lexicographic order."""
    names = sorted(p.name for p in _data_root().iterdir()
                   if p.name.startswith("effects_") and p.name.endswith(".txt"))
    return [tuple(int(c) for c in name[len("effects_"):-len(".txt")]) for name in names]


def verify_checksums() -> dict:
    """Recompute SHA-256 digests of all assets against the shipped manifest.

    Returns the manifest mapping; raises on any mismatch or missing file.
    """
    manifest = {}
    for line in asset_text(CHECKSUM_NAME).splitlines():
        if not line.strip():
            continue
        digest, name = line.split()
        manifest[name] = digest
    for name, digest in manifest.items():
        actual = hashlib.sha256((_data_root() / name).read_bytes()).hexdigest()
        if actual != digest:
            raise InvalidInput(f"asset {name} does not match its recorded checksum")
    return manifest
