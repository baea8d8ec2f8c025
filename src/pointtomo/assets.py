"""The shipped device matrix and the plain-text matrix format.

Matrices are stored as text: ``#`` comment lines, then one row per line of
whitespace-separated complex tokens in ``re+imj`` form. The one shipped
asset is the characterized 7-port device matrix.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .errors import InvalidInput

U7_NAME = "u7.txt"


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


def asset_text(name: str) -> str:
    return (resources.files(__package__) / "data" / name).read_text(encoding="utf-8")


def seven_port_matrix() -> np.ndarray:
    """The characterized 7x7 device matrix (raw, slightly non-unitary)."""
    return parse_matrix_text(asset_text(U7_NAME))
