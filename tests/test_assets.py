import hashlib
import itertools
from importlib import resources

import numpy as np
import pytest

from conftest import DATA, reference_tables
from pointtomo.assets import U7_NAME, format_matrix_text, parse_matrix_text, seven_port_matrix
from pointtomo.errors import InvalidInput


def test_checksums_cover_all_assets():
    # the manifest covers the 35 reference tables here and the package's device matrix
    files = {path.name: path for path in DATA.glob("effects_*.txt")}
    files[U7_NAME] = resources.files("pointtomo") / "data" / U7_NAME
    manifest = [line.split() for line in (DATA / "sha256sums.txt").read_text().splitlines()]
    assert sorted(name for _, name in manifest) == sorted(files) and len(files) == 36
    for digest, name in manifest:
        assert hashlib.sha256(files[name].read_bytes()).hexdigest() == digest, name


def test_seven_port_matrix_shape_and_scale():
    u = seven_port_matrix()
    assert u.shape == (7, 7)
    assert np.all(np.abs(u) < 1.0)
    # first column is the measured all-positive splitting of input port 1
    assert np.all(u[:, 0].real > 0)
    assert np.allclose(u[:, 0].imag, 0.0)


def test_reference_tables_complete_and_gauged():
    tables = reference_tables()
    assert list(tables) == sorted(itertools.combinations(range(1, 8), 4))
    for table in tables.values():
        assert table.shape == (4, 7)
        assert np.allclose(table[0].imag, 0.0)
        assert np.all(table[0].real >= 0)


def test_matrix_text_roundtrip():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    text = "# roundtrip check\n" + format_matrix_text(mat)
    back = parse_matrix_text(text)
    assert np.max(np.abs(back - mat)) < 1e-9


def test_parse_rejects_ragged_and_empty():
    with pytest.raises(InvalidInput):
        parse_matrix_text("1+0j 2+0j\n3+0j\n")
    with pytest.raises(InvalidInput):
        parse_matrix_text("# only comments\n")
    with pytest.raises(InvalidInput):
        parse_matrix_text("1+0j notanumber\n")
