import numpy as np
import pytest

from pointtomo.assets import (format_matrix_text, parse_matrix_text,
                              reference_effects, reference_family_keys,
                              seven_port_matrix, verify_checksums)
from pointtomo.errors import InvalidInput


def test_checksums_cover_all_assets():
    manifest = verify_checksums()
    assert len(manifest) == 36  # the device matrix plus 35 effect tables


def test_seven_port_matrix_shape_and_scale():
    u = seven_port_matrix()
    assert u.shape == (7, 7)
    assert np.all(np.abs(u) < 1.0)
    # first column is the measured all-positive splitting of input port 1
    assert np.all(u[:, 0].real > 0)
    assert np.allclose(u[:, 0].imag, 0.0)


def test_reference_tables_complete_and_gauged():
    keys = reference_family_keys()
    assert len(keys) == 35
    for subset in keys:
        table = reference_effects(subset)
        assert table.shape == (4, 7)
        assert np.allclose(table[0].imag, 0.0)
        assert np.all(table[0].real >= 0)


def test_reference_lookup_validates_subset():
    with pytest.raises(InvalidInput):
        reference_effects((1, 2, 3))


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
