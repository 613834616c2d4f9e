import numpy as np
import pytest

from rislink.channel import SPEED_OF_LIGHT, PathLossModel, los_channel, wavelength
from rislink.geometry import PlanarArray, facing_array

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def facing_pair(d, rows=1, cols=1, spacing=0.005):
    tx = facing_array([0.0, 0.0, 0.0], rows, cols, spacing, [d, 0.0, 0.0])
    rx = facing_array([d, 0.0, 0.0], rows, cols, spacing, [0.0, 0.0, 0.0])
    return tx, rx


def test_wavelength_values():
    assert wavelength(28e9) == pytest.approx(0.01070687, abs=1e-8)
    assert wavelength(SPEED_OF_LIGHT) == 1.0
    assert wavelength(3e9) == pytest.approx(0.0999308, abs=1e-7)
    with pytest.raises(ValueError):
        wavelength(0.0)


def test_facing_single_elements_magnitude_and_phase():
    d = 7.0
    lam = 0.01
    tx, rx = facing_pair(d)
    h = los_channel(tx, rx, lam, PathLossModel(4.0))
    entry = h.entries[0, 0]
    assert abs(entry) == pytest.approx(np.pi / d**2, rel=1e-12)
    kappa = 2 * np.pi / lam
    assert np.angle(entry) == pytest.approx(
        np.angle(np.exp(-1j * kappa * d)), abs=1e-9
    )


def test_clamped_cosine_gives_exactly_zero_entry():
    # rx faces away from tx: its aperture cosine clamps to 0
    tx = facing_array([0.0, 0.0, 0.0], 1, 1, 0.005, [5.0, 0.0, 0.0])
    rx = facing_array([5.0, 0.0, 0.0], 1, 1, 0.005, [10.0, 0.0, 0.0])
    h = los_channel(tx, rx, 0.01, PathLossModel(4.0))
    assert h.entries[0, 0] == 0.0


def test_paper_tx_ris_link_path_loss():
    d = np.sqrt(200.0)
    beta = PathLossModel(4.0).beta(d)
    assert beta == pytest.approx(4.0000e4, rel=1e-10)
    tx, rx = facing_pair(d)
    h = los_channel(tx, rx, wavelength(28e9), PathLossModel(4.0))
    # broadside pair, both cosines 1: magnitude = pi/sqrt(beta) = pi/200
    assert abs(h.entries[0, 0]) == pytest.approx(np.pi / 200.0, rel=1e-12)


def test_wavelength_change_only_affects_phase():
    tx, rx = facing_pair(9.0, rows=2, cols=2)
    pl = PathLossModel(4.0)
    h1 = los_channel(tx, rx, 0.01, pl)
    h2 = los_channel(tx, rx, 0.013, pl)
    np.testing.assert_allclose(np.abs(h1.entries), np.abs(h2.entries), rtol=1e-12)
    assert not np.allclose(np.angle(h1.entries), np.angle(h2.entries))


def test_doubling_distance_scaling_alpha4():
    # rigid scaling about tx with cosines unchanged: |entry| divides by 4
    lam = 0.01
    pl = PathLossModel(4.0)
    tx, rx1 = facing_pair(6.0)
    _, rx2 = facing_pair(12.0)
    h1 = los_channel(tx, rx1, lam, pl)
    h2 = los_channel(tx, rx2, lam, pl)
    assert abs(h1.entries[0, 0]) / abs(h2.entries[0, 0]) == pytest.approx(4.0, rel=1e-12)


def test_reciprocity():
    a = facing_array([0.0, 0.0, 0.0], 3, 2, 0.005, [8.0, 3.0, 1.0])
    b = facing_array([8.0, 3.0, 1.0], 2, 2, 0.005, [0.0, 0.0, 0.0])
    lam = 0.011
    pl = PathLossModel(4.0)
    h_ab = los_channel(a, b, lam, pl)  # b receives from a: (4, 6)
    h_ba = los_channel(b, a, lam, pl)  # a receives from b: (6, 4)
    np.testing.assert_allclose(h_ab.entries.T, h_ba.entries, rtol=1e-12)


def test_overlapping_arrays_rejected():
    a = PlanarArray([0.0, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)
    with pytest.raises(ValueError):
        los_channel(a, a, 0.01, PathLossModel(4.0))


def test_path_loss_model_validation():
    with pytest.raises(ValueError):
        PathLossModel(1.5)

