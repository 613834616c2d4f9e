import numpy as np
import pytest

from conftest import random_arrays
from rislink import channel, harness
from rislink.channel import (
    SPEED_OF_LIGHT,
    PathLossModel,
    cascaded_los_coefficients,
    los_channel,
    wavelength,
)
from rislink.geometry import PlanarArray, element_positions, facing_array
from rislink.link import steering_precoder
from rislink.ris import cascaded_coefficients

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


def whole_and_blocked(tx, ris, rx, lam):
    """c from the two whole los_channel matrices and from
    cascaded_los_coefficients, under the steering precoders toward the RIS."""
    pl = PathLossModel(4.0)
    w_tx = steering_precoder(tx, ris.center, lam)
    w_rx = steering_precoder(rx, ris.center, lam)
    whole = cascaded_coefficients(los_channel(tx, ris, lam, pl), los_channel(ris, rx, lam, pl),
                                  w_tx, w_rx)
    return whole, cascaded_los_coefficients(tx, ris, rx, lam, pl, w_tx, w_rx)


@pytest.mark.parametrize("tx_shape, rx_shape, ris_shape", [
    ((10, 10), (1, 1), (40, 40)),  # the default scene
    ((10, 10), (1, 1), (37, 23)),  # 851 elements: a last block of 19
    ((7, 13), (1, 1), (40, 40)),
    ((10, 10), (2, 3), (40, 40)),  # ris -> rx entries built a block at a time
    ((10, 10), (2, 3), (24, 30)),  # ... and whole: 6 x 720 <= 64 x 100
])
def test_blocked_coefficients_equal_whole_matrices(tx_shape, rx_shape, ris_shape):
    # bitwise: each coefficient is the same two dot products in either
    # form, summed in the same order. (With several BLAS threads the whole
    # product over a multi-element receiver and an odd number of RIS
    # elements is not: on a 33 x 41 RIS the first and last coefficients of
    # the second thread's share rounded differently. So that case is not
    # compared here.)
    tx, rx, ris = default_layout(tx_shape, rx_shape, ris_shape)
    whole, blocked = whole_and_blocked(tx, ris, rx, wavelength(28e9))
    assert np.array_equal(blocked, whole)
    if ris_shape == (37, 23):
        assert ris.num_elements % channel._BLOCK_ELEMENTS


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ris_shape, rx_shape", [((4, 4), (1, 1)), ((13, 11), (1, 1)),
                                                 ((12, 16), (2, 3))])
def test_blocked_coefficients_equal_whole_on_random_scenes(seed, ris_shape, rx_shape):
    tx, rx, ris, _ = random_arrays(seed, ris_shape, rx_shape)
    whole, blocked = whole_and_blocked(tx, ris, rx, wavelength(28e9))
    assert np.array_equal(blocked, whole)


def restated_los_entries(p_tx, p_rx, tx, rx, kappa, beta):
    """channel._los_entries restated plainly, the oracle it must equal
    bitwise: d by np.linalg.norm over an (M, N, 3) difference array, each
    aperture cosine times d as the difference of the two elements'
    projections on that array's normal about rx's center, and a complex exp."""
    d = np.linalg.norm(p_tx[None, :, :] - p_rx[:, None, :], axis=-1)
    rel_tx, rel_rx = p_tx - rx.center, p_rx - rx.center
    on_rx = np.maximum(rel_tx @ rx.normal - (rel_rx @ rx.normal)[:, None], 0.0)
    on_tx = np.maximum((rel_rx @ tx.normal)[:, None] - rel_tx @ tx.normal, 0.0)
    amplitude = np.sqrt(on_rx * on_tx * (np.pi**2 / beta)) / d
    return amplitude * np.exp(-1j * kappa * d)


def unit_vector_los_entries(p_tx, p_rx, tx, rx, kappa, beta):
    """The LoS entries with the aperture cosines read off unit vectors
    between the elements, as the module docstring states them: the oracle
    channel._los_entries must match to rounding."""
    diff = p_tx[None, :, :] - p_rx[:, None, :]
    d = np.linalg.norm(diff, axis=-1)
    u = diff / d[..., None]
    cos_rx = np.clip(u @ rx.normal, 0.0, None)
    cos_tx = np.clip(-(u @ tx.normal), 0.0, None)
    amplitude = np.sqrt(np.pi**2 * cos_rx * cos_tx / beta)
    return amplitude * np.exp(-1j * kappa * d)


# entries and coefficients may differ from unit_vector_los_entries' by this
# share of the largest magnitude among them: a few roundings of one entry
UNIT_VECTOR_RTOL = 1e-14


def default_layout(tx_shape, rx_shape, ris_shape):
    lam = wavelength(28e9)
    ris_center = np.array([10.0, 0.0, 0.0])
    tx = facing_array([0.0, 10.0, 0.0], *tx_shape, lam / 2, ris_center)
    rx = facing_array([10.0, 15.0, 0.0], *rx_shape, lam / 2, ris_center)
    ris = facing_array(ris_center, *ris_shape, lam / 2, (tx.center + rx.center) / 2)
    return tx, rx, ris


def assert_los_entries_match_oracles(monkeypatch, tx, rx, ris):
    """The channels between the three arrays, both ways, and c, from
    channel._los_entries: bitwise those of restated_los_entries, and within
    UNIT_VECTOR_RTOL of those of unit_vector_los_entries."""
    lam, pl = wavelength(28e9), PathLossModel(4.0)
    w_tx = steering_precoder(tx, ris.center, lam)
    w_rx = steering_precoder(rx, ris.center, lam)
    pairs = [(tx, ris), (ris, rx), (rx, ris), (ris, tx)]

    def build(kernel):
        monkeypatch.setattr(channel, "_los_entries", kernel)
        return ([los_channel(a, b, lam, pl).entries for a, b in pairs],
                cascaded_los_coefficients(tx, ris, rx, lam, pl, w_tx, w_rx))

    channels, c = build(channel._los_entries)
    restated_channels, restated_c = build(restated_los_entries)
    unit_channels, unit_c = build(unit_vector_los_entries)
    for got, restated, unit in zip([*channels, c], [*restated_channels, restated_c],
                                   [*unit_channels, unit_c]):
        assert np.array_equal(got, restated)
        assert np.max(np.abs(got - unit)) <= UNIT_VECTOR_RTOL * np.max(np.abs(unit))


@pytest.mark.parametrize("tx_shape, rx_shape, ris_shape", [
    ((10, 10), (1, 1), (40, 40)),
    ((10, 10), (1, 1), (37, 23)),
    ((7, 13), (1, 1), (40, 40)),
    ((10, 10), (2, 3), (40, 40)),
    ((10, 10), (1, 1), (1, 40)),  # 1 x N and N x 1 RIS arrays
    ((10, 10), (2, 3), (40, 1)),
    ((1, 1), (1, 1), (1, 65)),  # single elements: a last RIS block of one
    ((1, 7), (3, 1), (9, 1)),
])
def test_los_entries_match_oracles(monkeypatch, tx_shape, rx_shape, ris_shape):
    assert_los_entries_match_oracles(monkeypatch, *default_layout(tx_shape, rx_shape, ris_shape))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ris_shape, rx_shape", [((4, 4), (1, 1)), ((13, 11), (1, 1)),
                                                 ((12, 16), (2, 3)), ((1, 20), (1, 1)),
                                                 ((20, 1), (2, 3))])
def test_los_entries_match_oracles_on_random_scenes(monkeypatch, seed, ris_shape, rx_shape):
    tx, rx, ris, _ = random_arrays(seed, ris_shape, rx_shape)
    assert_los_entries_match_oracles(monkeypatch, tx, rx, ris)


def test_los_entries_finite_at_the_coordinate_limit():
    # tx and the RIS 0.999 of the largest coordinate build_scene admits from
    # the origin on either side: their elements (spacing 1e140) lie about
    # 7.7e153 m apart, so d^2 and the product of the two projections come
    # within a factor 3 of the largest float; RuntimeWarnings are errors here
    edge = 0.999 * harness._MAX_COORDINATE
    cfg = harness.ExperimentConfig(
        tx=harness.ArraySpec([-edge, 0.0, 0.0], 10, 10, 1e140),
        ris=harness.ArraySpec([edge, 0.0, 0.0], 40, 40, 1e140),
        rx=harness.ArraySpec([edge, 10.0, 0.0]), path_loss_exponent=2.0)
    scene = harness.build_scene(cfg)
    for h in (scene.h_ris_tx, scene.h_rx_ris):
        assert np.all(np.isfinite(h.entries)) and np.any(h.entries != 0.0)
    assert np.all(np.isfinite(scene.coefficients)) and np.any(scene.coefficients != 0.0)


def test_element_behind_the_other_aperture_gives_exactly_zero():
    # b's first element sits at x < 0, behind the aperture of a (at the
    # origin, facing +x); its second faces a from in front. Either way
    # round, the first element's entry is exactly 0 and the second's is not.
    a = PlanarArray([0.0, 0.0, 0.0], 1, 1, 0.5, Y, Z, X)
    diagonal, anti = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
    b = PlanarArray([5.0, -5.0, 0.0], 2, 1, 20.0, diagonal, Z, anti)
    assert element_positions(b)[0, 0] < 0.0 < element_positions(b)[1, 0]
    h_ba = los_channel(a, b, 0.01, PathLossModel(4.0)).entries  # (2, 1)
    h_ab = los_channel(b, a, 0.01, PathLossModel(4.0)).entries  # (1, 2)
    assert h_ba[0, 0] == 0.0 and h_ab[0, 0] == 0.0
    assert h_ba[1, 0] != 0.0 and h_ab[0, 1] != 0.0


def test_blocked_coefficients_reject_overlapping_arrays():
    a = PlanarArray([0.0, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)
    b = PlanarArray([1.0, 0.0, 0.0], 1, 1, 0.5, -X, Y, -Z)
    w = np.ones(1)
    for tx, ris, rx in ((a, a, b), (b, a, a)):
        with pytest.raises(ValueError, match="overlapping"):
            cascaded_los_coefficients(tx, ris, rx, 0.01, PathLossModel(4.0), w, w)
