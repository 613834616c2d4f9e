import numpy as np
import pytest

from rislink.channel import PathLossModel, los_channel, wavelength
from rislink.geometry import PlanarArray, element_positions, facing_array, unit

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_single_element_array_sits_at_center():
    a = PlanarArray([10.0, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)
    np.testing.assert_array_equal(element_positions(a), [[10.0, 0.0, 0.0]])


def test_two_element_array_symmetric_about_center():
    s = 0.7
    a = PlanarArray([0.0, 0.0, 0.0], 2, 1, s, X, Y, Z)
    np.testing.assert_allclose(
        element_positions(a), [[-s / 2, 0, 0], [s / 2, 0, 0]], atol=1e-15
    )


def test_aperture_side_of_40x40_at_28ghz():
    lam = wavelength(28e9)
    a = PlanarArray([0.0, 0.0, 0.0], 40, 40, lam / 2, X, Y, Z)
    pos = element_positions(a)
    side = np.linalg.norm(pos[39] - pos[0])  # first row end-to-end
    assert side == pytest.approx(39 * lam / 2, rel=1e-12)
    assert side == pytest.approx(0.2088, abs=5e-4)


def test_row_major_indexing():
    a = PlanarArray([0.0, 0.0, 0.0], 2, 3, 1.0, X, Y, Z)
    pos = element_positions(a)
    # element k = r*cols + c
    np.testing.assert_allclose(pos[0], [-0.5, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pos[5], [0.5, 1.0, 0.0], atol=1e-12)


def test_positions_mean_equals_center():
    a = facing_array([3.0, -2.0, 5.0], 7, 4, 0.3, [10.0, 10.0, 0.0])
    mean = element_positions(a).mean(axis=0)
    np.testing.assert_allclose(mean, a.center, rtol=1e-12, atol=1e-12)


def distance(a, b):
    return np.linalg.norm(element_positions(b)[0] - element_positions(a)[0])


def test_paper_scene_center_distances():
    tx = PlanarArray([0.0, 10.0, 0.0], 1, 1, 0.5, X, Y, Z)
    ris = PlanarArray([10.0, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)
    rx = PlanarArray([10.0, 15.0, 0.0], 1, 1, 0.5, X, Y, Z)
    assert distance(tx, ris) == pytest.approx(np.sqrt(200), rel=1e-12)
    assert distance(ris, rx) == pytest.approx(15.0, rel=1e-12)


# Aperture cosines enter the model only through the LoS channel amplitude
# sqrt(pi^2 * cos_a * cos_b / beta); the tests below read them back from it.

PL = PathLossModel(4.0)


def cosine_products(a, b):
    """cos at a times cos at b for every element pair, from los_channel."""
    h = los_channel(a, b, 0.01, PL)
    return np.abs(h.entries) ** 2 * PL.beta(np.linalg.norm(b.center - a.center)) / np.pi**2


def test_coincident_elements_raise():
    a = PlanarArray([0.0, 0.0, 0.0], 2, 1, 1.0, X, Y, Z)  # elements at x = -0.5, 0.5
    b = PlanarArray([0.5, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)
    with pytest.raises(ValueError):
        los_channel(a, b, 0.01, PL)


def test_aperture_cosine_broadside_and_endfire():
    a = PlanarArray([0.0, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)  # normal = Z
    broadside = facing_array([0.0, 0.0, 7.0], 1, 1, 0.5, a.center)
    endfire = facing_array([3.0, 0.0, 0.0], 1, 1, 0.5, a.center)
    assert cosine_products(a, broadside)[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert cosine_products(a, endfire)[0, 0] == 0.0


def test_aperture_cosine_45_degrees():
    a = PlanarArray([0.0, 0.0, 0.0], 1, 1, 0.5, Y, Z, X)  # normal = X
    b = facing_array([1.0, 1.0, 0.0], 1, 1, 0.5, a.center)
    assert cosine_products(a, b)[0, 0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)


def test_back_halfspace_clamps_to_zero():
    a = PlanarArray([0.0, 0.0, 0.0], 1, 1, 0.5, X, Y, Z)
    behind = facing_array([0.0, 0.0, -4.0], 1, 1, 0.5, a.center)
    assert cosine_products(a, behind)[0, 0] == 0.0


def test_cosines_within_bounds_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = facing_array(rng.normal(size=3), 2, 2, 0.3, rng.normal(size=3) + 10)
        b = facing_array(rng.normal(size=3) + 5, 3, 1, 0.3, rng.normal(size=3))
        products = cosine_products(a, b)
        assert np.all((products >= 0.0) & (products <= 1.0 + 1e-12))


def test_rigid_translation_invariance():
    shift = np.array([12.0, -7.0, 3.0])
    a1 = facing_array([0.0, 1.0, 0.0], 2, 3, 0.4, [4.0, 4.0, 0.0])
    b1 = facing_array([4.0, 4.0, 0.0], 2, 2, 0.4, [0.0, 1.0, 0.0])
    a2 = PlanarArray(a1.center + shift, 2, 3, 0.4, a1.axis_row, a1.axis_col, a1.normal)
    b2 = PlanarArray(b1.center + shift, 2, 2, 0.4, b1.axis_row, b1.axis_col, b1.normal)
    np.testing.assert_allclose(
        los_channel(a1, b1, 0.01, PL).entries, los_channel(a2, b2, 0.01, PL).entries,
        rtol=1e-9,
    )


def test_invalid_arrays_rejected():
    with pytest.raises(ValueError):
        PlanarArray([0, 0, 0], 0, 1, 0.5, X, Y, Z)
    with pytest.raises(ValueError):
        PlanarArray([0, 0, 0], 1, 1, 0.0, X, Y, Z)
    with pytest.raises(ValueError):
        PlanarArray([0, 0, 0], 1, 1, 0.5, X, X, Z)  # not orthogonal
    with pytest.raises(ValueError):
        PlanarArray([0, 0, 0], 1, 1, 0.5, 2 * X, Y, Z)  # not unit norm
    with pytest.raises(ValueError):
        unit([0.0, 0.0, 0.0])


@pytest.mark.parametrize("v", [[1e308, 1e308, 0.0], [0.0, -1e200, 1e200], [1e-320, 0.0, 0.0]])
def test_unit_rejects_a_norm_that_overflows_or_underflows(v):
    # np.linalg.norm gives inf (with a RuntimeWarning) or 0 for these, and
    # unit returned the zero vector for an infinite norm
    with pytest.raises(ValueError, match="cannot normalize a vector of norm "):
        unit(v)


def test_facing_array_normal_points_at_target():
    a = facing_array([0.0, 10.0, 0.0], 10, 10, 0.005, [10.0, 0.0, 0.0])
    expected = unit(np.array([10.0, -10.0, 0.0]))
    np.testing.assert_allclose(a.normal, expected, atol=1e-12)
