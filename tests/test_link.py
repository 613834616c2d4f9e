import numpy as np
import pytest

from conftest import random_scene
from rislink.channel import ChannelMatrix, wavelength
from rislink.coding import SymbolMatrix
from rislink.geometry import facing_array
from rislink.link import (
    LinkBudget,
    dbm_to_watts,
    effective_gain,
    end_to_end_channel,
    equalize,
    snr,
    steering_precoder,
    transmit,
)
from rislink.ris import RisConfiguration

LAM = wavelength(28e9)


def scalar_budget(p_tx=1.0, noise=0.0):
    return LinkBudget(p_tx, noise, np.array([1.0 + 0j]), np.array([1.0 + 0j]))


def scalar_channel(value, lam=LAM):
    return ChannelMatrix(np.array([[value]], dtype=complex), lam)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1e-15, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinkBudget(0.1, -1.0, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinkBudget(0.1, 1e-15, np.array([1.0, 1.0]), np.array([1.0]))  # not unit norm


def test_noise_power_from_dbm():
    assert dbm_to_watts(-120.0) == pytest.approx(1e-15, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


def test_steering_precoder_trivial_cases():
    one = facing_array([0.0, 0.0, 0.0], 1, 1, LAM / 2, [0.0, 5.0, 0.0])
    w = steering_precoder(one, [0.0, 5.0, 0.0], LAM)
    assert w[0] == pytest.approx(1.0)

    two = facing_array([0.0, 0.0, 0.0], 2, 1, LAM / 2, [0.0, 5.0, 0.0])
    w = steering_precoder(two, [0.0, 5.0, 0.0], LAM)  # broadside: equidistant
    np.testing.assert_allclose(np.abs(w), 1 / np.sqrt(2), rtol=1e-12)
    assert w[0] == pytest.approx(w[1], rel=1e-12)


def test_steering_precoder_coherent_sum():
    tx = facing_array([0.0, 0.0, 0.0], 10, 10, LAM / 2, [3.0, 9.0, 1.0])
    target = np.array([3.0, 9.0, 1.0])
    w = steering_precoder(tx, target, LAM)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    from rislink.geometry import element_positions

    d = np.linalg.norm(element_positions(tx) - target, axis=1)
    kappa = 2 * np.pi / LAM
    coherent = np.abs(np.sum(w * np.exp(-1j * kappa * d)))
    assert coherent == pytest.approx(10.0, rel=1e-12)


def test_end_to_end_all_inactive_is_zero():
    h_ris_tx, h_rx_ris, _, _, _ = random_scene(0)
    cfg = RisConfiguration(np.zeros(16), np.zeros(16, dtype=bool))
    h = end_to_end_channel(h_ris_tx, cfg, h_rx_ris)
    np.testing.assert_array_equal(h.entries, 0.0)


def test_end_to_end_scalar_phase_cancellation():
    a, phi1 = 0.4, 1.1
    b, phi2 = 0.25, 2.3
    h1 = scalar_channel(a * np.exp(1j * phi1))
    h2 = scalar_channel(b * np.exp(1j * phi2))
    cfg = RisConfiguration(np.array([-(phi1 + phi2)]), np.array([True]))
    h = end_to_end_channel(h1, cfg, h2)
    assert h.entries[0, 0] == pytest.approx(a * b, rel=1e-12)
    assert abs(h.entries[0, 0].imag) < 1e-15


def test_end_to_end_zero_phases_is_plain_product():
    h_ris_tx, h_rx_ris, _, _, _ = random_scene(1)
    cfg = RisConfiguration(np.zeros(16), np.ones(16, dtype=bool))
    h = end_to_end_channel(h_ris_tx, cfg, h_rx_ris)
    np.testing.assert_allclose(h.entries, h_rx_ris.entries @ h_ris_tx.entries, rtol=1e-12)


def test_end_to_end_dimension_mismatch():
    h_ris_tx, h_rx_ris, _, _, _ = random_scene(2)
    cfg = RisConfiguration(np.zeros(5), np.ones(5, dtype=bool))
    with pytest.raises(ValueError):
        end_to_end_channel(h_ris_tx, cfg, h_rx_ris)


def test_effective_gain_matches_dense_triple_product():
    rng = np.random.default_rng(8)
    h = ChannelMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), LAM)
    w_tx = rng.normal(size=2) + 1j * rng.normal(size=2)
    w_tx /= np.linalg.norm(w_tx)
    w_rx = rng.normal(size=2) + 1j * rng.normal(size=2)
    w_rx /= np.linalg.norm(w_rx)
    budget = LinkBudget(0.1, 1e-15, w_tx, w_rx)
    g = effective_gain(h, budget)
    expected = sum(
        np.conj(w_rx[m]) * h.entries[m, n] * w_tx[n] for m in range(2) for n in range(2)
    )
    assert g == pytest.approx(expected, rel=1e-12)


def test_snr_values():
    budget = scalar_budget(p_tx=0.1, noise=1e-15)
    g = np.sqrt(1e-13)
    linear, db = snr(g, budget)
    assert linear == pytest.approx(10.0, rel=1e-12)
    assert db == pytest.approx(10.0, abs=1e-9)

    linear, db = snr(0.0, budget)
    assert linear == 0.0
    assert db == -np.inf

    lin1, db1 = snr(g, budget)
    lin2, db2 = snr(2 * g, budget)
    assert lin2 == pytest.approx(4 * lin1, rel=1e-12)
    assert db2 - db1 == pytest.approx(6.0206, abs=1e-3)


def test_snr_noiseless_link():
    # noise_power = 0: inf for any non-zero gain, 0 for a zero gain, and no
    # division warning (the suite turns RuntimeWarnings into errors)
    budget = scalar_budget(p_tx=0.1, noise=0.0)
    assert snr(np.complex128(1e-9j), budget) == (np.inf, np.inf)
    assert snr(np.complex128(0.0), budget) == (0.0, -np.inf)


def test_snr_invariant_under_global_weight_phase():
    h_ris_tx, h_rx_ris, budget, mask, _ = random_scene(3)
    from rislink.ris import conjugate_phases

    cfg = conjugate_phases(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx, mask)
    h = end_to_end_channel(h_ris_tx, cfg, h_rx_ris)
    base, _ = snr(effective_gain(h, budget), budget)
    rotated = LinkBudget(
        budget.p_tx, budget.noise_power,
        budget.w_tx * np.exp(1j * 0.8), budget.w_rx * np.exp(-1j * 1.7),
    )
    value, _ = snr(effective_gain(h, rotated), rotated)
    assert value == pytest.approx(base, rel=1e-12)


def test_transmit_noiseless_identity():
    s = SymbolMatrix(np.array([[1 + 1j, -1 + 0.5j, 0.2 - 0.3j]]) / np.sqrt(0.99))
    budget = scalar_budget(p_tx=1.0, noise=0.0)
    received = transmit(s, 1.0 + 0j, budget, seed=0)
    np.testing.assert_array_equal(received.values, s.values)


def test_transmit_deterministic_per_seed():
    s = SymbolMatrix(np.ones((4, 3), dtype=complex))
    budget = scalar_budget(p_tx=0.5, noise=2e-3)
    r1 = transmit(s, 0.7 - 0.2j, budget, seed=123)
    r2 = transmit(s, 0.7 - 0.2j, budget, seed=123)
    r3 = transmit(s, 0.7 - 0.2j, budget, seed=124)
    np.testing.assert_array_equal(r1.values, r2.values)
    assert not np.array_equal(r1.values, r3.values)


def test_transmit_noise_moments():
    n = 1_000_000
    sigma2 = 0.04
    s = SymbolMatrix(np.zeros((1, n), dtype=complex))
    budget = scalar_budget(p_tx=1.0, noise=sigma2)
    received = transmit(s, 0.0j, budget, seed=7)
    empirical = np.mean(np.abs(received.values) ** 2)
    assert empirical == pytest.approx(sigma2, rel=0.01)
    # circular symmetry: real and imaginary parts carry half the power each
    assert np.mean(received.values.real**2) == pytest.approx(sigma2 / 2, rel=0.02)


def test_equalize_round_trip_and_noise_scaling():
    rng = np.random.default_rng(5)
    s = SymbolMatrix(np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 50))))
    g = 0.3 * np.exp(1j * 0.9)
    noiseless = scalar_budget(p_tx=0.25, noise=0.0)
    received = transmit(s, g, noiseless, seed=1)
    back = equalize(received, g, noiseless.p_tx)
    np.testing.assert_allclose(back.values, s.values, atol=1e-12)

    sigma2 = 1e-3
    noisy = scalar_budget(p_tx=0.25, noise=sigma2)
    big = SymbolMatrix(np.zeros((1, 500_000), dtype=complex))
    out = equalize(transmit(big, g, noisy, seed=2), g, noisy.p_tx)
    expected_var = sigma2 / (abs(g) ** 2 * noisy.p_tx)
    assert np.mean(np.abs(out.values) ** 2) == pytest.approx(expected_var, rel=0.01)


def test_equalize_outage():
    s = SymbolMatrix(np.ones((1, 2), dtype=complex))
    with pytest.raises(ValueError):
        equalize(s, 0.0, 0.1)
