import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expected_bit_errors, gathered_receive_bits, random_scene
from rislink.channel import ChannelMatrix, wavelength
from rislink import coding
from rislink.coding import SymbolMatrix
from rislink.geometry import facing_array
from rislink.harness import ERROR_FREE_SNR, _Layout
from rislink.link import (
    LinkBudget,
    _chances,
    dbm_to_watts,
    effective_gain,
    end_to_end_channel,
    equalize,
    receive_bits,
    snr,
    snr_linear,
    steering_precoder,
    transmit,
    transmit_with_rng,
)
from rislink.ris import RisConfiguration

LAM = wavelength(28e9)


def scalar_budget(p_tx=1.0, noise=0.0):
    return LinkBudget(p_tx, noise, np.array([1.0 + 0j]), np.array([1.0 + 0j]))


def scalar_channel(value):
    return ChannelMatrix(np.array([[value]], dtype=complex))


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1e-15, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinkBudget(0.1, -1.0, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinkBudget(0.1, 1e-15, np.array([1.0, 1.0]), np.array([1.0]))  # not unit norm


@pytest.mark.parametrize("p_tx, noise", [(math.inf, 1e-15), (math.nan, 1e-15),
                                          (0.1, math.inf), (0.1, math.nan)])
def test_budget_rejects_non_finite_powers(p_tx, noise):
    with pytest.raises(ValueError, match="finite"):
        LinkBudget(p_tx, noise, np.array([1.0]), np.array([1.0]))


def test_noise_power_from_dbm():
    assert dbm_to_watts(-120.0) == pytest.approx(1e-15, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-math.inf) == 0.0  # the noiseless case
    assert dbm_to_watts(-3200.0) > 0.0  # subnormal, not 0
    for dbm in (-3300.0, -1e300):  # finite, but 0 W as a float
        with pytest.raises(ValueError, match="noise_dbm"):
            dbm_to_watts(dbm)


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
    h = ChannelMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
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


def test_snr_db_of_a_gain_whose_square_underflows():
    # |g|^2 is 0 in float64 below about 1e-162, but g is not: the dB value
    # comes from log10|g| and stays finite
    budget = scalar_budget(p_tx=0.1, noise=1e-15)
    for g in (1e-170, np.complex128(3e-200 - 4e-200j), 5e-324):
        linear, db = snr(g, budget)
        assert linear == 0.0 and abs(g) ** 2 == 0.0
        assert db == pytest.approx(20 * math.log10(abs(g)) + 140.0, rel=1e-12)
    # just above the underflow, the linear form gives the same dB
    g = 1e-150
    assert snr(g, budget)[1] == pytest.approx(20 * math.log10(g) + 140.0, rel=1e-12)
    # noiseless, any nonzero gain is an infinite SNR; a zero gain stays -inf
    assert snr(1e-170, scalar_budget(p_tx=0.1, noise=0.0)) == (np.inf, np.inf)
    assert snr(0j, budget) == (0.0, -np.inf)


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


@pytest.mark.parametrize("shape", [(1, 8609), (16, 256), (3, 1)])
@pytest.mark.parametrize("noise", [0.0, 1e-15, 0.04])
def test_transmit_draws_equal_two_call_oracle(shape, noise):
    # the noise's real parts are drawn first and its imaginary parts second,
    # from one generator, as two standard_normal calls draw them
    budget = scalar_budget(p_tx=0.1, noise=noise)
    g = 0.7 - 0.2j
    for seed in (0, 11, 29, 123456789):
        rng = np.random.default_rng(seed + 1)
        s = SymbolMatrix(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        oracle_rng = np.random.default_rng(seed)
        n1 = oracle_rng.standard_normal(shape)
        n2 = oracle_rng.standard_normal(shape)
        expected = g * np.sqrt(0.1) * s.values + np.sqrt(noise / 2.0) * (n1 + 1j * n2)
        assert np.array_equal(transmit(s, g, budget, seed).values, expected)
        got = transmit_with_rng(s, g, budget, np.random.default_rng(seed))
        assert np.array_equal(got.values, expected)


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


def gray_indices(bits, modulation) -> np.ndarray:
    """Each constellation component's Gray bits, read as a binary number."""
    per = coding.AXIS_LEVELS[modulation].size.bit_length() - 1
    return bits.reshape(-1, per) @ (1 << np.arange(per - 1, -1, -1))


def confusion(sent, received, modulation) -> np.ndarray:
    """counts[i, j]: the components sent at Gray index i and decided as j."""
    k = coding.AXIS_LEVELS[modulation].size
    pairs = gray_indices(sent, modulation) * k + gray_indices(received, modulation)
    return np.bincount(pairs, minlength=k * k).reshape(k, k)


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 6.0, 12.0])
def test_receive_bits_decides_as_transmit_equalize_demodulate(modulation, snr_db):
    # the sampled decisions and those of the noisy chain, on 400k bits from
    # other seeds: the share of each (sent, decided) Gray index pair per
    # sent index agrees within 4.5 pooled binomial standard deviations
    modulate, demodulate = coding.MODULATIONS[modulation]
    sent = np.random.default_rng(3).integers(0, 2, 400_000, dtype=np.uint8)
    g = 0.3 * np.exp(0.7j)
    budget = scalar_budget(p_tx=0.5, noise=abs(g) ** 2 * 0.5 / 10 ** (snr_db / 10))
    assert snr(g, budget)[1] == pytest.approx(snr_db)
    symbols = SymbolMatrix(modulate(sent)[0].reshape(1, -1))
    chain = demodulate(equalize(transmit(symbols, g, budget, 8), g, budget.p_tx).values[0])
    sampled = receive_bits(sent, modulation, g, budget, 9)
    assert sampled.dtype == np.uint8 and sampled.shape == sent.shape
    a, b = confusion(sent, sampled, modulation), confusion(sent, chain, modulation)
    n_a, n_b = a.sum(axis=1, keepdims=True), b.sum(axis=1, keepdims=True)
    pooled = (a + b) / (n_a + n_b)
    sd = np.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    assert (np.abs(a / n_a - b / n_b) <= 4.5 * sd).all()
    assert (a != 0).sum() > a.shape[0]  # some component crossed a threshold


def test_receive_bits_qpsk_ber_oracle():
    # acceptance criterion 6's check, on the sampled decisions: at gamma = 10
    # the BER is Q(sqrt(gamma)) within 5 %
    gamma = 10.0
    bits = np.random.default_rng(6).integers(0, 2, 4_000_000, dtype=np.uint8)
    budget = scalar_budget(p_tx=1.0, noise=1.0 / gamma)
    ber = np.mean(receive_bits(bits, "qpsk", 1.0 + 0j, budget, 66) != bits)
    expected = 0.5 * math.erfc(math.sqrt(gamma / 2.0))
    assert abs(ber - expected) <= 0.05 * expected


def odd_layout(modulation) -> _Layout:
    """Three sentences of 1, 7 and 40 random bits, each padded on its own."""
    rng = np.random.default_rng(12)
    return _Layout([rng.integers(0, 2, n, dtype=np.uint8) for n in (1, 7, 40)], modulation)


@pytest.mark.parametrize("gamma", [0.01, 1.0, 10.0, 100.0, 900.0])
def test_qpsk_expected_bit_errors_are_q_of_root_snr(gamma):
    layout = odd_layout("qpsk")
    budget = scalar_budget(p_tx=1.0, noise=1.0 / gamma)
    mean, variance = expected_bit_errors(layout, "qpsk", 1.0 + 0j, budget)
    q = 0.5 * math.erfc(math.sqrt(gamma / 2.0))
    np.testing.assert_allclose(mean / layout.sizes, q, rtol=1e-12, atol=0.0)
    # one bit per component: each is a Bernoulli draw
    np.testing.assert_allclose(variance, layout.sizes * q * (1 - q), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_error_free_rows_expect_no_bit_errors(modulation):
    # a noiseless row, and one at ERROR_FREE_SNR, which _send_rows does not
    # draw, expect exactly 0 errors; just below it some error is expected
    layout = odd_layout(modulation)
    g = 0.3 * np.exp(0.7j)
    at_floor = scalar_budget(p_tx=0.5, noise=abs(g) ** 2 * 0.5 / ERROR_FREE_SNR)
    assert snr_linear(g, at_floor) >= ERROR_FREE_SNR
    for budget in (scalar_budget(p_tx=0.5, noise=0.0), at_floor):
        mean, variance = expected_bit_errors(layout, modulation, g, budget)
        assert not mean.any() and not variance.any()
    mean, _ = expected_bit_errors(layout, modulation, g,
                                  scalar_budget(p_tx=0.5, noise=at_floor.noise_power * 1e3))
    assert mean.sum() > 0.0


class ConstantDraws:
    """Stands in for np.random.default_rng(seed): every uniform it draws is u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def draw_constant(monkeypatch, u):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ConstantDraws(u))


def region_bits(modulation, index, n) -> np.ndarray:
    """n components' bits, each decided at the level of Gray index `index`."""
    per = coding.AXIS_LEVELS[modulation].size.bit_length() - 1
    return np.tile([index >> (per - 1 - k) & 1 for k in range(per)], n).astype(np.uint8)


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_receive_bits_crosses_no_region_at_the_error_free_snr(monkeypatch, modulation):
    # the chance Phi((t - a)/sigma) that a component falls below a threshold
    # t is exactly 0.0 for every threshold below its level a and 1.0 for
    # every one above at gamma = ERROR_FREE_SNR: even the extreme uniforms 0
    # and 1 - 2^-53 decide every component as sent, and either would flip
    # one if a chance were any other double. At 30 dB u = 0 does flip some.
    g = 0.3 * np.exp(0.7j)
    sent = np.random.default_rng(4).integers(0, 2, 10_000, dtype=np.uint8)
    for gamma, flips in ((ERROR_FREE_SNR, False), (1e3, True)):
        budget = scalar_budget(p_tx=0.5, noise=abs(g) ** 2 * 0.5 / gamma)
        assert snr_linear(g, budget) == pytest.approx(gamma, rel=1e-15)
        for u in (0.0, 1.0 - 2.0**-53):
            draw_constant(monkeypatch, u)
            received = receive_bits(sent, modulation, g, budget, 5)
            assert (received != sent).any() == (flips and u == 0.0)


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("noise", [1e-3, 0.0])
def test_receive_bits_zero_gain_is_a_link_outage(modulation, noise):
    with pytest.raises(ValueError, match="^link outage: zero end-to-end gain$"):
        receive_bits(np.zeros(8, dtype=np.uint8), modulation, 0j, scalar_budget(noise=noise), 0)


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_receive_bits_at_extreme_gains_warns_of_nothing(monkeypatch, modulation):
    # RuntimeWarnings are errors under pytest. A gain near 3e-179 against
    # unit noise (sigma ~ 7e178, as on the scene whose |g|^2 underflows)
    # decides every component by a fair coin: every chance is exactly 0.5, so
    # u = 0.5 decides the top level and the double below it the bottom one.
    # A noiseless link (sigma 0, even at the smallest gain) and a gain of
    # 1e300 decide every component as sent.
    sent = np.random.default_rng(2).integers(0, 2, 40_000, dtype=np.uint8)
    far = scalar_budget(p_tx=0.1, noise=1.0)
    coin = receive_bits(sent, modulation, 3e-179j, far, 1)
    assert abs(np.mean(coin != sent) - 0.5) < 0.01
    for g, noise in ((0.7 - 0.2j, 0.0), (1e300, 1.0), (5e-324, 0.0)):
        assert np.array_equal(receive_bits(sent, modulation, g, scalar_budget(noise=noise), 1),
                              sent)
    levels = coding.AXIS_LEVELS[modulation]
    n = sent.size // (levels.size.bit_length() - 1)
    for u, index in ((0.5, np.argmax(levels)), (np.nextafter(0.5, 0.0), np.argmin(levels))):
        draw_constant(monkeypatch, u)
        assert np.array_equal(receive_bits(sent, modulation, 3e-179, far, 1),
                              region_bits(modulation, int(index), n))


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_receive_bits_deterministic_per_seed(modulation):
    sent = np.random.default_rng(1).integers(0, 2, 4_000, dtype=np.uint8)
    budget = scalar_budget(p_tx=0.5, noise=0.2)
    first = receive_bits(sent, modulation, 0.7 - 0.2j, budget, 123)
    assert np.array_equal(first, receive_bits(sent, modulation, 0.7 - 0.2j, budget, 123))
    assert not np.array_equal(first, receive_bits(sent, modulation, 0.7 - 0.2j, budget, 124))
    assert (first != sent).any()


# (g, noise) on a unit-power link: noiseless (chances 0 and 1 from a scale
# of +-inf), 60, 10, 0 and -20 dB, and a gain so far below the noise that
# every chance is exactly 0.5
DECISION_LINKS = [(0.7 - 0.2j, 0.0), (1.0, 1e-6), (1.0, 0.1), (1.0, 1.0), (1.0, 100.0),
                  (3e-179, 1.0)]
# and the extremes of the scale: the smallest gain, noiseless, and an
# overflowing one
EXTREME_LINKS = [(5e-324, 0.0), (1e300, 1e-300), (5e-324, 1.0)]


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("g, noise", DECISION_LINKS + EXTREME_LINKS)
def test_chances_rise_with_the_threshold(modulation, g, noise):
    # receive_bits reads a region's Gray bits off its crossed thresholds,
    # which is right only if a component that crosses t_j crosses every
    # lower one: each level's chance must not fall as j grows
    below = _chances(modulation, g, scalar_budget(noise=noise))
    levels = coding.AXIS_LEVELS[modulation]
    assert len(below) == levels.size - 1 and {len(row) for row in below} == {levels.size}
    assert all(0.0 <= b <= 1.0 for row in below for b in row)
    for low, high in zip(below, below[1:]):
        assert all(a <= b for a, b in zip(low, high))
    if noise == 0.0:
        assert {b for row in below for b in row} == {0.0, 1.0}
    if g == 3e-179:
        assert {b for row in below for b in row} == {0.5}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), modulation=st.sampled_from(["qpsk", "16qam"]),
       link=st.sampled_from(DECISION_LINKS + EXTREME_LINKS),
       seed=st.integers(0, 2**32 - 1))
def test_receive_bits_matches_the_gathered_decisions(data, modulation, link, seed):
    per = coding.AXIS_LEVELS[modulation].size.bit_length() - 1
    components = data.draw(st.lists(st.integers(0, (1 << per) - 1), min_size=1, max_size=300))
    # each component's Gray bits, most significant first
    sent = ((np.array(components)[:, None] >> np.arange(per - 1, -1, -1)) & 1).astype(np.uint8)
    sent = sent.ravel()
    g, noise = link
    budget = scalar_budget(noise=noise)
    received = receive_bits(sent, modulation, g, budget, seed)
    assert received.dtype == np.uint8 and received.shape == sent.shape
    assert np.array_equal(received, gathered_receive_bits(sent, modulation, g, budget, seed))
