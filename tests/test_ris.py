import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scene
from rislink.channel import ChannelMatrix, wavelength
from rislink.geometry import PlanarArray, element_positions, facing_array, unit
from rislink.link import snr_linear
from rislink.ris import (
    MAX_BITS,
    Codebook,
    RisConfiguration,
    active_mask,
    build_codebook,
    cascaded_coefficients,
    conjugate_phases,
    quantize_phases,
    select_codeword,
)
from rislink.ris import _configuration, _filter_amplitudes, _quantize, _select_rows

LAM = wavelength(28e9)


def make_ris(rows=4, cols=4):
    return facing_array([0.0, 0.0, 0.0], rows, cols, LAM / 2, [0.0, 10.0, 0.0])


def config(phases, mask=None):
    phases = np.asarray(phases, dtype=float)
    if mask is None:
        mask = np.ones(phases.size, dtype=bool)
    return RisConfiguration(phases, mask)


# --- quantization ---------------------------------------------------------


@pytest.mark.parametrize(
    "theta,bits,expected",
    [
        (0.3, 1, 0.0),
        (3.0, 1, np.pi),
        (5.9, 2, 0.0),
        (np.pi / 2, 2, np.pi / 2),
        (np.pi / 2, 1, 0.0),  # tie between 0 and pi breaks toward lower level
    ],
)
def test_quantize_values(theta, bits, expected):
    q = quantize_phases(config([theta]), bits)
    assert q.phases[0] == pytest.approx(expected, abs=1e-12)
    assert q.quantization_bits == bits


@pytest.mark.parametrize("bits", [True, False, 2.5, 2.0, "2", 0, -1, MAX_BITS + 1, 64])
def test_bit_counts_must_be_integers(bits):
    # a bool would be stored as the bit count and 2.5 would fail in `1 << bits`;
    # quantize-before-select builds a table of 2^bits level phasors, so 40
    # bits asked numpy for 8 TiB and 64 ended in a numpy message naming no field
    with pytest.raises(ValueError, match="integer from 1 to 16"):
        RisConfiguration(np.zeros(2), np.ones(2, bool), bits)
    with pytest.raises(ValueError, match="integer from 1 to 16"):
        quantize_phases(config([0.3, 1.0]), bits)
    h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(2)
    with pytest.raises(ValueError, match="integer from 1 to 16"):
        select_codeword(cb, h_ris_tx, h_rx_ris, budget, mask, bits)


def test_numpy_integer_bit_counts_accepted():
    q = quantize_phases(config([0.3, 3.0]), np.int64(1))
    assert q.quantization_bits == 1
    assert q.phases.tolist() == [0.0, np.pi]
    assert RisConfiguration(np.zeros(1), np.ones(1, bool), np.uint8(2)).quantization_bits == 2


def test_quantize_leaves_inactive_untouched():
    cfg = config([1.0, 2.5], mask=[True, False])
    q = quantize_phases(cfg, 1)
    assert q.phases[0] == 0.0  # nearest level of 1.0 is 0
    assert q.phases[1] == 2.5


@settings(max_examples=100)
@given(
    st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=1, max_size=16),
    st.integers(1, 4),
)
def test_quantize_idempotent_and_on_levels(phases, bits):
    q1 = quantize_phases(config(phases), bits)
    q2 = quantize_phases(q1, bits)
    np.testing.assert_array_equal(q1.phases, q2.phases)
    step = 2 * np.pi / (1 << bits)
    ks = q1.phases / step
    np.testing.assert_allclose(ks, np.round(ks), atol=1e-9)


@settings(max_examples=100)
@given(
    st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=1, max_size=16),
    st.integers(1, 3),
)
def test_quantize_refinement(phases, bits):
    # a B-bit-representable configuration is unchanged by (B+1)-bit quantization
    coarse = quantize_phases(config(phases), bits)
    finer = quantize_phases(coarse, bits + 1)
    np.testing.assert_allclose(finer.phases, coarse.phases, atol=1e-12)


def test_quantization_power_loss_constants():
    # E[cos(delta)]^2 over uniform phases approaches sinc^2(2^-B)
    rng = np.random.default_rng(42)
    phases = rng.uniform(0.0, 2 * np.pi, size=200_000)
    cfg = config(phases)
    for bits, expected in [(1, (2 / np.pi) ** 2), (2, 0.81056947)]:
        delta = quantize_phases(cfg, bits).phases - phases
        retention = np.mean(np.cos(delta)) ** 2
        assert retention == pytest.approx(expected, abs=0.01)


# --- masks ----------------------------------------------------------------


def test_active_mask_full_surface():
    mask = active_mask(make_ris(40, 40), 1.0)
    assert mask.sum() == 1600


@pytest.mark.parametrize("ratio,expected", [(0.25, 400), (0.55, 900), (0.0625, 100)])
def test_active_mask_centered_square(ratio, expected):
    ris = make_ris(40, 40)
    mask = active_mask(ris, ratio).reshape(40, 40)
    assert mask.sum() == expected
    side = int(np.sqrt(expected))
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    assert len(rows) == len(cols) == side
    # centered block
    assert rows[0] == (40 - side) // 2 and cols[0] == (40 - side) // 2


def test_active_mask_odd_side_sits_toward_index_0():
    # side 9 (ratio 0.05) cannot be centered on 40 elements: the block starts
    # at (40 - 9) // 2 = 15, half an element toward index 0
    mask = active_mask(make_ris(40, 40), 0.05).reshape(40, 40)
    expected = np.zeros((40, 40), dtype=bool)
    expected[15:24, 15:24] = True
    assert np.array_equal(mask, expected)


def test_active_mask_bad_ratio():
    with pytest.raises(ValueError):
        active_mask(make_ris(), 0.0)
    with pytest.raises(ValueError):
        active_mask(make_ris(), 1.2)
    with pytest.raises(ValueError):
        active_mask(make_ris(40, 40), 1e-4)  # rounds to a zero-side block


# --- codebook -------------------------------------------------------------


def test_codebook_cardinality():
    cb = build_codebook(make_ris(), [0.0, 1.0, 0.0], (72, 18), LAM)
    assert len(cb) == 72 * 18


def test_one_element_ris_codewords_all_zero():
    ris = facing_array([0.0, 0.0, 0.0], 1, 1, LAM / 2, [0.0, 10.0, 0.0])
    cb = build_codebook(ris, [0.0, 1.0, 0.0], (4, 2), LAM)
    for k in range(len(cb)):
        assert cb.phases(k)[0] == 0.0


def test_specular_direction_gives_flat_profile():
    ris = make_ris()
    u_inc = unit([0.3, 1.0, 0.1])
    cb = build_codebook(ris, u_inc, (8, 4), LAM)
    # outgoing direction with u_inc + u along the normal: u = 2(u_inc.n)n - u_inc
    n = ris.normal
    u_out = 2 * np.dot(u_inc, n) * n - u_inc
    rel = cb.directions
    # evaluate the phase rule directly at the exact mirror direction
    p = element_positions(ris) - ris.center
    phases = np.mod(-2 * np.pi / LAM * (p @ (u_inc + u_out)), 2 * np.pi)
    np.testing.assert_allclose(np.minimum(phases, 2 * np.pi - phases), 0.0, atol=1e-9)
    assert rel.shape == (32, 3)


def codebook_directions_by_loop(ris, n_az, n_el):
    """One direction at a time, elevation-major, as build_codebook documents."""
    directions = []
    for k in range(n_el):
        el = (k + 0.5) * (np.pi / 2.0) / n_el
        for j in range(n_az):
            az = 2 * np.pi * j / n_az
            directions.append(
                np.sin(el) * (np.cos(az) * ris.axis_row + np.sin(az) * ris.axis_col)
                + np.cos(el) * ris.normal
            )
    return np.array(directions)


@pytest.mark.parametrize("grid", [(1, 1), (5, 3), (8, 4), (24, 12), (72, 18), (360, 90)])
def test_codebook_directions_match_loop(grid):
    ris = facing_array([0.0, 0.0, 0.0], 4, 4, LAM / 2, [3.0, 7.0, 2.0])
    cb = build_codebook(ris, ris.normal, grid, LAM)
    assert np.array_equal(cb.directions, codebook_directions_by_loop(ris, *grid))


def test_codebook_rejects_bad_input():
    ris = make_ris()
    with pytest.raises(ValueError):
        build_codebook(ris, [0.0, 1.0, 0.0], (0, 4), LAM)
    with pytest.raises(ValueError):
        build_codebook(ris, [0.0, -1.0, 0.0], (4, 4), LAM)  # behind the surface


def test_phases_follow_the_steering_rule():
    ris = make_ris(3, 5)
    u_inc = unit([0.3, 1.0, 0.1])
    cb = build_codebook(ris, u_inc, (6, 3), LAM)
    p = element_positions(ris) - ris.center
    for k in range(len(cb)):
        expected = np.mod(-2 * np.pi / LAM * (p @ (u_inc + cb.directions[k])), 2 * np.pi)
        np.testing.assert_allclose(cb.phases(k), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (1, 9), (4, 1)])
def test_slopes_separate_the_phases(shape):
    # theta_k(r, c) = row[k] * r' + col[k] * c' modulo 2*pi, up to rounding
    ris = make_ris(*shape)
    cb = build_codebook(ris, unit([0.3, 1.0, 0.1]), (6, 3), LAM)
    row, col = cb.slopes
    r = np.arange(shape[0]) - (shape[0] - 1) / 2
    c = np.arange(shape[1]) - (shape[1] - 1) / 2
    for k in range(len(cb)):
        separable = (row[k] * r[:, None] + col[k] * c[None, :]).ravel()
        np.testing.assert_allclose(np.exp(1j * separable), np.exp(1j * cb.phases(k)),
                                   rtol=0, atol=1e-12)


# --- conjugate phases and selection ---------------------------------------


def test_conjugate_phases_aligned_input():
    h_ris_tx, h_rx_ris, budget, mask, _ = random_scene(0)
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    cfg = conjugate_phases(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx, mask)
    aligned = cfg.reflection_coefficients() * c
    # every active contribution is rotated onto the positive real axis
    active = aligned[mask]
    np.testing.assert_allclose(active.imag, 0.0, atol=1e-12 * np.abs(active).max())
    assert np.all(active.real >= 0)


def test_conjugate_single_element():
    h_ris_tx, h_rx_ris, budget, _, _ = random_scene(1)
    mask = np.zeros(16, dtype=bool)
    mask[5] = True
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    cfg = conjugate_phases(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx, mask)
    assert cfg.phases[5] == pytest.approx(np.mod(-np.angle(c[5]), 2 * np.pi))


def test_conjugate_gain_matches_exhaustive_grid_search():
    # 8 elements: the problem is separable, so the exhaustive optimum over a
    # 64-level phase grid is the per-element max of Re(e^{j theta} c_i); the
    # continuous conjugate gain sum|c_i| must dominate and nearly match it
    rng = np.random.default_rng(11)
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    levels = np.exp(1j * 2 * np.pi * np.arange(64) / 64)
    grid_gain = sum((levels * ci).real.max() for ci in c)
    conj_gain = np.abs(c).sum()
    assert grid_gain <= conj_gain
    assert grid_gain == pytest.approx(conj_gain, rel=1e-2)


def block_scan_select(cb, h_ris_tx, h_rx_ris, budget, mask, bits=None):
    """Reference selector: exponentiates every codeword's (quantized) phases
    element by element and scores them in blocks of 8 rows, as select_codeword
    did before its separable filter."""
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    return block_scan_select_by_coefficients(cb, c, budget, mask, bits)


def block_scan_select_by_coefficients(cb, c, budget, mask, bits=None):
    """block_scan_select on the cascaded coefficients c."""
    mask = np.asarray(mask, dtype=bool)
    active = np.flatnonzero(mask)
    power = np.empty(len(cb))
    for k0 in range(0, len(cb), 8):
        block = np.array([cb.phases(k)[active] for k in range(k0, min(k0 + 8, len(cb)))])
        if bits is not None:
            step = 2 * np.pi / (1 << bits)
            block = np.mod(np.ceil(block / step - 0.5), 1 << bits) * step
        power[k0 : k0 + len(block)] = np.abs(np.exp(1j * block) @ c[active]) ** 2
    best = int(np.argmax(power))
    cfg = RisConfiguration(cb.phases(best), mask)
    if bits is not None:
        cfg = quantize_phases(cfg, bits)
    return best, cfg, snr_linear(cfg.gain(c), budget)


def test_select_codeword_matches_exhaustive():
    h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(2)
    for bits in (None, 1, 2, MAX_BITS):
        idx, cfg, value = select_codeword(cb, h_ris_tx, h_rx_ris, budget, mask, bits)
        c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
        values = []
        for k in range(len(cb)):
            candidate = RisConfiguration(cb.phases(k), mask)
            if bits is not None:
                candidate = quantize_phases(candidate, bits)
            gain = np.sum(candidate.reflection_coefficients() * c)
            values.append(snr_linear(gain, budget))
        assert value == max(values)
        assert idx == int(np.argmax(values))


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (5, 5), (1, 9), (4, 1)])
def test_select_codeword_equals_block_scan(shape):
    # same index, applied phases and SNR (==) as the reference selector, on
    # centered, random, full and empty masks; the 1xN and Nx1 arrays and the
    # coarse depths give many equal and near-equal powers, which must break
    # as the scan breaks them (equal ones toward the lowest index)
    for seed in range(6):
        h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(seed, shape, (12, 6))
        rng = np.random.default_rng(100 + seed)
        masks = (mask, rng.random(mask.size) < 0.5, np.ones(mask.size, dtype=bool),
                 np.zeros(mask.size, dtype=bool))
        for m in masks:
            for bits in (None, 1, 2, 3):
                idx, cfg, value = select_codeword(cb, h_ris_tx, h_rx_ris, budget, m, bits)
                ref_idx, ref_cfg, ref_value = block_scan_select(
                    cb, h_ris_tx, h_rx_ris, budget, m, bits)
                assert idx == ref_idx
                np.testing.assert_array_equal(cfg.phases, ref_cfg.phases)
                assert cfg.quantization_bits == ref_cfg.quantization_bits
                assert value == ref_value


@pytest.mark.parametrize("shape", [(5, 5), (3, 7), (1, 9)])
def test_selection_under_a_mask_stack_equals_one_mask_selections(shape):
    # one filter pass over a stack of nested centered, random, full and empty
    # masks picks, for every mask, what a one-mask selection and the
    # reference scan pick (==), also on coefficients scaled far out of the
    # single-precision range (a steep or shallow path loss), and so far down
    # that the exact powers are subnormal (2^-520) or 0 (2^-600)
    scales = (1.0, 2.0**-140, 2.0**140, 2.0**-520, 2.0**-600)
    for seed, scale in itertools.product(range(6), scales):
        h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(seed, shape, (12, 6))
        c = scale * cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
        rng = np.random.default_rng(200 + seed)
        masks = np.array([active_mask(cb.ris, r) for r in (0.2, 0.5, 0.8)]
                         + [mask, rng.random(mask.size) < 0.5, np.ones(mask.size, dtype=bool),
                            np.zeros(mask.size, dtype=bool)])
        for bits in (None, 1, 2, 3):
            rows = _select_rows(cb, c, masks, bits, [bits])
            assert len(rows) == len(masks)
            for m, [(idx, g)] in zip(masks, rows):
                [[(one_idx, one_g)]] = _select_rows(cb, c, m[None], bits, [bits])
                assert (idx, g) == (one_idx, one_g)
                ref_idx, ref_cfg, ref_value = block_scan_select_by_coefficients(
                    cb, c, budget, m, bits)
                assert idx == ref_idx
                assert g == ref_cfg.gain(c)
                assert snr_linear(g, budget) == ref_value


def off_box_masks(rows, cols):
    """Masks whose bounding boxes differ from each other and from the union
    box: each corner element alone, an off-center rectangle, an L shape and
    two disjoint blocks."""
    masks = []
    for r, c in ((0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)):
        grid = np.zeros((rows, cols), dtype=bool)
        grid[r, c] = True
        masks.append(grid)
    grid = np.zeros((rows, cols), dtype=bool)
    grid[rows // 3 :, : max(1, cols // 2)] = True  # off-center rectangle
    masks.append(grid)
    grid = np.zeros((rows, cols), dtype=bool)
    grid[:, 0] = grid[-1, :] = True  # L shape
    masks.append(grid)
    grid = np.zeros((rows, cols), dtype=bool)
    grid[: (rows + 1) // 3, : (cols + 1) // 3] = True  # two disjoint blocks
    grid[rows - rows // 3 :, cols - cols // 3 :] = True
    masks.append(grid)
    return [grid.ravel() for grid in masks]


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (5, 5), (3, 7), (12, 10)])
def test_filter_amplitudes_lie_within_their_margins(shape):
    # the single-precision filter's amplitude of every codeword under every
    # mask is within that mask's margin of the amplitude of the codeword's
    # exact (quantized) phases, on centered, random, full and empty masks and
    # on masks whose bounding boxes are not the union box (corners, an
    # off-center rectangle, an L shape, two disjoint blocks), also with
    # coefficients that would underflow or overflow single precision
    for seed, scale in itertools.product(range(4), (1.0, 2.0**-140, 2.0**140)):
        h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(seed, shape, (12, 6))
        c = scale * cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
        rng = np.random.default_rng(300 + seed)
        masks = np.array([mask, rng.random(c.size) < 0.5, np.ones(c.size, dtype=bool),
                          np.zeros(c.size, dtype=bool), *off_box_masks(*shape)])
        theta = np.array([cb.phases(k) for k in range(len(cb))])
        for bits in (None, 1, 2, 3):
            phasors = np.exp(1j * (theta if bits is None else _quantize(theta, bits)))
            exact = np.abs((phasors * c) @ masks.T).T
            amplitude, margin = _filter_amplitudes(cb, c, masks, bits)
            assert amplitude.shape == exact.shape == (len(masks), len(cb))
            assert np.all(np.abs(amplitude - exact) <= margin[:, None])
            np.testing.assert_array_equal(margin == 0.0, ~masks.any(axis=1))


def test_selection_rejects_misshapen_masks():
    h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(1)
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    for masks in (mask, mask[None, :-1], mask.reshape(1, 4, 4)):
        with pytest.raises(ValueError):
            _select_rows(cb, c, masks, None, [None])
    with pytest.raises(ValueError):
        select_codeword(cb, h_ris_tx, h_rx_ris, budget, mask[:-1])


def test_select_codeword_equals_selection_on_coefficients():
    for seed in range(4):
        h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(seed, (6, 5))
        c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
        for m in (mask, np.ones(mask.size, dtype=bool)):
            for bits in (None, 1, 2):
                idx, cfg, value = select_codeword(cb, h_ris_tx, h_rx_ris, budget, m, bits)
                [[(c_idx, g)]] = _select_rows(cb, c, m[None], bits, [bits])
                assert idx == c_idx
                assert cfg.gain(c) == g
                assert value == snr_linear(g, budget)


@pytest.mark.parametrize("bits", [None, 1, 2, 3])
def test_select_codeword_empty_mask(bits):
    h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(6, (5, 3))
    empty = np.zeros(mask.size, dtype=bool)
    idx, cfg, value = select_codeword(cb, h_ris_tx, h_rx_ris, budget, empty, bits)
    assert (idx, value) == (0, 0.0)
    assert not cfg.active_mask.any()


def test_select_codeword_picks_planted_optimum():
    # a receive-side channel that makes c_i = exp(-j theta_{k*, i}) aligns
    # every element under codeword k*, which no other codeword can match
    h_ris_tx, _, budget, mask, cb = random_scene(3)
    planted = len(cb) // 2 + 3
    w = h_ris_tx.entries @ budget.w_tx
    target = np.exp(-1j * cb.phases(planted)) / w
    h_rx_ris = ChannelMatrix((target / np.conj(budget.w_rx[0]))[None, :])
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    np.testing.assert_allclose(c, np.exp(-1j * cb.phases(planted)), rtol=1e-12)
    for m in (mask, np.ones(mask.size, dtype=bool)):
        idx, _, _ = select_codeword(cb, h_ris_tx, h_rx_ris, budget, m)
        assert idx == planted


def test_single_codeword_codebook():
    h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(4)
    single = Codebook(cb.ris, cb.wavelength, cb.directions[:1], cb.incident_direction)
    idx, _, _ = select_codeword(single, h_ris_tx, h_rx_ris, budget, mask)
    assert idx == 0


def test_conjugate_oracle_dominates_quantized_configs():
    for seed in range(20):
        h_ris_tx, h_rx_ris, budget, mask, cb = random_scene(seed)
        oracle = conjugate_phases(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx, mask)
        c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
        oracle_snr = snr_linear(np.sum(oracle.reflection_coefficients() * c), budget)
        for bits in (1, 2):
            q = quantize_phases(oracle, bits)
            q_snr = snr_linear(np.sum(q.reflection_coefficients() * c), budget)
            assert q_snr <= oracle_snr


def test_monotone_masking_under_conjugate_oracle():
    h_ris_tx, h_rx_ris, budget, _, _ = random_scene(5)
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    previous = -1.0
    mask = np.zeros(c.size, dtype=bool)
    order = np.random.default_rng(9).permutation(c.size)
    for i in order:
        mask[i] = True
        cfg = conjugate_phases(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx, mask)
        value = snr_linear(np.sum(cfg.reflection_coefficients() * c), budget)
        assert value >= previous
        previous = value


def boundary_codebook(rows, cols, fraction, bits):
    """A codebook on a rows x cols RIS whose 81 codewords have row and
    column phase slopes on every multiple m * fraction of a `bits`-bit level
    step, m from -4 to 4, so that many of their phases lie on a level
    boundary up to rounding."""
    lam, spacing = 0.1, 0.15
    ris = PlanarArray([0.0, 0.0, 0.0], rows, cols, spacing, [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    incident = np.array([0.0, 0.0, 1.0])
    # a steering component s gives the slope -2*pi/lam * spacing * s
    s = -np.arange(-4, 5) * fraction * (2 * np.pi / (1 << bits)) * lam / (2 * np.pi * spacing)
    steer = [(s_r, s_c, 0.5) for s_r in s for s_c in s]
    return Codebook(ris, lam, np.array(steer) - incident, incident)


@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("fraction", [0.5, 0.25])
@pytest.mark.parametrize("shape", [(2, 4), (2, 5), (3, 4), (3, 5)])
def test_quantized_selection_reaches_the_exhaustive_optimum_on_level_boundaries(
        shape, fraction, bits):
    # with c the conjugate of one codeword's quantized profile, quantized
    # selection must reach the best power of an exhaustive scan of the
    # configurations it applies. The filter took its levels from the
    # separable phases and the re-score from Codebook.phases: a phase on a
    # level boundary could take different levels in the two, and the
    # exhaustive winner was dropped before the re-score (36 against 64)
    cb = boundary_codebook(*shape, fraction, bits)
    full = np.ones(cb.ris.num_elements, dtype=bool)
    masks = np.array([full, active_mask(cb.ris, 0.5)])
    reflection = [np.array([_configuration(cb, j, mask, bits).reflection_coefficients()
                            for j in range(len(cb))]) for mask in masks]
    for planted in range(len(cb)):
        c = np.conj(reflection[0][planted])
        for mask, refl, [(k, g)] in zip(masks, reflection, _select_rows(cb, c, masks, bits,
                                                                        [bits])):
            assert g == _configuration(cb, k, mask, bits).gain(c)
            assert abs(g) ** 2 >= np.max(np.abs(refl @ c) ** 2) * (1 - 1e-9), (planted, k)
