"""RIS phase configurations: phase-gradient codebooks, uniform phase
quantization, active-element masks, and codeword selection.

Conventions, frozen for reproducibility:
  - quantization levels are anchored at 0, i.e. {2*pi*k / 2^B};
  - nearest level under circular distance, ties broken toward the lower level;
  - active masks are square blocks (row-major flattening), centered when
    the block's side and the array's have the same parity and otherwise
    half an element toward index 0 (an odd side on the even default);
  - codeword selection keeps the lowest index among bitwise-equal powers.
    Codewords the array cannot tell apart (directions that differ only
    along an axis it does not span) have powers equal only up to rounding,
    and the one that rounds highest wins.
"""

import numbers
from functools import cache, cached_property

import numpy as np

from .channel import ChannelMatrix, _cascade_blocks
from .geometry import PlanarArray, element_positions, unit
from .link import snr_linear

TWO_PI = 2.0 * np.pi
# Codewords per block in the quantized _filter_amplitudes and in _select_rows'
# re-score. On the default scene (20 masks, one BLAS thread, a loaded host) a
# 1- or 2-bit filter pass took 18-19 ms at 32 codewords per block, 21-24 ms
# at 8 and 16, 20-28 ms at 64 and 26-28 ms at 128.
_BLOCK_ROWS = 32
# A codeword's filter amplitude under a mask lies within
# _MARGIN_PER_TERM * (n + 3) * sum_{e in mask} |c_e| of its exact amplitude,
# n being the size of the masks' union bounding box. With u = 2^-24 and every
# |phasor| = 1: on quantized phases, each term's phasor is rounded to single
# precision in the level table (u) and c_e is rounded (u); the box product's
# complex inner product of n terms then errs by at most
# sqrt(2) * gamma_2n * sum |x_e| |y_e| in any summation order (Higham,
# Accuracy and Stability of Numerical Algorithms, section 3.1), and |.| adds
# 2u: below (2.9 n + 5) u. On continuous phases, a mask whose own bounding
# box has s_r rows and s_c columns is scored as sum_r row_r * (sum_c c_rc *
# col_c). Each term has three rounded inputs (3u) and two rounded complex
# products (sqrt(2) * gamma_2 each, Higham lemma 3.5), and passes through at
# most s_r + s_c - 2 complex additions (u each), and |.| adds 2u: below
# (s_r + s_c + 9) u, where s_r + s_c <= n + 1 on any box. Both bounds are
# below 4 (n + 3) u, hence the factor kappa = 4; the double precision ramps
# and exact scores add less than 1e-5 u per term. The bounds hold without
# underflow, so the filter scales each mask's coefficients to a largest
# modulus in [1/2, 1): a term that still underflows adds at most 2^-149
# absolutely, far below a margin of at least 2 (n + 3) u.
_MARGIN_PER_TERM = 4.0 * 2.0**-24
# The finest phase-shift precision, in bits. Quantize-before-select scores
# against a table of the 2^B level phasors: 65,536 of them, 512 KiB, at 16.
MAX_BITS = 16


def _check_bits(bits, name: str, none: str = "", got=None, what: str = "an integer") -> None:
    """The rule for a bit count: an integer from 1 to MAX_BITS, not a bool, or
    None (continuous phases) where `none` is how the input spells it; else a
    ValueError that `name` must be `what` so, reporting `got` (or `bits`)."""
    if not (bits is None and none or not isinstance(bits, bool)
            and isinstance(bits, numbers.Integral) and 1 <= bits <= MAX_BITS):
        raise ValueError(f"{name} must be {what} from 1 to {MAX_BITS}{none and ' or ' + none}, "
                         f"got {bits if got is None else got!r}")


class RisConfiguration:
    """Per-element phase shifts in [0, 2*pi], an active mask, and the
    quantization precision applied (None = continuous). The phases are
    taken mod 2*pi, which gives exactly 2*pi for a phase in about
    (-4.4e-16, 0)."""

    def __init__(self, phases, active_mask, quantization_bits: int | None = None):
        phases = np.mod(np.asarray(phases, dtype=float), TWO_PI)
        mask = np.asarray(active_mask, dtype=bool)
        if phases.ndim != 1 or mask.shape != phases.shape:
            raise ValueError("phases and active_mask must be 1D with equal length")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        _check_bits(quantization_bits, "quantization_bits", "None")
        self.phases, self.active_mask, self.quantization_bits = phases, mask, quantization_bits

    def reflection_coefficients(self) -> np.ndarray:
        """Diagonal of the reflection matrix; inactive elements absorb (0)."""
        return np.where(self.active_mask, np.exp(1j * self.phases), 0.0)

    def gain(self, c: np.ndarray) -> complex:
        """End-to-end scalar gain sum_i mask_i * exp(1j*theta_i) * c_i for the
        per-element cascaded coefficients c (see cascaded_coefficients)."""
        return np.sum(self.reflection_coefficients() * c)


class Codebook:
    """Phase-gradient codebook on the planar array `ris`: codeword k steers
    a plane wave arriving from `incident_direction` toward `directions[k]`
    with every element active. Only the directions are stored; `phases(k)`
    computes a codeword's element phases when asked."""

    def __init__(self, ris: PlanarArray, wavelength: float, directions, incident_direction):
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != 3:
            raise ValueError("codebook needs one 3D direction per codeword")
        if not len(directions):
            raise ValueError("codebook must be non-empty")
        self.ris, self.wavelength, self.directions = ris, wavelength, directions
        self.incident_direction = unit(incident_direction)

    def __len__(self) -> int:
        return len(self.directions)

    @cached_property
    def _offsets(self) -> np.ndarray:
        return element_positions(self.ris) - self.ris.center  # (N, 3)

    def phases(self, k: int) -> np.ndarray:
        """Element phases of codeword k in [0, 2*pi] (2*pi as in
        RisConfiguration): for element i at offset p_i from the array
        center, theta_i = mod(-kappa * p_i . (u_inc + u_k), 2*pi)."""
        kappa = TWO_PI / self.wavelength
        steer = self.incident_direction + self.directions[k]
        return np.mod(-kappa * (self._offsets @ steer), TWO_PI)

    @cached_property
    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Phase slopes (K,) per row step and per column step: with r' and
        c' the row and column indices counted from the array center,
        theta_k(r, c) = row[k] * r' + col[k] * c' modulo 2*pi, equal to
        phases(k) up to rounding, because element offsets are
        r' * spacing * axis_row + c' * spacing * axis_col."""
        steer = self.directions + self.incident_direction  # (K, 3)
        scale = -TWO_PI / self.wavelength * self.ris.spacing
        return scale * (steer @ self.ris.axis_row), scale * (steer @ self.ris.axis_col)


def build_codebook(
    ris: PlanarArray,
    incident,
    grid: tuple[int, int],
    wavelength: float,
) -> Codebook:
    """Phase-gradient reflectarray codebook over a uniform azimuth x
    elevation grid of outgoing directions covering the RIS front half-space.

    `incident` is the direction from the RIS toward the source. The codeword
    for outgoing direction u phases element i as in Codebook.phases,
    steering the incident plane wave toward u.
    """
    n_az, n_el = grid
    if n_az < 1 or n_el < 1:
        raise ValueError("codebook grid dimensions must be >= 1")
    if np.dot(unit(incident), ris.normal) <= 0:
        raise ValueError("incident direction must be in the RIS front half-space")

    # Elevation measured from the normal, offset half a step to avoid
    # grazing directions; azimuth spans [0, 2*pi). Elevation-major order.
    el = ((np.arange(n_el) + 0.5) * (np.pi / 2.0) / n_el)[:, None, None]
    az = (TWO_PI * np.arange(n_az) / n_az)[:, None]
    lateral = np.cos(az) * ris.axis_row + np.sin(az) * ris.axis_col  # (n_az, 3)
    directions = np.sin(el) * lateral + np.cos(el) * ris.normal
    return Codebook(ris, wavelength, directions.reshape(-1, 3), incident)


def _quantize(phases: np.ndarray, bits: int) -> np.ndarray:
    """Nearest of the 2^bits levels {2*pi*k / 2^bits} under circular
    distance, ties toward the lower level."""
    step = TWO_PI / (1 << bits)
    # ceil(x - 0.5) rounds to nearest with ties toward the lower level
    return np.mod(np.ceil(phases / step - 0.5), 1 << bits) * step


def quantize_phases(cfg: RisConfiguration, bits: int) -> RisConfiguration:
    """Map every active phase to the nearest of the 2^bits uniform levels
    under circular distance; ties go to the lower level. Inactive phases are
    left untouched."""
    _check_bits(bits, "bits")
    quantized = np.where(cfg.active_mask, _quantize(cfg.phases, bits), cfg.phases)
    return RisConfiguration(quantized, cfg.active_mask, bits)


def active_mask(ris: PlanarArray, ratio: float) -> np.ndarray:
    """Square block of active elements covering approximately `ratio` of
    the surface; row-major flattened boolean mask. The block starts at
    (rows - side) // 2 and (cols - side) // 2, so it is centered only when
    the side's parity matches the array's, and otherwise sits half an
    element toward index 0: side 9 (ratio 0.05) on the 40x40 default takes
    rows and columns 15-23 of 0-39."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    side = int(np.floor(np.sqrt(ratio * ris.rows * ris.cols) + 0.5))
    if side == 0:
        raise ValueError("ratio too small for this array: zero active elements")
    s_r = min(side, ris.rows)
    s_c = min(side, ris.cols)
    r0 = (ris.rows - s_r) // 2
    c0 = (ris.cols - s_c) // 2
    mask = np.zeros((ris.rows, ris.cols), dtype=bool)
    mask[r0 : r0 + s_r, c0 : c0 + s_c] = True
    return mask.ravel()


def cascaded_coefficients(
    h_ris_tx: ChannelMatrix,
    h_rx_ris: ChannelMatrix,
    w_tx: np.ndarray,
    w_rx: np.ndarray,
) -> np.ndarray:
    """Per-RIS-element complex coefficient c_i such that the end-to-end gain
    for any configuration is sum_i mask_i * exp(1j*theta_i) * c_i, reduced
    in the blocks of channel.cascaded_los_coefficients."""
    return _cascade_blocks(h_ris_tx.shape[0],
                          lambda s: (h_ris_tx.entries[s], h_rx_ris.entries[:, s]),
                          w_tx, w_rx)


def conjugate_phases(
    h_ris_tx: ChannelMatrix,
    h_rx_ris: ChannelMatrix,
    w_tx: np.ndarray,
    w_rx: np.ndarray,
    mask: np.ndarray,
) -> RisConfiguration:
    """Continuous-phase upper bound: cancels the cascaded channel phase per
    active element, so the aligned gain equals sum_i |c_i| over the mask.
    Elements with zero cascaded coefficient get phase 0 by convention."""
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, w_tx, w_rx)
    phases = np.where(np.abs(c) > 0.0, np.mod(-np.angle(c), TWO_PI), 0.0)
    return RisConfiguration(phases, np.asarray(mask, dtype=bool))


def _ramp_phasors(slope: np.ndarray, first: float, count: int) -> np.ndarray:
    """exp(1j * slope[k] * (first + i)) for i < count, shape (count, K), by a
    running product: one complex exp per codeword instead of per entry."""
    z = np.empty((count, slope.size), dtype=complex)
    z[0] = np.exp(1j * slope * first)
    z[1:] = np.exp(1j * slope)
    return np.cumprod(z, axis=0, out=z)


def _level_ramps(cb: Codebook, bits: int, ks, rows=slice(None), cols=slice(None)):
    """The terms a (len(ks), rows) and b (len(ks), cols) of the `bits`-bit
    levels of codewords `ks` over a box of the array: a[k, r] = row[k] /
    step * r' and b[k, c] = col[k] / step * c' - 0.5, whatever `ks` and the
    box, with step = 2*pi / 2^bits (see Codebook.slopes). _levels rounds
    a + b up, to the phase's nearest level, ties toward the lower. The
    filter, the re-score and _configuration all take their levels from
    here, so they put a phase on a level boundary at the same level."""
    step = TWO_PI / (1 << bits)
    row_slope, col_slope = cb.slopes
    r = (np.arange(cb.ris.rows) - (cb.ris.rows - 1) / 2.0)[rows]
    c = (np.arange(cb.ris.cols) - (cb.ris.cols - 1) / 2.0)[cols]
    return np.outer(row_slope[ks] / step, r), np.outer(col_slope[ks] / step, c) - 0.5


def _levels(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """The levels (K', rows, cols) of the terms of _level_ramps."""
    level = np.ceil(a[:, :, None] + b[:, None, :]).astype(np.intp)
    level &= (1 << bits) - 1  # the mod
    return level


def _quantized_phases(cb: Codebook, k: int, bits: int) -> np.ndarray:
    """Codeword k's element phases, each at its level of _level_ramps."""
    return _levels(*_level_ramps(cb, bits, [k]), bits).ravel() * (TWO_PI / (1 << bits))


def _filter_amplitudes(
    cb: Codebook, c: np.ndarray, masks: np.ndarray, bits: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Every codeword's gain amplitude under each of the masks (M, N), shape
    (M, K), from its separable phases (see Codebook.slopes), and each mask's
    margin (M,): a codeword's filter amplitude lies within its mask's margin
    of the amplitude of its exact phases (see _MARGIN_PER_TERM). The sums run
    in single precision. On continuous phases, each mask is scored over its
    own bounding box as the bilinear form row_z^T C col_z of the codewords'
    row and column phasors and the mask's coefficient grid C. On quantized
    phases, each block of codewords builds its phasors over the union
    bounding box of the masks once and scores them under every mask in one
    product. The quantized phasors are those of the levels of
    _level_ramps, the levels _configuration applies, so a phase on a level
    boundary takes the same level here as in the exact re-score."""
    ris = cb.ris
    grids = masks.reshape(-1, ris.rows, ris.cols)
    union = grids.any(axis=0)
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    if not rows.size:
        return np.zeros((len(masks), len(cb))), np.zeros(len(masks))
    r0, r1, c0, c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    # Each mask's coefficients are scaled exactly by the power of two that
    # brings their largest modulus into [1/2, 1) (or up by at most 2^1022),
    # so that single precision neither overflows nor loses them to
    # underflow, whatever the path loss
    modulus = np.abs(c)
    e = np.frexp(np.where(masks, modulus, 0.0).max(axis=1))[1]
    scale = np.ldexp(1.0, -np.maximum(e, -1022))[:, None]  # (M, 1)
    # (M, box rows, box columns): each mask's scaled coefficient grid over the box
    box = np.where(grids, c.reshape(ris.rows, ris.cols), 0.0)[:, r0:r1, c0:c1]
    box = (box * scale[:, :, None]).astype(np.complex64)
    margin = _MARGIN_PER_TERM * ((r1 - r0) * (c1 - c0) + 3) * (masks @ modulus)
    if bits is None:
        row_slope, col_slope = cb.slopes
        # from r' and c' of the box's first row and column
        row_z = _ramp_phasors(row_slope, r0 - (ris.rows - 1) / 2.0, r1 - r0).astype(np.complex64)
        col_z = _ramp_phasors(col_slope, c0 - (ris.cols - 1) / 2.0, c1 - c0).astype(np.complex64)
        # (box rows, K), one buffer for every mask: a new product per mask, its
        # size growing with the mask, raised the peak RSS of a default-scene
        # selection by 0.6 MB
        inner = np.empty_like(row_z)
        amplitude = np.zeros((len(masks), len(cb)))
        for m, grid in enumerate(grids[:, r0:r1, c0:c1]):
            mr = np.flatnonzero(grid.any(axis=1))
            mc = np.flatnonzero(grid.any(axis=0))
            if mr.size:
                r, s = slice(mr[0], mr[-1] + 1), slice(mc[0], mc[-1] + 1)
                t = np.matmul(box[m, r, s], col_z[s], out=inner[: r.stop - r.start])
                t *= row_z[r]
                amplitude[m] = np.abs(t.sum(axis=0))
        return amplitude / scale, margin
    levels = 1 << bits
    table = np.exp(1j * np.arange(levels) * (TWO_PI / levels)).astype(np.complex64)
    a, b = _level_ramps(cb, bits, slice(None), slice(r0, r1), slice(c0, c1))
    box = box.reshape(len(masks), -1).T  # (box, M): one column per mask
    amplitude = np.empty((len(cb), len(masks)))
    for k0 in range(0, len(cb), _BLOCK_ROWS):
        k1 = min(k0 + _BLOCK_ROWS, len(cb))
        level = _levels(a[k0:k1], b[k0:k1], bits)
        amplitude[k0:k1] = np.abs(table[level].reshape(k1 - k0, -1) @ box)
    return amplitude.T / scale, margin


def select_codeword(
    cb: Codebook,
    h_ris_tx: ChannelMatrix,
    h_rx_ris: ChannelMatrix,
    budget,
    mask: np.ndarray,
    bits: int | None = None,
) -> tuple[int, RisConfiguration, float]:
    """The codeword _select_rows picks under `mask` from the cascaded
    coefficients of the two channel matrices under the budget's weights: its
    index, applied configuration and linear SNR."""
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    mask = np.asarray(mask)
    [[(k, g)]] = _select_rows(cb, c, mask[None], bits, [bits])
    return k, _configuration(cb, k, mask, bits), snr_linear(g, budget)


def _configuration(cb: Codebook, k: int, mask, bits: int | None) -> RisConfiguration:
    """Codeword k applied under `mask`, its active phases quantized to
    `bits` (None: continuous); its gain is the one _select_rows gives."""
    phases = cb.phases(k)
    if bits is not None:
        phases = np.where(mask, _quantized_phases(cb, k, bits), phases)
    return RisConfiguration(phases, mask, bits)


def _select_rows(cb: Codebook, c: np.ndarray, masks: np.ndarray, bits, applied) -> list:
    """Under each mask of `masks` (M, N), score every codeword by its gain
    power |sum_active exp(1j*theta_i) * c_i|^2 for the per-element cascaded
    coefficients c (phases quantized first when `bits` is given) and pick
    the best one: the lowest index among bitwise-equal best powers, and
    among powers equal only up to rounding, the one that rounds highest.
    Returns, per mask, one (index, gain) per entry of `applied`: the gain of
    the winner quantized to that many bits (None: continuous), bitwise
    _configuration(cb, index, mask, bits).gain(c).

    One separable filter pass (_filter_amplitudes) scores the whole codebook
    under every mask in single precision. The exact winner's filter
    amplitude is within twice its mask's margin of the best one, so every
    codeword that close is scored again from its exact phases, and the
    winner is the one the exact scores pick."""
    for b in (bits, *applied):
        _check_bits(b, "bits", "None")
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1:] != c.shape:
        raise ValueError(f"masks have shape {masks.shape}, the RIS {c.size} elements")
    # Masks share winners and near-best codewords: on the default scene this
    # cache took a select-quantized sweep from 0.062 to 0.057 s
    @cache
    def phases(k, b):
        return cb.phases(k) if b is None else _quantized_phases(cb, k, b)

    @cache
    def phasor(k, b):
        # RisConfiguration's reflection coefficients before the mask: its
        # constructor's np.mod maps a phase of exactly 2*pi to 0
        return np.exp(1j * np.mod(phases(k, b), TWO_PI))

    selected = []
    for mask, amplitude, margin in zip(masks, *_filter_amplitudes(cb, c, masks, bits)):
        near = np.flatnonzero(amplitude >= amplitude.max() - 2.0 * margin)
        if amplitude.max() < 2.0**-510:
            # the exact powers may be subnormal or 0, rounded absolutely
            # rather than within the margin: score every codeword exactly
            near = np.arange(len(cb))
        best = int(near[0])
        if near.size > 1:
            active = np.flatnonzero(mask)
            c_active = c[active]
            exact = []
            # Blocks of two or more rows: a one-row product sums in another
            # order than the rows of a matrix product do, and the rows must
            # sum as in the full scan so that equal-power ties break the same
            # way.
            for block in np.array_split(near, -(-near.size // _BLOCK_ROWS)):
                theta = np.array([phases(k, bits)[active] for k in block])
                exact.append(np.abs(np.exp(1j * theta) @ c_active) ** 2)
            best = int(near[np.argmax(np.concatenate(exact))])
        selected.append([(best, np.sum(np.where(mask, phasor(best, b), 0.0) * c))
                         for b in applied])
    return selected
