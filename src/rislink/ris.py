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
# Codewords per block in _select_rows' exact re-score.
_BLOCK_ROWS = 32
# Elements per chunk of the quantized filter. Each chunk holds a few (chunk,
# K) arrays at once; larger chunks save no time and raise the peak memory.
_CHUNK_ELEMENTS = 16
# A codeword's filter amplitude under a mask lies within
# _MARGIN_PER_TERM * (n + 3) * sum_{e in mask} |c_e| of its exact amplitude,
# n being the size of the masks' union bounding box. With u = 2^-24, every
# |phasor| = 1 and the rounding-error bounds of Higham (Accuracy and
# Stability of Numerical Algorithms, section 3.1 and lemma 3.5), per term:
# on quantized phases, each term's phasor is rounded to single precision in
# the level table (u) and c_e is rounded (u). Each pattern's sum is a
# complex inner product of at most n terms, summed within and across chunks
# in some order, which errs by at most sqrt(2) * gamma_2n * sum |x_e| |y_e|
# in any summation order; the zero weights of a chunk's other patterns add
# exact zeros. On continuous phases, each pattern is split into rectangles,
# and one of h rows and w columns is scored as sum_r row_r * (sum_c c_rc *
# col_c) with the inner sum along its long side (transposed when h > w).
# Each term has three rounded inputs, c_e and its row and column phasors
# (3u), and two rounded complex products, one in the inner product and one
# by the short side's phasor (sqrt(2) * gamma_2 < 2.9u each). It passes
# through at most max(h, w) - 1 additions in the inner product and
# min(h, w) - 1 along the short side (u each): below (h + w + 7) u, where
# h + w <= h w + 1 <= n + 1. A rectangle's sum is exact in double
# precision, where adding a pattern's R <= n rectangle sums adds below
# sqrt(2) * R * 2^-53 < 1e-8 n u per term. On both, a mask's pattern sums
# are unscaled exactly and summed in double precision: at most P <= n of
# them, which adds below 1e-8 n u per term, as does the double precision
# |.|. In all, below (2.9 n + 5) u quantized and (n + 9) u continuous, both
# below 4 (n + 3) u, hence the factor kappa = 4; the double precision ramps
# and exact scores add less than 1e-5 u per term. The bounds hold without
# underflow, so the filter scales each pattern's coefficients to a largest
# modulus in [1/2, 1). A mask that holds a pattern holds its largest term,
# so a term that still underflows adds at most 2^-149 absolutely in its
# pattern's scaled units, far below the mask's margin of at least
# 2 (n + 3) u in the same units.
_MARGIN_PER_TERM = 4.0 * 2.0**-24
# The finest phase-shift precision, in bits. Quantize-before-select scores
# against a table of the 2^B level phasors: 65,536 of them, 512 KiB, at 16.
MAX_BITS = 16
# The largest phase ramp 2*pi / wavelength * spacing * (rows + cols), in rad,
# of a RIS. A codeword's phase slope per row or column step is at most twice
# 2*pi / wavelength * spacing, so every level term a + b of _level_ramps at
# MAX_BITS is below 2^36 / (2*pi / 2^16) + 1/2 < 2^50 in magnitude: once
# rounded up, an exact integer well inside intp.
MAX_PHASE_RAMP = 2.0**36


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
    running product, one row at a time: one complex exp per codeword instead
    of per entry. (np.cumprod along axis 0 walks a (count, K) array column by
    column, in strided steps, several times slower.)"""
    z = np.empty((count, slope.size), dtype=complex)
    z[0] = np.exp(1j * slope * first)
    step = np.exp(1j * slope)
    for i in range(1, count):
        np.multiply(z[i - 1], step, out=z[i])
    return z


def _level_ramps(cb: Codebook, bits: int, ks=slice(None)):
    """The terms a (rows, len(ks)) and b (cols, len(ks)) of the `bits`-bit
    levels of codewords `ks`: a[r, k] = r' * row[k] / step and b[c, k] =
    c' * col[k] / step - 0.5, whatever `ks`, with step = 2*pi / 2^bits (see
    Codebook.slopes). _levels rounds a[r] + b[c] up, to the phase's nearest
    level, ties toward the lower. The filter, the re-score and
    _configuration all take their levels from here, so they put a phase on
    a level boundary at the same level."""
    step = TWO_PI / (1 << bits)
    row_slope, col_slope = cb.slopes
    r = np.arange(cb.ris.rows) - (cb.ris.rows - 1) / 2.0
    c = np.arange(cb.ris.cols) - (cb.ris.cols - 1) / 2.0
    return np.outer(r, row_slope[ks] / step), np.outer(c, col_slope[ks] / step) - 0.5


def _levels(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """The levels ceil(a + b) mod 2^bits of terms of _level_ramps that
    broadcast together."""
    level = np.ceil(a + b).astype(np.intp)
    level &= (1 << bits) - 1  # the mod
    return level


def _quantized_phases(cb: Codebook, k: int, bits: int) -> np.ndarray:
    """Codeword k's element phases, each at its level of _level_ramps."""
    a, b = _level_ramps(cb, bits, [k])
    return _levels(a, b.T, bits).ravel() * (TWO_PI / (1 << bits))


def _filter_amplitudes(
    cb: Codebook, c: np.ndarray, masks: np.ndarray, bits: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Every codeword's gain amplitude under each of the masks (M, N), shape
    (M, K), from its separable phases (see Codebook.slopes), and each mask's
    margin (M,): a codeword's filter amplitude lies within its mask's margin
    of the amplitude of its exact phases (see _MARGIN_PER_TERM). The elements
    some mask holds are grouped by their membership pattern, the set of
    masks that hold them, and each pattern's terms are summed in single
    precision for every codeword, on continuous phases by _rectangle_sums
    and on quantized phases by _level_sums. Each mask's amplitude is the
    double precision sum of its patterns' sums."""
    ris = cb.ris
    union = masks.any(axis=0).reshape(ris.rows, ris.cols)
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    if not rows.size:
        return np.zeros((len(masks), len(cb))), np.zeros(len(masks))
    r0, r1, c0, c1 = box = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    modulus = np.abs(c)
    margin = _MARGIN_PER_TERM * ((r1 - r0) * (c1 - c0) + 3) * (masks @ modulus)
    held, pattern, starts = _membership_patterns(masks)
    # Each pattern's coefficients are scaled exactly, by the power of two of
    # its own largest modulus, so that single precision neither overflows
    # nor loses them to underflow, whatever the path loss
    scale = _power_of_two_scale(np.maximum.reduceat(modulus[held], starts))  # (P,)
    weight = (c[held] * scale[pattern]).astype(np.complex64)
    if bits is None:
        sums = _rectangle_sums(cb, held, pattern, weight, box)
    else:
        sums = _level_sums(cb, held, pattern, weight, bits)
    pattern_sums = sums / scale[:, None]  # exact, in double precision
    amplitude = np.empty((len(masks), len(cb)))
    # one mask at a time: an (M, P) @ (P, K) product holds an (M, K) complex array
    for m, holds in enumerate(masks[:, held[starts]].astype(complex)):
        amplitude[m] = np.abs(holds @ pattern_sums)
    return amplitude, margin


def _power_of_two_scale(largest: np.ndarray) -> np.ndarray:
    """The exact powers of two that bring the moduli `largest` into [1/2, 1)
    (1 for 0; up by at most 2^1022)."""
    return np.ldexp(1.0, -np.maximum(np.frexp(largest)[1], -1022))


def _membership_patterns(masks: np.ndarray):
    """The elements that some mask of `masks` (M, N) holds, ordered so that
    those with equal membership patterns (the set of masks that hold them)
    are contiguous, each one's pattern index, and each pattern's first
    position in that order. The sort is by the bit-packed membership
    columns, so any mask stack groups, nested or not."""
    held = np.flatnonzero(masks.any(axis=0))
    member = masks[:, held]
    order = np.lexsort(np.packbits(member, axis=0))
    held, member = held[order], member[:, order]
    first = np.ones(held.size, dtype=bool)
    first[1:] = (member[:, 1:] != member[:, :-1]).any(axis=0)
    return held, np.cumsum(first) - 1, np.flatnonzero(first)


def _rectangles(labels: np.ndarray) -> np.ndarray:
    """Rectangles (label, r0, r1, c0, c1), one row each, that partition the
    elements of each label >= 0 of the grid `labels` (rows, cols): each
    row's runs of one label, merged down consecutive rows where a run has
    the same label and column span as the one above it."""
    cols = labels.shape[1]
    flat = labels.ravel()
    start = np.ones(flat.size, dtype=bool)
    start[1:] = flat[1:] != flat[:-1]
    start[::cols] = True  # no run crosses a row's end
    first = np.flatnonzero(start)
    row, c0 = np.divmod(first, cols)
    runs = np.stack([c0, c0 + np.diff(first, append=flat.size), flat[first], row])
    runs = runs[:, runs[2] >= 0]
    # runs of one label and span, by row: a rectangle is a stretch of them in
    # consecutive rows
    runs = runs[:, np.lexsort(runs[::-1])]
    new = np.ones(runs.shape[1], dtype=bool)
    new[1:] = (runs[:3, 1:] != runs[:3, :-1]).any(axis=0) | (runs[3, 1:] != runs[3, :-1] + 1)
    head = np.flatnonzero(new)
    (c0, c1, label, row), height = runs[:, head], np.diff(head, append=new.size)
    return np.stack([label, row, row + height, c0, c1], axis=1)


def _rectangle_sums(cb: Codebook, held, pattern, weight, box) -> np.ndarray:
    """The continuous branch of _filter_amplitudes: the sums (P, K) of the
    scaled coefficients `weight` of the pattern-ordered elements `held`
    times every codeword's phasors, from its row and column phasor ramps
    over the masks' bounding box `box` (r0, r1, c0, c1). Each pattern is
    split into _rectangles, and each rectangle scored as the bilinear form
    row_z^T C col_z of its coefficient grid C, with the product along its
    long side."""
    ris = cb.ris
    r0, r1, c0, c1 = box
    labels = np.full(ris.num_elements, -1)
    labels[held] = pattern
    grid = np.zeros(ris.num_elements, dtype=np.complex64)
    grid[held] = weight
    labels = labels.reshape(ris.rows, ris.cols)[r0:r1, c0:c1]
    grid = grid.reshape(ris.rows, ris.cols)[r0:r1, c0:c1]
    row_slope, col_slope = cb.slopes
    # from r' and c' of the box's first row and column
    row_z = _ramp_phasors(row_slope, r0 - (ris.rows - 1) / 2.0, r1 - r0).astype(np.complex64)
    col_z = _ramp_phasors(col_slope, c0 - (ris.cols - 1) / 2.0, c1 - c0).astype(np.complex64)
    # double precision, so that adding a pattern's rectangles rounds below u
    sums = np.zeros((pattern[-1] + 1, len(cb)), dtype=complex)
    for p, a, b, s, t in _rectangles(labels).tolist():
        if b - a <= t - s:
            inner = grid[a:b, s:t] @ col_z[s:t]
            inner *= row_z[a:b]
        else:
            inner = grid[a:b, s:t].T @ row_z[a:b]
            inner *= col_z[s:t]
        sums[p] += inner.sum(axis=0)
    return sums


def _level_sums(cb: Codebook, held, pattern, weight, bits: int) -> np.ndarray:
    """The quantized branch of _filter_amplitudes: the sums (P, K) of the
    scaled coefficients `weight` of the pattern-ordered elements `held`
    times every codeword's level phasors. The elements are walked in chunks
    in pattern order: each chunk's level phasors of every codeword are
    summed, weighted, into its patterns' sums in one small product. The
    phasors are those of the levels of _level_ramps, the levels
    _configuration applies, so a phase on a level boundary takes the same
    level here as in the exact re-score."""
    levels = 1 << bits
    table = np.exp(1j * np.arange(levels) * (TWO_PI / levels)).astype(np.complex64)
    a, b = _level_ramps(cb, bits)  # (rows, K), (cols, K)
    at_row, at_col = np.divmod(held, cb.ris.cols)
    sums = np.zeros((pattern[-1] + 1, len(cb)), dtype=np.complex64)
    for e0 in range(0, held.size, _CHUNK_ELEMENTS):
        e = slice(e0, e0 + _CHUNK_ELEMENTS)
        p = pattern[e]
        phasor = table.take(_levels(a[at_row[e]], b[at_col[e]], bits))  # (chunk, K)
        w = np.zeros((p[-1] - p[0] + 1, p.size), dtype=np.complex64)
        w[p - p[0], np.arange(p.size)] = weight[e]
        sums[p[0] : p[-1] + 1] += w @ phasor
    return sums


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
    # Masks share winners and near-best codewords, so each codeword's phases
    # and phasors are built once per call
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
