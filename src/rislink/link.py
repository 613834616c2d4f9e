"""Precoding, end-to-end channel composition, SNR, and noisy transmission.

The end-to-end channel is H_rx,ris * diag(mask_i * exp(1j*theta_i)) *
H_ris,tx; the scalar channel after precoding/combining is
g = w_rx^H H_e2e w_tx and SNR = |g|^2 * P_tx / sigma^2.
"""

import math
from functools import cache

import numpy as np

from .channel import ChannelMatrix
from .coding import AXIS_LEVELS, SymbolMatrix
from .geometry import PlanarArray, element_positions


class LinkBudget:
    """Transmit power, total complex noise power, and unit-norm
    precoding/combining weights. noise_power = 0 is allowed as a noiseless
    override for round-trip checks."""

    def __init__(self, p_tx: float, noise_power: float, w_tx, w_rx):
        if not 0 < p_tx < math.inf:
            raise ValueError("transmit power must be positive and finite")
        if not 0 <= noise_power < math.inf:
            raise ValueError("noise power must be non-negative and finite")
        self.p_tx, self.noise_power = p_tx, noise_power
        for name, w in (("w_tx", w_tx), ("w_rx", w_rx)):
            w = np.asarray(w, dtype=complex)
            if w.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if abs(np.linalg.norm(w) - 1.0) > 1e-12:
                raise ValueError(f"{name} must be unit-norm")
            setattr(self, name, w)


def dbm_to_watts(dbm: float) -> float:
    """A power of `dbm` dBm in watts: -inf dBm is 0 W, the noiseless case,
    and a finite value too large for a float or too small for a positive one
    is a ValueError."""
    try:
        watts = math.pow(10.0, (dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"a power of {dbm!r} dBm is too large in watts") from None
    if watts == 0.0 and dbm > -math.inf:
        raise ValueError(f"noise_dbm = {dbm!r} underflows to 0 W; -Infinity is the noiseless case")
    return watts


def steering_precoder(tx: PlanarArray, target, wavelength: float) -> np.ndarray:
    """Conjugate-steering weights exp(+1j*kappa*(d(m, target) - d_center)) /
    sqrt(N): unit-norm, maximizes the coherent sum toward `target`. Phases
    are referenced to the array center (a global phase with no effect on
    |gain|), so a single-element array gets weight exactly 1."""
    target = np.asarray(target, dtype=float)
    pos = element_positions(tx)
    d = np.linalg.norm(pos - target, axis=1)
    if np.any(d == 0.0):
        raise ValueError("steering target coincides with an array element")
    d_center = np.linalg.norm(tx.center - target)
    kappa = 2.0 * np.pi / wavelength
    return np.exp(1j * kappa * (d - d_center)) / np.sqrt(tx.num_elements)


def end_to_end_channel(h_ris_tx: ChannelMatrix, cfg, h_rx_ris: ChannelMatrix) -> ChannelMatrix:
    """Compose the tx->RIS and RIS->rx channels through the reflection
    diagonal of `cfg`, a ris.RisConfiguration; inactive elements contribute
    zero. The sweep computes the same scalar as RisConfiguration.gain; this
    full composition is the reference the tests compare it against."""
    n_r = h_ris_tx.shape[0]
    if h_rx_ris.shape[1] != n_r or cfg.phases.size != n_r:
        raise ValueError(
            f"dimension mismatch: H_ris,tx {h_ris_tx.shape}, "
            f"H_rx,ris {h_rx_ris.shape}, {cfg.phases.size} RIS phases"
        )
    theta = cfg.reflection_coefficients()
    entries = (h_rx_ris.entries * theta[None, :]) @ h_ris_tx.entries
    return ChannelMatrix(entries)


def effective_gain(h_e2e: ChannelMatrix, budget: LinkBudget) -> complex:
    m, n = h_e2e.shape
    if budget.w_rx.size != m or budget.w_tx.size != n:
        raise ValueError("weight dimensions do not match the channel")
    return complex(np.conj(budget.w_rx) @ h_e2e.entries @ budget.w_tx)


def snr_linear(g: complex, budget: LinkBudget) -> float:
    with np.errstate(over="ignore"):
        power = abs(g) ** 2 * budget.p_tx
        linear = power / budget.noise_power if budget.noise_power > 0.0 else None
    if power == math.inf or linear == math.inf:
        raise ValueError(f"the SNR overflows with p_tx_w = {budget.p_tx!r} W and "
                         f"{budget.noise_power!r} W of noise from noise_dbm")
    if linear is None:  # noiseless: inf, or 0 for a zero gain
        return math.inf if g != 0 else 0.0
    return linear


def snr(g: complex, budget: LinkBudget) -> tuple[float, float]:
    """(linear SNR, dB). A zero gain reports -inf dB. A nonzero gain whose
    linear SNR underflows to 0 (|g|^2 below the float range) reports its dB
    from log10|g| instead, which stays finite."""
    linear = snr_linear(g, budget)
    if linear > 0.0:
        return linear, 10.0 * math.log10(linear)
    if g == 0:
        return linear, -math.inf
    return linear, (20.0 * math.log10(abs(g)) + 10.0 * math.log10(budget.p_tx)
                    - 10.0 * math.log10(budget.noise_power))


def transmit(
    s: SymbolMatrix, g: complex, budget: LinkBudget, seed: int
) -> SymbolMatrix:
    """Pass every symbol through the scalar channel: s_hat = g*sqrt(P_tx)*s
    plus i.i.d. circularly-symmetric complex Gaussian noise of total variance
    noise_power. The channel stays constant across the whole matrix;
    bit-identical for a fixed seed."""
    return transmit_with_rng(s, g, budget, np.random.default_rng(seed))


# The rng annotation is a string: evaluated on import, it would load
# numpy.random, which only a drawn row needs
def transmit_with_rng(
    s: SymbolMatrix, g: complex, budget: LinkBudget, rng: "np.random.Generator"
) -> SymbolMatrix:
    # one call draws the real parts, then the imaginary parts: the same
    # numbers, in the same order, as two calls
    noise = rng.standard_normal((2, *s.values.shape))
    noise *= np.sqrt(budget.noise_power / 2.0)
    received = g * np.sqrt(budget.p_tx) * s.values
    received.real += noise[0]
    received.imag += noise[1]
    return SymbolMatrix(received)


def equalize(s_hat: SymbolMatrix, g: complex, p_tx: float) -> SymbolMatrix:
    """Divide received symbols by g*sqrt(p_tx) (perfect CSI)."""
    if g == 0:
        raise ValueError("link outage: zero end-to-end gain")
    return SymbolMatrix(s_hat.values / (g * np.sqrt(p_tx)))


@cache
def _decisions(modulation: str) -> tuple:
    """Each level's Gray bits (by Gray index) and each region's (by ascending
    level), one byte per bit, and t_j - a_i for each midpoint t_j between
    adjacent levels and each level a_i. Built on first use: at import, the
    numpy code it runs would swell every sweep's resident memory."""
    levels = AXIS_LEVELS[modulation]
    per = levels.size.bit_length() - 1  # bits per component
    gray = np.arange(levels.size)[:, None] >> np.arange(per - 1, -1, -1) & 1
    words = gray.astype(np.uint8).view(f"u{per}").ravel()
    order = np.argsort(levels)  # the Gray index of each region
    thresholds = (levels[order][1:] + levels[order][:-1]) / 2.0
    return words, words[order], (thresholds[:, None] - levels).tolist()


def _chances(modulation: str, g: complex, budget: LinkBudget) -> list:
    """below[j][i] = Phi((t_j - a_i)/sigma), non-decreasing in j: t_j ascends,
    the scale 1/(sigma sqrt 2) is >= 0 and erfc falls. A noiseless link's
    scale is inf, and t_j - a_i is never 0, so its chances are 0 and 1."""
    noise = budget.noise_power
    scale = float(abs(g)) / math.sqrt(noise) * math.sqrt(budget.p_tx) if noise else math.inf
    return [[0.5 * math.erfc(-(d * scale)) for d in row] for row in _decisions(modulation)[2]]


def receive_bits(sent: np.ndarray, modulation: str, g: complex, budget: LinkBudget,
                 seed: int) -> np.ndarray:
    """The bits `modulation`'s demodulator decides on the bits `sent` (whole
    symbols) after transmit and equalize, drawn without the noise. Equalized,
    each constellation component is its level a plus its own Gaussian noise
    of deviation sigma = sqrt(noise_power/2) / (|g| sqrt(p_tx)), so one
    uniform u per component crosses threshold t_j if u >= Phi((t_j - a)/sigma)
    (_chances, compared per level, selected by level masks): that chain's
    distribution, not its draws. The chances rise with j, so each crossing
    flips the Gray bit that changes there. A zero gain is a "link outage"
    error, as in equalize."""
    if g == 0:
        raise ValueError("link outage: zero end-to-end gain")
    words, regions, _ = _decisions(modulation)
    sent = np.ascontiguousarray(sent, dtype=np.uint8).view(words.dtype)  # a word per component
    masks = [sent == word for word in words]  # the components sent at each level
    u = np.random.default_rng(seed).random(sent.size)
    received = np.full(sent.size, regions[0])
    for j, row in enumerate(_chances(modulation, g, budget)):
        crossed = np.zeros(sent.size, dtype=bool)
        for mask, below in zip(masks, row):
            crossed |= (u >= below) & mask
        received ^= crossed * (regions[j] ^ regions[j + 1])
    return received.view(np.uint8)
