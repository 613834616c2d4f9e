"""Precoding, end-to-end channel composition, SNR, and noisy transmission.

The end-to-end channel is H_rx,ris * diag(mask_i * exp(1j*theta_i)) *
H_ris,tx; the scalar channel after precoding/combining is
g = w_rx^H H_e2e w_tx and SNR = |g|^2 * P_tx / sigma^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .coding import SymbolMatrix
from .geometry import PlanarArray, element_positions


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, total complex noise power, and unit-norm
    precoding/combining weights. noise_power = 0 is allowed as a noiseless
    override for round-trip checks."""

    p_tx: float
    noise_power: float
    w_tx: np.ndarray
    w_rx: np.ndarray

    def __post_init__(self):
        if not self.p_tx > 0:
            raise ValueError("transmit power must be positive")
        if self.noise_power < 0:
            raise ValueError("noise power must be non-negative")
        for name in ("w_tx", "w_rx"):
            w = np.asarray(getattr(self, name), dtype=complex)
            if w.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if abs(np.linalg.norm(w) - 1.0) > 1e-12:
                raise ValueError(f"{name} must be unit-norm")
            object.__setattr__(self, name, w)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


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
    if h_rx_ris.shape[1] != n_r or cfg.num_elements != n_r:
        raise ValueError(
            f"dimension mismatch: H_ris,tx {h_ris_tx.shape}, "
            f"H_rx,ris {h_rx_ris.shape}, {cfg.num_elements} RIS phases"
        )
    theta = cfg.reflection_coefficients()
    entries = (h_rx_ris.entries * theta[None, :]) @ h_ris_tx.entries
    return ChannelMatrix(entries, h_ris_tx.wavelength)


def effective_gain(h_e2e: ChannelMatrix, budget: LinkBudget) -> complex:
    m, n = h_e2e.shape
    if budget.w_rx.size != m or budget.w_tx.size != n:
        raise ValueError("weight dimensions do not match the channel")
    return complex(np.conj(budget.w_rx) @ h_e2e.entries @ budget.w_tx)


def snr_linear(g: complex, budget: LinkBudget) -> float:
    power = abs(g) ** 2 * budget.p_tx
    if budget.noise_power == 0.0:  # noiseless: inf, or 0 for a zero gain
        return math.inf if power > 0.0 else 0.0
    return power / budget.noise_power


def snr(g: complex, budget: LinkBudget) -> tuple[float, float]:
    """(linear SNR, dB). A zero gain reports -inf dB."""
    linear = snr_linear(g, budget)
    db = 10.0 * math.log10(linear) if linear > 0.0 else -math.inf
    return linear, db


def transmit(
    s: SymbolMatrix, g: complex, budget: LinkBudget, seed: int
) -> SymbolMatrix:
    """Pass every symbol through the scalar channel: s_hat = g*sqrt(P_tx)*s
    plus i.i.d. circularly-symmetric complex Gaussian noise of total variance
    noise_power. The channel stays constant across the whole matrix;
    bit-identical for a fixed seed."""
    rng = np.random.default_rng(seed)
    return transmit_with_rng(s, g, budget, rng)


def transmit_with_rng(
    s: SymbolMatrix, g: complex, budget: LinkBudget, rng: np.random.Generator
) -> SymbolMatrix:
    shape = s.values.shape
    scale = np.sqrt(budget.noise_power / 2.0)
    noise = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return SymbolMatrix(g * np.sqrt(budget.p_tx) * s.values + noise)


def equalize(s_hat: SymbolMatrix, g: complex, p_tx: float) -> SymbolMatrix:
    """Divide received symbols by g*sqrt(p_tx) (perfect CSI)."""
    if g == 0:
        raise ValueError("link outage: zero end-to-end gain")
    return SymbolMatrix(s_hat.values / (g * np.sqrt(p_tx)))
