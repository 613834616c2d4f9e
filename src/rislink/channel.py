"""Line-of-sight MIMO channel matrices between planar arrays.

Entry (m, n) of the channel from a transmit array to a receive array is

    sqrt(pi^2 * cos_rx * cos_tx / beta) * exp(-1j * kappa * d_mn)

where d_mn is the element pairwise distance, kappa = 2*pi/wavelength,
cos_rx / cos_tx are the aperture cosines at each end (clamped at 0), and
beta = (d_centers / d0)^alpha is the per-link path loss evaluated once at
the center-to-center distance. No NLoS component and no direct tx-rx link
are modeled.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import PlanarArray, element_positions

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class PathLossModel:
    exponent: float = 4.0
    reference_distance: float = 1.0

    def __post_init__(self):
        if self.exponent < 2.0:
            raise ValueError("path loss exponent must be >= 2")
        if not self.reference_distance > 0:
            raise ValueError("reference distance must be positive")

    def beta(self, distance: float) -> float:
        return (distance / self.reference_distance) ** self.exponent


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex per-element channel coefficients, n_rx_elements x
    n_tx_elements, together with the carrier wavelength used to build it."""

    entries: np.ndarray
    wavelength: float

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2:
            raise ValueError("channel entries must be a 2D matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("channel entries must be finite")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def wavelength(frequency: float) -> float:
    """Carrier wavelength in meters for a frequency in Hz."""
    if not frequency > 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency


def los_channel(
    tx: PlanarArray, rx: PlanarArray, wavelength: float, pl: PathLossModel
) -> ChannelMatrix:
    """LoS channel from every tx element to every rx element.

    Amplitudes use the per-link path loss at the center-to-center distance;
    per-element distances enter only the phase and the aperture cosines.
    """
    if not wavelength > 0:
        raise ValueError("wavelength must be positive")
    d_centers = float(np.linalg.norm(rx.center - tx.center))
    if d_centers == 0.0:
        raise ValueError("overlapping arrays: zero center distance")

    p_tx = element_positions(tx)  # (N, 3)
    p_rx = element_positions(rx)  # (M, 3)
    diff = p_tx[None, :, :] - p_rx[:, None, :]  # rx -> tx, shape (M, N, 3)
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise ValueError("overlapping arrays: coincident elements")

    u = diff / d[..., None]  # unit vectors from rx elements toward tx elements
    cos_rx = np.clip(u @ rx.normal, 0.0, None)
    cos_tx = np.clip(-(u @ tx.normal), 0.0, None)
    beta = pl.beta(d_centers)
    amplitude = np.sqrt(np.pi**2 * cos_rx * cos_tx / beta)
    kappa = 2.0 * np.pi / wavelength
    return ChannelMatrix(amplitude * np.exp(-1j * kappa * d), wavelength)
