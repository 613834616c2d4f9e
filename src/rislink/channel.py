"""Line-of-sight MIMO channel matrices between planar arrays.

Entry (m, n) of the channel from a transmit array to a receive array is

    sqrt(pi^2 * cos_rx * cos_tx / beta) * exp(-1j * kappa * d_mn)

where d_mn is the element pairwise distance, kappa = 2*pi/wavelength,
cos_rx / cos_tx are the aperture cosines at each end (clamped at 0), and
beta = (d_centers / d0)^alpha is the per-link path loss evaluated once at
the center-to-center distance, with the reference distance d0 fixed at
1 m. No NLoS component and no direct tx-rx link are modeled.

The code forms d_mn * cos as the difference of the two elements'
projections on that end's normal, so it builds no unit vectors, and the
phase factor from one real cos and one real sin of kappa * d_mn, which a
test holds bitwise equal to the complex exp's value.

`los_channel` builds a whole channel matrix, which holds its entries
alone: the wavelength enters them through kappa. `cascaded_los_coefficients`
reduces the two links through a RIS to one coefficient per RIS element,
building the tx -> RIS entries a block of RIS elements at a time and the
RIS -> rx entries in one call when they are no larger than one such block.
"""

import math

import numpy as np

from .geometry import PlanarArray, element_positions

SPEED_OF_LIGHT = 299_792_458.0  # m/s
REFERENCE_DISTANCE = 1.0  # path-loss reference distance d0, m
# RIS elements per block in _cascade_blocks. On the default scene (one
# BLAS thread, 2-core VM, medians of 15) blocks of 64 elements took 5.8 ms,
# of 128 and 256 5.6 ms, of 32 6.8 ms, and the whole matrices 8.0 ms; 64
# peaks at 0.44 MiB traced against 6.2 MiB for the whole matrices.
_BLOCK_ELEMENTS = 64


class PathLossModel:
    def __init__(self, exponent: float = 4.0):
        if exponent < 2.0:
            raise ValueError("path loss exponent must be >= 2")
        self.exponent = exponent

    def beta(self, distance: float) -> float:
        try:
            beta = math.pow(distance / REFERENCE_DISTANCE, self.exponent)
        except OverflowError:
            beta = math.inf
        if not 0.0 < beta < math.inf:
            raise ValueError(f"path loss at {float(distance)!r} m with exponent "
                             f"{self.exponent!r} is out of float range")
        return beta


class ChannelMatrix:
    """Complex per-element channel coefficients, n_rx_elements x
    n_tx_elements."""

    def __init__(self, entries):
        e = np.asarray(entries, dtype=complex)
        if e.ndim != 2:
            raise ValueError("channel entries must be a 2D matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("channel entries must be finite")
        self.entries = e

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def wavelength(frequency: float) -> float:
    """Carrier wavelength in meters for a frequency in Hz."""
    if not frequency > 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency


def _link(tx: PlanarArray, rx: PlanarArray, wavelength: float,
          pl: PathLossModel) -> tuple[float, float]:
    """(kappa, beta) of one link: the wavenumber and the path loss at the
    center-to-center distance."""
    if not wavelength > 0:
        raise ValueError("wavelength must be positive")
    d_centers = float(np.linalg.norm(rx.center - tx.center))
    if d_centers == 0.0:
        raise ValueError("overlapping arrays: zero center distance")
    return 2.0 * np.pi / wavelength, pl.beta(d_centers)


def _los_entries(p_tx: np.ndarray, p_rx: np.ndarray, tx: PlanarArray, rx: PlanarArray,
                 kappa: float, beta: float) -> np.ndarray:
    """Channel entries (M, N) from the tx element positions p_tx (N, 3) of
    array `tx` to the rx element positions p_rx (M, 3) of array `rx`."""
    # d from the three broadcast differences, summed as np.linalg.norm sums
    # them, in place
    dx, dy, dz = (np.subtract(p_tx[:, k], p_rx[:, k, None]) for k in range(3))
    dx *= dx
    dy *= dy
    dx += dy
    dz *= dz
    dx += dz
    d = np.sqrt(dx, out=dx)
    if np.any(d == 0.0):
        raise ValueError("overlapping arrays: coincident elements")

    # d times each aperture cosine is the difference of the two elements'
    # projections on that array's normal. They are taken about rx's center,
    # so each term is on the scale of the link, not of the coordinates (far
    # from the origin, projections about it would cancel to their ulps).
    # Each difference is at most d, so their product is at most d^2, which
    # build_scene keeps finite.
    rel_tx, rel_rx = p_tx - rx.center, p_rx - rx.center
    amplitude = np.subtract(rel_tx @ rx.normal, (rel_rx @ rx.normal)[:, None], out=dy)
    np.maximum(amplitude, 0.0, out=amplitude)
    on_tx = np.subtract((rel_rx @ tx.normal)[:, None], rel_tx @ tx.normal, out=dz)
    amplitude *= np.maximum(on_tx, 0.0, out=on_tx)
    amplitude *= np.pi**2 / beta
    np.sqrt(amplitude, out=amplitude)
    amplitude /= d

    # amplitude * exp(-1j * kappa * d), bitwise, without the complex exp
    phase = np.multiply(d, kappa, out=d)
    entries = np.empty(d.shape, dtype=complex)
    np.cos(phase, out=entries.real)
    np.sin(phase, out=entries.imag)
    entries.real *= amplitude
    entries.imag *= np.negative(amplitude, out=amplitude)
    return entries


def los_channel(
    tx: PlanarArray, rx: PlanarArray, wavelength: float, pl: PathLossModel
) -> ChannelMatrix:
    """LoS channel from every tx element to every rx element.

    Amplitudes use the per-link path loss at the center-to-center distance;
    per-element distances enter only the phase and the aperture cosines.
    """
    link = _link(tx, rx, wavelength, pl)
    entries = _los_entries(element_positions(tx), element_positions(rx), tx, rx, *link)
    return ChannelMatrix(entries)


def _cascade_blocks(n_ris: int, blocks, w_tx: np.ndarray,
                    w_rx: np.ndarray) -> np.ndarray:
    """Per-RIS-element cascaded coefficient c_i = (w_rx^H H_rx,ris)_i *
    (H_ris,tx w_tx)_i, reduced _BLOCK_ELEMENTS RIS elements at a time:
    blocks(s) gives the rows H_ris,tx[s] and the columns H_rx,ris[:, s] of
    the RIS elements in slice s. Products over blocks of this width round
    the same at any number of BLAS threads, which whole-matrix products do
    not."""
    w_rx_conj = np.conj(w_rx)
    c = np.empty(n_ris, dtype=complex)
    for i in range(0, n_ris, _BLOCK_ELEMENTS):
        s = slice(i, min(i + _BLOCK_ELEMENTS, n_ris))
        h_in, h_out = blocks(s)
        c[s] = (w_rx_conj @ h_out) * (h_in @ w_tx)
    return c


def cascaded_los_coefficients(
    tx: PlanarArray,
    ris: PlanarArray,
    rx: PlanarArray,
    wavelength: float,
    pl: PathLossModel,
    w_tx: np.ndarray,
    w_rx: np.ndarray,
) -> np.ndarray:
    """Per-RIS-element cascaded coefficients (see _cascade_blocks) of the LoS
    links tx -> ris -> rx, the same numbers as ris.cascaded_coefficients on
    the two los_channel matrices. The tx -> ris entries are built a block of
    RIS elements at a time. The ris -> rx entries are built in one call when
    they are no more than one such block's (M_rx * N_ris <= _BLOCK_ELEMENTS
    * N_tx, as with a single-antenna receiver), and a block at a time
    otherwise."""
    link_in = _link(tx, ris, wavelength, pl)
    link_out = _link(ris, rx, wavelength, pl)
    p_tx, p_ris, p_rx = element_positions(tx), element_positions(ris), element_positions(rx)
    whole_out = len(p_rx) * len(p_ris) <= _BLOCK_ELEMENTS * len(p_tx)
    h_out = _los_entries(p_ris, p_rx, ris, rx, *link_out) if whole_out else None

    def blocks(s):
        out = h_out[:, s] if whole_out else _los_entries(p_ris[s], p_rx, ris, rx, *link_out)
        return _los_entries(p_tx, p_ris[s], tx, ris, *link_in), out  # (block, N_tx), (M_rx, block)

    c = _cascade_blocks(len(p_ris), blocks, w_tx, w_rx)
    if not np.all(np.isfinite(c)):
        raise ValueError("cascaded coefficients must be finite")
    return c
