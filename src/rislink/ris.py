"""RIS phase configurations: phase-gradient codebooks, uniform phase
quantization, active-element masks, and codeword selection.

Conventions, frozen for reproducibility:
  - quantization levels are anchored at 0, i.e. {2*pi*k / 2^B};
  - nearest level under circular distance, ties broken toward the lower level;
  - active masks are centered square blocks (row-major flattening);
  - ties in codeword selection go to the lowest index.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelMatrix
from .geometry import PlanarArray, element_positions, unit
from .link import snr_linear

TWO_PI = 2.0 * np.pi
# Codewords scored per block in select_codeword. The transients are a few
# (_BLOCK_ROWS, active elements) arrays; 8 rows kept peak RSS within 0.3 MB
# of per-codeword scoring, 32 rows added 2.4 MB, at the same speed.
_BLOCK_ROWS = 8


@dataclass(frozen=True)
class RisConfiguration:
    """Per-element phase shifts in [0, 2*pi), an active mask, and the
    quantization precision applied (None = continuous)."""

    phases: np.ndarray
    active_mask: np.ndarray
    quantization_bits: int | None = None

    def __post_init__(self):
        phases = np.mod(np.asarray(self.phases, dtype=float), TWO_PI)
        mask = np.asarray(self.active_mask, dtype=bool)
        if phases.ndim != 1 or mask.shape != phases.shape:
            raise ValueError("phases and active_mask must be 1D with equal length")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        if self.quantization_bits is not None and self.quantization_bits < 1:
            raise ValueError("quantization_bits must be >= 1")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "active_mask", mask)

    @property
    def num_elements(self) -> int:
        return self.phases.size

    def reflection_coefficients(self) -> np.ndarray:
        """Diagonal of the reflection matrix; inactive elements absorb (0)."""
        return np.where(self.active_mask, np.exp(1j * self.phases), 0.0)

    def gain(self, c: np.ndarray) -> complex:
        """End-to-end scalar gain sum_i mask_i * exp(1j*theta_i) * c_i for the
        per-element cascaded coefficients c (see cascaded_coefficients)."""
        return np.sum(self.reflection_coefficients() * c)


@dataclass(frozen=True)
class Codebook:
    """Codeword k is the row `phases[k]` of N element phases in [0, 2*pi),
    steering toward `directions[k]` with every element active."""

    phases: list
    directions: np.ndarray
    incident_direction: np.ndarray

    def __post_init__(self):
        if not len(self.phases):
            raise ValueError("codebook must be non-empty")
        directions = np.asarray(self.directions, dtype=float)
        if directions.shape != (len(self.phases), 3):
            raise ValueError("codebook needs one 3D direction per codeword")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "incident_direction", unit(self.incident_direction))

    def __len__(self) -> int:
        return len(self.phases)


def build_codebook(
    ris: PlanarArray,
    incident,
    grid: tuple[int, int],
    wavelength: float,
) -> Codebook:
    """Phase-gradient reflectarray codebook over a uniform azimuth x
    elevation grid of outgoing directions covering the RIS front half-space.

    `incident` is the unit direction from the RIS toward the source. The
    codeword for outgoing direction u phases element i (relative position
    p_i) as theta_i = mod(-kappa * p_i . (u_inc + u), 2*pi), steering the
    incident plane wave toward u.
    """
    n_az, n_el = grid
    if n_az < 1 or n_el < 1:
        raise ValueError("codebook grid dimensions must be >= 1")
    u_inc = unit(incident)
    if np.dot(u_inc, ris.normal) <= 0:
        raise ValueError("incident direction must be in the RIS front half-space")

    rel = element_positions(ris) - ris.center  # (N, 3)
    kappa = TWO_PI / wavelength

    # Elevation measured from the normal, offset half a step to avoid
    # grazing directions; azimuth spans [0, 2*pi). Elevation-major order.
    # One row per codeword rather than one (K, N) array: the rows reuse heap
    # memory freed by the channel build, while a fresh (1296, 1600) array
    # raised a default-scene sweep's peak RSS from 58 to 68 MB.
    rows, directions = [], []
    for k in range(n_el):
        el = (k + 0.5) * (np.pi / 2.0) / n_el
        for j in range(n_az):
            az = TWO_PI * j / n_az
            u = (
                np.sin(el) * (np.cos(az) * ris.axis_row + np.sin(az) * ris.axis_col)
                + np.cos(el) * ris.normal
            )
            rows.append(np.mod(-kappa * (rel @ (u_inc + u)), TWO_PI))
            directions.append(u)
    return Codebook(rows, directions, u_inc)


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
    if bits < 1:
        raise ValueError("bits must be >= 1")
    quantized = np.where(cfg.active_mask, _quantize(cfg.phases, bits), cfg.phases)
    return replace(cfg, phases=quantized, quantization_bits=bits)


def active_mask(ris: PlanarArray, ratio: float) -> np.ndarray:
    """Centered square block of active elements covering approximately
    `ratio` of the surface; row-major flattened boolean mask."""
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
    for any configuration is sum_i mask_i * exp(1j*theta_i) * c_i."""
    return (np.conj(w_rx) @ h_rx_ris.entries) * (h_ris_tx.entries @ w_tx)


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


def select_codeword(
    cb: Codebook,
    h_ris_tx: ChannelMatrix,
    h_rx_ris: ChannelMatrix,
    budget,
    mask: np.ndarray,
    bits: int | None = None,
) -> tuple[int, RisConfiguration, float]:
    """Score every codeword by its gain power |sum_active exp(1j*theta_i) *
    c_i|^2 (phases quantized first when `bits` is given) and return
    (index, applied configuration, linear SNR) of the best one. Ties go to
    the lowest index."""
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, budget.w_tx, budget.w_rx)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != c.shape:
        raise ValueError(f"mask has {mask.size} elements, the RIS {c.size}")
    active = np.flatnonzero(mask)
    c_active = c[active]
    power = np.empty(len(cb))
    for k0 in range(0, len(cb), _BLOCK_ROWS):
        block = np.array([row[active] for row in cb.phases[k0 : k0 + _BLOCK_ROWS]])
        if bits is not None:
            block = _quantize(block, bits)
        power[k0 : k0 + len(block)] = np.abs(np.exp(1j * block) @ c_active) ** 2
    best = int(np.argmax(power))
    cfg = RisConfiguration(cb.phases[best], mask)
    if bits is not None:
        cfg = quantize_phases(cfg, bits)
    return best, cfg, snr_linear(cfg.gain(c), budget)


def store_codebook(cb: Codebook, path) -> None:
    payload = {
        "incident_direction": cb.incident_direction.tolist(),
        "entries": [
            {"direction": d.tolist(), "phases": p.tolist()}
            for d, p in zip(cb.directions, cb.phases)
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_codebook(path) -> Codebook:
    with open(path) as f:
        payload = json.load(f)
    entries = payload["entries"]
    phases = np.asarray([e["phases"] for e in entries], dtype=float)
    if phases.ndim != 2 or not np.all(np.isfinite(phases)):
        raise ValueError(f"{path}: codeword phases must be finite rows of equal length")
    return Codebook(
        list(np.mod(phases, TWO_PI)),
        [e["direction"] for e in entries],
        np.asarray(payload["incident_direction"], float),
    )
