import math

import numpy as np
import pytest

from rislink import link
from rislink.channel import PathLossModel, los_channel, wavelength
from rislink.coding import AXIS_LEVELS
from rislink.geometry import facing_array
from rislink.link import LinkBudget, steering_precoder
from rislink.ris import active_mask, build_codebook

WAVELENGTH_28GHZ = wavelength(28e9)

WORDS_A = ["the station", "a sensor", "the relay", "one drone", "the gateway",
           "a beacon", "the array", "one probe", "the node", "a tower"]
WORDS_B = ["reports", "measures", "transmits", "observes", "records",
           "forwards", "samples", "detects", "tracks", "collects"]
WORDS_C = ["the signal", "a reading", "the packet", "one frame", "the value",
           "a message", "the update", "one burst", "the stream", "a pulse"]
WORDS_D = ["at dawn", "by the river", "near the city", "after sunset",
           "in the valley", "on the hill", "under cloud cover",
           "during the storm", "before noon", "at the border"]


def bit_error_rate(sent: np.ndarray, received: np.ndarray) -> float:
    """The share of differing bits of two bit streams of equal length: the
    oracle that bit_error_rates is checked against, segment by segment."""
    sent = np.asarray(sent).ravel()
    received = np.asarray(received).ravel()
    if sent.size != received.size:
        raise ValueError(f"bit stream lengths differ: {sent.size} vs {received.size}")
    if sent.size == 0:
        return 0.0
    return float(np.mean(sent != received))


def bit_error_rates(sent: np.ndarray, received: np.ndarray, starts, sizes) -> np.ndarray:
    """The bit error rate of each segment starts[k]:starts[k] + sizes[k] of
    two bit streams of equal length, from one comparison of the whole
    streams: each segment counts the positions of the differing bits that
    fall in it, so bits outside every segment never count. An empty segment
    scores 0. The oracle for the per-sentence rates of harness._send_rows."""
    sent = np.asarray(sent).ravel()
    received = np.asarray(received).ravel()
    if sent.size != received.size:
        raise ValueError(f"bit stream lengths differ: {sent.size} vs {received.size}")
    starts, sizes = np.asarray(starts), np.asarray(sizes)
    errors = np.flatnonzero(sent != received)
    counts = np.searchsorted(errors, starts + sizes) - np.searchsorted(errors, starts)
    return counts / np.maximum(sizes, 1)


def gathered_receive_bits(sent: np.ndarray, modulation: str, g: complex, budget: LinkBudget,
                          seed: int) -> np.ndarray:
    """link.receive_bits as a gather: each component's chance of falling
    below each threshold taken by its Gray index, its region the number of
    thresholds its uniform u crosses, sum_j [u >= Phi((t_j - a)/sigma)],
    and its bits the region's Gray bits taken by the region. The oracle that
    link.receive_bits must match bit for bit."""
    if g == 0:
        raise ValueError("link outage: zero end-to-end gain")
    levels = AXIS_LEVELS[modulation]
    order = np.argsort(levels)  # the Gray index of each region, by ascending level
    thresholds = (levels[order][1:] + levels[order][:-1]) / 2.0
    with np.errstate(divide="ignore", over="ignore"):  # noiseless: +-inf, not 0/0
        scale = abs(g) / np.sqrt(budget.noise_power) * np.sqrt(budget.p_tx)  # 1/(sigma sqrt 2)
        z = (thresholds[:, None] - levels) * scale
    # below[j][i] = Phi((t_j - a_i)/sigma), for level a_i of Gray index i
    below = 0.5 * np.array([[math.erfc(-x) for x in row] for row in z.tolist()])
    per = order.size.bit_length() - 1  # bits per component
    index = sent[0::per].astype(np.intp)  # each component's Gray bits as a number
    for k in range(1, per):
        index = 2 * index + sent[k::per]
    u = np.random.default_rng(seed).random(index.size)
    region = (u >= below[0].take(index)).view(np.uint8)
    for row in below[1:]:
        region += u >= row.take(index)
    # each region's Gray bits, as one unsigned integer of `per` bytes
    bits = (order[:, None] >> np.arange(per - 1, -1, -1) & 1).astype(np.uint8)
    return bits.view(f"u{per}").ravel().take(region).view(np.uint8)


def expected_bit_errors(layout, modulation: str, g: complex, budget: LinkBudget):
    """Each sentence's expected bit errors, and their variance, when
    link.receive_bits decides the bits of `layout` (a harness._Layout), pads
    left out, from the sampler's own regions and chances (link._decisions,
    link._chances). A component sent at level a falls in region r, between
    thresholds t_{r-1} and t_r, with chance Phi(t_r - a) - Phi(t_{r-1} - a),
    in units of sigma. Each chance is taken from the tail it lies in, so a
    small one keeps its relative precision: a region below a's own from the
    chances below each threshold, one above it from those of the mirrored
    level, -a, below the mirrored threshold, -t (the levels are symmetric
    about 0). The bits of one component are not independent (16-QAM sends
    two on each), so the variance is summed per component."""
    words, regions, _ = link._decisions(modulation)
    levels = AXIS_LEVELS[modulation]
    k, per = levels.size, words.itemsize  # levels, bits per component
    below = np.array(link._chances(modulation, g, budget))  # below[j, i] = Phi(t_j - a_i)
    mirror = [int(np.flatnonzero(levels == -a)[0]) for a in levels]
    above = below[::-1][:, mirror]  # above[j, i] = Phi(a_i - t_j)
    low = np.vstack([np.diff(below, axis=0, prepend=0.0), np.zeros(k)])
    high = np.vstack([np.zeros(k), -np.diff(above, axis=0, append=0.0)])
    own = np.argsort(np.argsort(levels))  # each level's region
    region = np.arange(k)[:, None]
    chance = np.where(region < own, low, np.where(region > own, high, 0.0))  # (region, level)
    sent = layout.sent.reshape(-1, per)  # a row per component
    inside = layout.inside.reshape(-1, per).astype(bool)
    decided = regions.view(np.uint8).reshape(k, per)  # each region's Gray bits
    # wrong[c, r]: the bits of component c that a decision in region r gets wrong
    wrong = ((decided[None] != sent[:, None]) & inside[:, None]).sum(axis=2)
    p = chance[:, sent @ (1 << np.arange(per - 1, -1, -1))].T  # by each component's Gray index
    mean = (p * wrong).sum(axis=1)
    variance = (p * wrong**2).sum(axis=1) - mean**2
    first = layout.starts // per  # each sentence's first component
    return np.add.reduceat(mean, first), np.add.reduceat(variance, first)


def make_corpus(n_sentences: int = 100) -> list:
    """Deterministic lowercase corpus inside the 6-bit alphabet."""
    out = []
    for i in range(n_sentences):
        a = WORDS_A[i % 10]
        b = WORDS_B[(i // 10) % 10]
        c = WORDS_C[(i * 3) % 10]
        d = WORDS_D[(i * 7 + i // 10) % 10]
        out.append(f"{a} {b} {c} {d}.")
    return out


@pytest.fixture
def corpus():
    return make_corpus()


@pytest.fixture
def corpus_file(tmp_path, corpus):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(corpus) + "\n")
    return path


def random_arrays(seed: int, ris_shape=(4, 4), rx_shape=(1, 1)):
    """Small randomized geometry with all links in the RIS front half-space.

    Returns (tx, rx, ris, rng), the generator left after placing them."""
    rng = np.random.default_rng(seed)
    spacing = WAVELENGTH_28GHZ / 2.0
    ris_center = np.zeros(3)

    def sample_position():
        return np.array([rng.uniform(-5, 5), rng.uniform(5, 15), rng.uniform(-3, 3)])

    tx_pos = sample_position()
    rx_pos = sample_position()
    midpoint = (tx_pos + rx_pos) / 2.0

    tx = facing_array(tx_pos, 2, 2, spacing, ris_center)
    rx = facing_array(rx_pos, *rx_shape, spacing, ris_center)
    ris = facing_array(ris_center, *ris_shape, spacing, midpoint)
    return tx, rx, ris, rng


def random_scene(seed: int, ris_shape=(4, 4), grid=(8, 4)):
    """Channels, budget, a random-ratio mask and a codebook on the geometry
    of random_arrays.

    Returns (h_ris_tx, h_rx_ris, budget, mask, codebook)."""
    tx, rx, ris, rng = random_arrays(seed, ris_shape)
    lam = WAVELENGTH_28GHZ
    pl = PathLossModel(4.0)
    h_ris_tx = los_channel(tx, ris, lam, pl)
    h_rx_ris = los_channel(ris, rx, lam, pl)
    w_tx = steering_precoder(tx, ris.center, lam)
    w_rx = steering_precoder(rx, ris.center, lam)
    budget = LinkBudget(0.1, 1e-12, w_tx, w_rx)

    mask = active_mask(ris, rng.uniform(0.3, 1.0))
    incident = (tx.center - ris.center) / np.linalg.norm(tx.center - ris.center)
    cb = build_codebook(ris, incident, grid, lam)
    return h_ris_tx, h_rx_ris, budget, mask, cb
