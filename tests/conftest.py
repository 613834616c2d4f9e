import numpy as np
import pytest

from rislink.channel import PathLossModel, los_channel, wavelength
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
    oracle that metrics.bit_error_rates is checked against, segment by
    segment."""
    sent = np.asarray(sent).ravel()
    received = np.asarray(received).ravel()
    if sent.size != received.size:
        raise ValueError(f"bit stream lengths differ: {sent.size} vs {received.size}")
    if sent.size == 0:
        return 0.0
    return float(np.mean(sent != received))


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
