"""Traditional source-coding baselines (Huffman, fixed 6-bit), digital
modulation, power normalization, and the symbol-matrix file interface for
externally produced semantic symbols.

Bits are numpy uint8 arrays of 0/1. The 64-character 6-bit alphabet is
frozen below; uppercase folds to lowercase and anything outside the table
maps to '?'. Huffman decoding is deliberately fragile: a bit error may
desynchronize all following characters, which is the behavior the fixed-
length baseline is compared against.
"""

import heapq
import json
import math
from collections import Counter
from functools import cached_property

import numpy as np

_ROW_POWER_TOL = 1e-9


class SymbolMatrix:
    """N_e x n complex symbols; `normalized` records that every row has
    mean |s|^2 equal to 1."""

    def __init__(self, values, normalized: bool = False):
        v = np.ascontiguousarray(np.atleast_2d(np.asarray(values, dtype=complex)))
        if v.ndim != 2:
            raise ValueError("symbol matrix must be 2D")
        if not np.isfinite(v.view(np.float64)).all():  # each real and imaginary part
            raise ValueError("symbols must be finite")
        if normalized:
            power = np.mean(np.abs(v) ** 2, axis=1)
            if np.any(np.abs(power - 1.0) > _ROW_POWER_TOL):
                raise ValueError("row power differs from 1 beyond tolerance")
        self.values, self.normalized = v, normalized

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def scale_to_unit(x: np.ndarray) -> np.ndarray:
    """x times, along its last axis, the power of two that brings the
    largest real or imaginary part into [1/2, 1) (or up by at most 2^1022),
    so that squaring neither overflows nor underflows to 0. The scaling is
    exact: its ratios of sums of squares are x's wherever x's neither
    overflow nor underflow."""
    parts = np.abs(x.view(np.float64) if x.dtype.kind == "c" else x)
    e = np.frexp(parts.max(axis=-1, initial=0.0))[1]
    return x * np.ldexp(1.0, -np.maximum(e, -1022))[..., None]


def normalize_rows(m: SymbolMatrix) -> SymbolMatrix:
    """Scale each row so its mean |s|^2 is exactly 1; any finite, nonzero
    row can be normalized."""
    values = scale_to_unit(m.values)
    power = np.mean(np.abs(values) ** 2, axis=1)
    if np.any(power == 0.0):
        raise ValueError("cannot normalize an all-zero row")
    return SymbolMatrix(values / np.sqrt(power)[:, None], normalized=True)


def store_symbol_matrix(m: SymbolMatrix, path) -> None:
    n_rows, n_cols = m.shape
    flat = m.values.ravel()
    payload = {
        "n_rows": int(n_rows),
        "n_cols": int(n_cols),
        "data": [x for z in flat for x in (z.real, z.imag)],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def read_text(path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is a ValueError
    naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path, what: str):
    """The JSON value of a UTF-8 file (see read_text); malformed JSON, or
    JSON nested deeper than the parser can recurse, is a ValueError naming
    the file and `what` it should hold."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed {what}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: malformed {what}: nested too deeply") from None


def load_symbol_matrix(path) -> SymbolMatrix:
    payload = read_json(path, "symbol-matrix file")
    try:
        n_rows, n_cols, data = payload["n_rows"], payload["n_cols"], payload["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing symbol-matrix fields: {exc}") from exc
    try:
        raw = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: data must be a list of numbers: {exc}") from exc
    if raw.ndim != 1 or not np.isfinite(raw).all():
        raise ValueError(f"{path}: data must be a flat list of finite numbers")
    for name, n in (("n_rows", n_rows), ("n_cols", n_cols)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"{path}: {name} must be an integer >= 1, got {n!r}")
    if raw.size != 2 * n_rows * n_cols:
        raise ValueError(
            f"{path}: expected {2 * n_rows * n_cols} reals for a "
            f"{n_rows}x{n_cols} matrix, got {raw.size}"
        )
    return SymbolMatrix((raw[0::2] + 1j * raw[1::2]).reshape(n_rows, n_cols))


# --------------------------------------------------------------------------
# Huffman coding


class HuffmanCode:
    def __init__(self, table: dict, frequencies: dict | None = None):
        self.table = table  # symbol -> codeword string of '0'/'1'
        self.frequencies = {} if frequencies is None else frequencies

    def expected_length(self) -> float:
        total = sum(self.frequencies.values())
        return sum(
            count * len(self.table[sym]) for sym, count in self.frequencies.items()
        ) / total

    @property
    def symbols(self) -> tuple:
        """The symbols in table order: the alphabet that decoded indices
        index."""
        return tuple(self.table)

    @cached_property
    def _decoder(self) -> np.ndarray:
        """The code tree as an automaton that reads one bit per step: the
        state after bit b from state s is _decoder[s, b]. State s <
        len(symbols) means "symbol s was just emitted" and steps as the root
        does; the root and the other inner nodes follow; the last state is
        dead and absorbs every step. A missing child (no codeword continues
        there) leads to the dead state. States are stored in the smallest
        unsigned type that holds them. A codeword stops at a symbol already
        on its path, and a symbol takes its slot whatever that held, so a
        lane emits at the shortest matching codeword, as a greedy prefix
        match does, whatever the table."""
        n_symbols = len(self.table)
        nodes = [[None, None]]  # inner nodes; a child is a node index or ~symbol
        for s, cw in enumerate(self.table.values()):
            node = 0
            for bit in cw[:-1]:
                child = nodes[node][bit == "1"]
                if child is None:
                    child = nodes[node][bit == "1"] = len(nodes)
                    nodes.append([None, None])
                elif child < 0:
                    break
                node = child
            else:
                if cw:
                    nodes[node][cw[-1] == "1"] = ~s
        root, dead = n_symbols, n_symbols + len(nodes)

        def state(child):
            return dead if child is None else ~child if child < 0 else root + child

        rows = [[state(c) for c in node] for node in nodes]
        return np.array(rows[:1] * n_symbols + rows + [[dead] * 2],
                        dtype=np.min_scalar_type(dead))

    @cached_property
    def _byte_decoder(self) -> np.ndarray:
        """The automaton of _decoder read one byte per step: row s * 256 + c
        holds the state after each bit of byte c, most significant bit
        first, read from state s (Moffat & Turpin's table-driven decoding of
        minimum-redundancy codes, IEEE Trans. Commun. 1997). For n states it
        holds n * 256 * 8 states, in _decoder's type."""
        step = self._decoder
        state = np.repeat(np.arange(len(step), dtype=step.dtype), 256)
        byte = np.tile(np.arange(256, dtype=np.uint8), len(step))
        trace = np.empty((state.size, 8), dtype=step.dtype)
        for j in range(8):
            state = trace[:, j] = step[state, (byte >> (7 - j)) & 1]
        return trace


def huffman_build(freqs: dict) -> HuffmanCode:
    """Optimal prefix code. Deterministic: initial nodes are ordered by
    symbol, merges break count ties on insertion order, and the
    lower-weight child gets bit 0."""
    items = [(sym, count) for sym, count in sorted(freqs.items()) if count > 0]
    if len(items) < 2:
        raise ValueError("huffman_build needs at least 2 symbols with positive counts")
    # heap entries: (count, insertion order, node); node = symbol or (left, right)
    heap = [(count, order, sym) for order, (sym, count) in enumerate(items)]
    heapq.heapify(heap)
    order = len(heap)
    while len(heap) > 1:
        c1, _, left = heapq.heappop(heap)
        c2, _, right = heapq.heappop(heap)
        heapq.heappush(heap, (c1 + c2, order, (left, right)))
        order += 1
    table = {}

    def assign(node, prefix):
        if isinstance(node, tuple):
            assign(node[0], prefix + "0")
            assign(node[1], prefix + "1")
        else:
            table[node] = prefix

    assign(heap[0][2], "")
    return HuffmanCode(table, dict(items))


def huffman_encode(text: str, code: HuffmanCode) -> np.ndarray:
    try:
        bits = "".join(code.table[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"character not in Huffman table: {exc}") from exc
    return np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")


# the rows of HuffmanCode._byte_decoder per state, as an intp so that a
# state in a small unsigned type times it does not overflow
_BYTE_ROWS = np.intp(256)


def huffman_decode_indices(bits: np.ndarray, lengths, code: HuffmanCode):
    """Greedy prefix decoding of many bit streams at once, given end to end
    in `bits`, stream k of lengths[k] bits: one lane per stream, each padded
    with zero bits to whole bytes, all lanes stepped through the code
    automaton one byte at a time (see HuffmanCode._byte_decoder). A symbol
    emitted at or past the end of its lane is dropped: it read pad bits,
    and an emission depends only on the bits before it, so the pad changes
    no earlier one. A corrupted stream may desynchronize; trailing bits that
    end inside the tree are dropped, and a lane whose pending bits start no
    codeword stops there. Returns the index in code.symbols of every
    emitted symbol, stream after stream, in the smallest unsigned type that
    holds them, and the number of symbols each stream emitted."""
    trace = code._byte_decoder
    n_symbols = len(code.table)
    lengths = np.asarray(lengths, dtype=np.intp)
    n_bytes = -(-int(lengths.max(initial=0)) // 8)
    reading = np.arange(8 * n_bytes) < lengths[:, None]
    lanes = np.zeros(reading.shape, dtype=np.uint8)
    lanes[reading] = np.asarray(bits) != 0
    packed = np.packbits(lanes, axis=1).T.astype(np.intp)  # packed[t]: every lane's byte t
    states = np.empty((n_bytes, lengths.size, 8), dtype=trace.dtype)
    row = np.full(lengths.size, n_symbols * 256, dtype=np.intp)  # the root's rows
    for t in range(n_bytes):
        np.add(row, packed[t], out=row)
        np.take(trace, row, axis=0, out=states[t], mode="clip")  # every row is in range
        np.multiply(states[t, :, 7], _BYTE_ROWS, out=row)
    states = states.transpose(1, 0, 2).reshape(reading.shape)  # lane-major, stream after stream
    emitted = (states < n_symbols) & reading
    indices = states.ravel()[np.flatnonzero(emitted)]  # faster than a boolean index
    return (indices.astype(np.min_scalar_type(max(n_symbols - 1, 0))),
            np.count_nonzero(emitted, axis=1))


def huffman_decode(bits: np.ndarray, code: HuffmanCode) -> str:
    """Greedy prefix decoding of one bit stream (huffman_decode_indices with
    one lane) to text; a symbol may be any string."""
    indices, _ = huffman_decode_indices(bits, [np.size(bits)], code)
    return "".join(map(code.symbols.__getitem__, indices.tolist()))


def huffman_frequencies(corpus) -> Counter:
    """Character counts over an iterable of strings."""
    counts = Counter()
    for text in corpus:
        counts.update(text)
    return counts


# --------------------------------------------------------------------------
# Fixed 6-bit coding

SIXBIT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789"
    " .,!?;:'\"()-_/\\@#$%&*+=<>[]~"
)
assert len(SIXBIT_ALPHABET) == 64 and len(set(SIXBIT_ALPHABET)) == 64

_SIXBIT_INDEX = {ch: i for i, ch in enumerate(SIXBIT_ALPHABET)}
_SIXBIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_SIXBIT_BYTES = np.frombuffer(SIXBIT_ALPHABET.encode("ascii"), dtype=np.uint8)
SIXBIT_REPLACEMENT = "?"


def sixbit_fold(text: str) -> str:
    """Fold text into the 6-bit alphabet (lowercase, '?' for unknowns)."""
    return "".join(
        ch if ch in _SIXBIT_INDEX else SIXBIT_REPLACEMENT for ch in text.lower()
    )


def sixbit_encode(text: str) -> np.ndarray:
    """Six bits per character of sixbit_fold(text), most significant first."""
    return sixbit_encode_folded(sixbit_fold(text))


def sixbit_encode_folded(folded: str) -> np.ndarray:
    """sixbit_encode of a text sixbit_fold has already folded, which is not
    folded again; a character outside the alphabet is a KeyError."""
    codes = np.array([_SIXBIT_INDEX[ch] for ch in folded], dtype=np.uint8)
    shifts = np.arange(5, -1, -1, dtype=np.uint8)
    return ((codes[:, None] >> shifts) & 1).ravel()


def sixbit_decode_indices(bits: np.ndarray) -> np.ndarray:
    """The SIXBIT_ALPHABET index (uint8) of each whole 6-bit group; each
    group decodes independently (bit errors stay local to one character),
    and a trailing partial group is dropped."""
    n = bits.size - bits.size % 6
    groups = np.asarray(bits[:n], dtype=np.uint8).reshape(-1, 6)
    return groups @ _SIXBIT_WEIGHTS  # exact: at most 63


def sixbit_decode(bits: np.ndarray) -> str:
    """The text of sixbit_decode_indices(bits)."""
    return _SIXBIT_BYTES[sixbit_decode_indices(bits)].tobytes().decode("ascii")


# --------------------------------------------------------------------------
# Modulation

# bits carried by one symbol; each modulator pads a stream with zero bits to
# a multiple of this
BITS_PER_SYMBOL = {"qpsk": 2, "16qam": 4}


def _components(symbols) -> np.ndarray:
    """The real and imaginary parts of a flattened symbol array, interleaved:
    re_0, im_0, re_1, im_1, ..."""
    return np.ascontiguousarray(symbols, dtype=complex).ravel().view(np.float64)


_QPSK_LEVELS = np.array([1.0, -1.0]) / math.sqrt(2.0)  # per-axis Gray map: 0 -> +1, 1 -> -1


def qpsk_modulate(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Gray-mapped QPSK, constellation {(+-1 +-1j)/sqrt(2)} (00 -> (1+1j)/sqrt(2)),
    unit average power. Returns (symbols, pad) where pad is the number of
    zero bits appended to reach an even length."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.size) % 2
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    pairs = bits.reshape(-1, 2)
    return _QPSK_LEVELS[pairs[:, 0]] + 1j * _QPSK_LEVELS[pairs[:, 1]], pad


def qpsk_demodulate(symbols: np.ndarray, n_bits: int | None = None) -> np.ndarray:
    """Per-component sign decisions; trims to n_bits when given."""
    flat = (_components(symbols) < 0).view(np.uint8)
    return flat[:n_bits] if n_bits is not None else flat


# per-axis Gray map (2 bits -> level): 00 -> -3, 01 -> -1, 10 -> +3, 11 -> +1
_QAM16_GRAY_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0]) / math.sqrt(10.0)


def qam16_modulate(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Gray-mapped 16-QAM behind the same interface as QPSK; pads to a
    multiple of 4 bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.size) % 4
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    quads = bits.reshape(-1, 4)
    i_idx = 2 * quads[:, 0] + quads[:, 1]
    q_idx = 2 * quads[:, 2] + quads[:, 3]
    return _QAM16_GRAY_LEVELS[i_idx] + 1j * _QAM16_GRAY_LEVELS[q_idx], pad


def _qam16_slice(values: np.ndarray) -> np.ndarray:
    dist = np.abs(values[:, None] - _QAM16_GRAY_LEVELS[None, :])
    return np.argmin(dist, axis=1)


def qam16_demodulate(symbols: np.ndarray, n_bits: int | None = None) -> np.ndarray:
    levels = _qam16_slice(_components(symbols))  # the I, then the Q level of each symbol
    bits = np.empty((levels.size, 2), dtype=np.uint8)
    bits[:, 0] = levels >> 1
    bits[:, 1] = levels & 1
    flat = bits.ravel()
    return flat[:n_bits] if n_bits is not None else flat


# each modulation's level on one axis, indexed by the Gray bits it carries
AXIS_LEVELS = {"qpsk": _QPSK_LEVELS, "16qam": _QAM16_GRAY_LEVELS}

MODULATIONS = {
    "qpsk": (qpsk_modulate, qpsk_demodulate),
    "16qam": (qam16_modulate, qam16_demodulate),
}
