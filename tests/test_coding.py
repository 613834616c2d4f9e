import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_corpus
from rislink.coding import (
    SIXBIT_ALPHABET,
    HuffmanCode,
    SymbolMatrix,
    huffman_build,
    huffman_decode,
    huffman_decode_indices,
    huffman_encode,
    huffman_frequencies,
    load_symbol_matrix,
    normalize_rows,
    qam16_demodulate,
    qam16_modulate,
    qpsk_demodulate,
    qpsk_modulate,
    sixbit_decode,
    sixbit_decode_indices,
    sixbit_encode,
    sixbit_encode_folded,
    sixbit_fold,
    store_symbol_matrix,
)

# --- Huffman ----------------------------------------------------------------


def all_prefix_code_length_profiles(n):
    """Length profiles (sorted) of every full binary tree with n leaves."""
    if n == 1:
        return {(0,)}
    profiles = set()
    for k in range(1, n):
        for left in all_prefix_code_length_profiles(k):
            for right in all_prefix_code_length_profiles(n - k):
                profile = tuple(sorted([d + 1 for d in left] + [d + 1 for d in right]))
                profiles.add(profile)
    return profiles


def brute_force_optimal_length(counts):
    """Minimum expected codeword length over all prefix codes."""
    total = sum(counts)
    ordered = sorted(counts, reverse=True)
    best = math.inf
    for profile in all_prefix_code_length_profiles(len(counts)):
        # optimal assignment pairs largest counts with shortest codewords
        cost = sum(c * l for c, l in zip(ordered, sorted(profile))) / total
        best = min(best, cost)
    return best


def test_huffman_lengths_and_expected_length():
    code = huffman_build({"a": 4, "b": 2, "c": 1, "d": 1})
    lengths = {sym: len(cw) for sym, cw in code.table.items()}
    assert lengths == {"a": 1, "b": 2, "c": 3, "d": 3}
    assert code.expected_length() == pytest.approx(1.75)
    assert code.expected_length() == pytest.approx(
        brute_force_optimal_length([4, 2, 1, 1])
    )


def test_huffman_uniform_and_two_symbol():
    code4 = huffman_build({s: 1 for s in "abcd"})
    assert all(len(cw) == 2 for cw in code4.table.values())
    code2 = huffman_build({"a": 1, "b": 1})
    assert sorted(len(cw) for cw in code2.table.values()) == [1, 1]


def test_huffman_needs_two_symbols():
    with pytest.raises(ValueError):
        huffman_build({"a": 3})
    with pytest.raises(ValueError):
        huffman_build({"a": 3, "b": 0})


def test_huffman_optimal_on_random_small_alphabets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(2, 5)
        counts = rng.integers(1, 50, size=n).tolist()
        freqs = dict(zip("abcd", counts))
        code = huffman_build(freqs)
        assert code.expected_length() == pytest.approx(
            brute_force_optimal_length(counts), abs=1e-12
        )


def test_huffman_entropy_bound_size26():
    rng = np.random.default_rng(1)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(50):
        counts = rng.integers(1, 1000, size=26)
        freqs = dict(zip(alphabet, counts.tolist()))
        code = huffman_build(freqs)
        p = counts / counts.sum()
        entropy = -np.sum(p * np.log2(p))
        assert entropy - 1e-9 <= code.expected_length() < entropy + 1.0


def test_huffman_prefix_free():
    corpus = make_corpus()
    code = huffman_build(huffman_frequencies(corpus))
    words = sorted(code.table.values())
    for a, b in itertools.combinations(words, 2):
        assert not b.startswith(a), f"{a} is a prefix of {b}"


def test_huffman_round_trip_and_errors():
    code = huffman_build({"h": 1, "e": 1, "l": 3, "o": 2, "w": 1, "r": 1, "d": 1, " ": 1})
    text = "hello world"
    bits = huffman_encode(text, code)
    assert huffman_decode(bits, code) == text
    assert huffman_decode(np.zeros(0, dtype=np.uint8), code) == ""
    assert huffman_encode("", code).size == 0
    with pytest.raises(ValueError):
        huffman_encode("hello!", code)


def test_huffman_desynchronization_permitted():
    corpus = make_corpus()
    code = huffman_build(huffman_frequencies(corpus))
    text = corpus[0]
    bits = huffman_encode(text, code)
    corrupted = bits.copy()
    corrupted[1] ^= 1
    decoded = huffman_decode(corrupted, code)
    assert decoded != text  # a single early flip is allowed to cascade


def huffman_decode_reference(bits, code):
    """Greedy prefix decoding by growing the pending codeword one bit at a
    time and looking it up in the inverted table."""
    reverse = {cw: sym for sym, cw in code.table.items()}
    out = []
    current = ""
    for b in bits:
        current += "1" if b else "0"
        sym = reverse.get(current)
        if sym is not None:
            out.append(sym)
            current = ""
    return "".join(out)


@st.composite
def huffman_streams(draw):
    """A code from random counts, and a bit stream for it: an encoded text,
    optionally truncated and corrupted, or random bits."""
    counts = draw(st.dictionaries(st.sampled_from("abcdefgh é"), st.integers(1, 50),
                                  min_size=2))
    code = huffman_build(counts)
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), max_size=300))
        return code, np.array(bits, dtype=np.uint8)
    text = draw(st.text(alphabet=sorted(counts), max_size=60))
    bits = huffman_encode(text, code)
    bits = bits[: draw(st.integers(0, bits.size))]
    for at in draw(st.lists(st.integers(0, 10_000), max_size=5)):
        if bits.size:
            bits[at % bits.size] ^= 1
    return code, bits


@given(huffman_streams())
def test_huffman_decode_matches_reference(stream):
    code, bits = stream
    assert huffman_decode(bits, code) == huffman_decode_reference(bits, code)


def test_huffman_decode_greedy_on_any_table():
    # tables huffman_build never makes: a codeword that prefixes another, a
    # repeated codeword (the later symbol wins), an empty codeword, a dead end
    rng = np.random.default_rng(4)
    for table in ({"a": "0", "b": "01"}, {"b": "01", "a": "0"},
                  {"a": "0", "b": "0", "c": "1"}, {"a": "", "b": "1", "c": "01"},
                  {"a": "00", "b": "01"}):
        code = HuffmanCode(table)
        for _ in range(50):
            bits = rng.integers(0, 2, rng.integers(0, 16)).astype(np.uint8)
            assert huffman_decode(bits, code) == huffman_decode_reference(bits, code)


# the tables of test_huffman_decode_greedy_on_any_table, and a two-symbol
# code of 1-bit codewords, which emits a symbol at every bit: eight from one
# byte, and one from each pad bit past a lane's end
BYTE_DECODER_TABLES = [{"a": "0", "b": "01"}, {"b": "01", "a": "0"},
                       {"a": "0", "b": "0", "c": "1"}, {"a": "", "b": "1", "c": "01"},
                       {"a": "00", "b": "01"}, {"a": "0", "b": "1"}]


@given(st.sampled_from(BYTE_DECODER_TABLES),
       st.lists(st.lists(st.integers(0, 1), max_size=17), max_size=6))
@example({"a": "0", "b": "1"}, [[0, 1, 1, 0, 1, 0, 0, 1], [1, 0, 1], []])
@example({"a": "00", "b": "01"}, [[0, 1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0, 0]])
@example({"a": "0", "b": "01"}, [[1, 0], [0] * 17, [0, 1] * 8])
def test_huffman_byte_decoder_equals_the_reference_lane_by_lane(table, lanes):
    # lanes of 0 to 17 bits, most not whole bytes: a symbol emitted on a
    # lane's last bit is kept, and one the zero pad would complete after it
    # (the lane of 7 bits under {"a": "00"}, whose last bit is a pending 0)
    # is not
    code = HuffmanCode(table)
    rows = [np.array(lane, dtype=np.uint8) for lane in lanes]
    bits = np.concatenate(rows) if rows else np.zeros(0, dtype=np.uint8)
    indices, counts = huffman_decode_indices(bits, [r.size for r in rows], code)
    cuts = np.cumsum(counts).tolist()
    decoded = ["".join(code.symbols[i] for i in indices[b - n : b].tolist())
               for b, n in zip(cuts, counts.tolist())]
    assert decoded == [huffman_decode_reference(r, code) for r in rows]


@given(st.lists(huffman_streams(), max_size=6))
def test_huffman_decode_rows_decodes_each_lane(streams):
    # one code for every lane; lanes of unequal lengths, empty ones included:
    # decoding them end to end gives, lane by lane, huffman_decode of each
    code = streams[0][0] if streams else huffman_build({"a": 1, "b": 2})
    rows = [bits for _, bits in streams] + [np.zeros(0, dtype=np.uint8)]
    indices, counts = huffman_decode_indices(np.concatenate(rows), [r.size for r in rows], code)
    cuts = np.cumsum(counts).tolist()
    decoded = ["".join(code.symbols[i] for i in indices[b - n : b].tolist())
               for b, n in zip(cuts, counts.tolist())]
    assert decoded == [huffman_decode(bits, code) for bits in rows]
    assert decoded == [huffman_decode_reference(bits, code) for bits in rows]


@given(st.lists(huffman_streams(), max_size=6))
def test_huffman_decode_indices_index_the_symbols(streams):
    # the indices, read through code.symbols, are each lane's text; they
    # come in the smallest unsigned type, and lanes of 0 bits emit nothing
    code = streams[0][0] if streams else huffman_build({"a": 1, "b": 2})
    rows = [np.zeros(0, dtype=np.uint8)] + [bits for _, bits in streams]
    indices, counts = huffman_decode_indices(np.concatenate(rows), [r.size for r in rows], code)
    assert indices.dtype == np.min_scalar_type(len(code.table) - 1)
    assert counts.tolist()[0] == 0 and counts.sum() == indices.size
    cuts = np.cumsum(counts).tolist()
    texts = ["".join(code.symbols[i] for i in indices[b - n : b].tolist())
             for b, n in zip(cuts, counts.tolist())]
    assert texts == [huffman_decode_reference(bits, code) for bits in rows]


def test_huffman_decode_no_lanes_and_multicharacter_symbols():
    code = huffman_build({"a": 1, "b": 2})
    indices, counts = huffman_decode_indices(np.zeros(0, dtype=np.uint8), [], code)
    assert indices.size == counts.size == 0
    code = HuffmanCode({"ab": "0", "": "10", "cde": "11"})
    rows = ([0, 1, 1, 0], [1, 0, 1], [1, 1, 0, 1])
    assert [huffman_decode(np.array(r, dtype=np.uint8), code) for r in rows] == [
        "abcdeab", "", "cdeab"]


def test_huffman_deterministic():
    freqs = {"a": 2, "b": 2, "c": 2, "d": 2, "e": 1}
    assert huffman_build(freqs).table == huffman_build(freqs).table


# --- 6-bit coding -----------------------------------------------------------


def test_sixbit_alphabet_frozen():
    assert len(SIXBIT_ALPHABET) == 64
    assert len(set(SIXBIT_ALPHABET)) == 64
    assert "?" in SIXBIT_ALPHABET


def test_sixbit_round_trip():
    text = "hello world 123!"
    assert sixbit_decode(sixbit_encode(text)) == text
    assert sixbit_decode(sixbit_encode("")) == ""


@given(st.text())
@example("İstanbul")  # lowercases to two characters, "i" and a combining dot
def test_sixbit_folds_unknown_and_uppercase(text):
    assert sixbit_fold("Hello`~") == "hello?~"
    assert sixbit_decode(sixbit_encode("ABC")) == "abc"
    assert sixbit_decode(sixbit_encode("é")) == "?"
    assert sixbit_decode(sixbit_encode("İstanbul")) == sixbit_fold("İstanbul") == "i?stanbul"
    assert sixbit_decode(sixbit_encode(text)) == sixbit_fold(text)


def test_sixbit_single_flip_changes_one_character():
    text = "the quick brown fox"
    bits = sixbit_encode(text)
    for pos in (0, 7, bits.size - 1):
        corrupted = bits.copy()
        corrupted[pos] ^= 1
        decoded = sixbit_decode(corrupted)
        assert len(decoded) == len(text)
        assert sum(a != b for a, b in zip(decoded, text)) == 1


def test_sixbit_locality_k_flips():
    rng = np.random.default_rng(4)
    text = "signal processing baseline"
    bits = sixbit_encode(text)
    for k in (2, 5, 9):
        corrupted = bits.copy()
        idx = rng.choice(bits.size, size=k, replace=False)
        corrupted[idx] ^= 1
        decoded = sixbit_decode(corrupted)
        assert sum(a != b for a, b in zip(decoded, text)) <= k


def test_sixbit_decode_indices_index_the_alphabet():
    rng = np.random.default_rng(5)
    for n in (12, 0, 5, 6, 17, 48):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        indices = sixbit_decode_indices(bits)
        assert indices.dtype == np.uint8 and indices.size == n // 6
        assert "".join(SIXBIT_ALPHABET[i] for i in indices) == sixbit_decode(bits)


@given(st.text())
def test_sixbit_encode_folded_equals_sixbit_encode(text):
    folded = sixbit_fold(text)
    assert np.array_equal(sixbit_encode_folded(folded), sixbit_encode(text))
    assert sixbit_encode_folded(folded).dtype == sixbit_encode(text).dtype == np.uint8
    if folded != text.lower():
        with pytest.raises(KeyError):
            sixbit_encode_folded(text.lower())


def test_sixbit_codes_equal_weighted_sum():
    # the codes, formed in uint8, are the int64 weighted sums of each group
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, 6 * 5000 + 4).astype(np.uint8)
    groups = bits[: 6 * 5000].reshape(-1, 6).astype(np.int64)
    codes = groups @ (1 << np.arange(5, -1, -1))
    assert sixbit_decode(bits) == "".join(SIXBIT_ALPHABET[k] for k in codes)
    every_code = sixbit_encode(SIXBIT_ALPHABET)
    assert sixbit_decode(every_code) == SIXBIT_ALPHABET


def test_sixbit_partial_group_dropped():
    bits = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], dtype=np.uint8)
    assert sixbit_decode(bits) == "ab"  # 13 bits -> 2 chars, 1 bit dropped


# --- modulation -------------------------------------------------------------


def test_qpsk_anchor_and_round_trip():
    symbols, pad = qpsk_modulate(np.array([0, 0], dtype=np.uint8))
    assert pad == 0
    assert symbols[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=999).astype(np.uint8)
    symbols, pad = qpsk_modulate(bits)
    assert pad == 1
    np.testing.assert_array_equal(qpsk_demodulate(symbols, n_bits=bits.size), bits)


def test_qpsk_unit_average_power():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=10_000).astype(np.uint8)
    symbols, _ = qpsk_modulate(bits)
    assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_qpsk_gray_mapping_adjacent_symbols_differ_one_bit():
    points = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            s, _ = qpsk_modulate(np.array([b0, b1], dtype=np.uint8))
            points[(b0, b1)] = s[0]
    for (a, pa), (b, pb) in itertools.combinations(points.items(), 2):
        hamming = sum(x != y for x, y in zip(a, b))
        if abs(pa - pb) == pytest.approx(np.sqrt(2), rel=1e-9):  # nearest neighbors
            assert hamming == 1


def test_qam16_round_trip_and_power():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=4002).astype(np.uint8)
    symbols, pad = qam16_modulate(bits)
    assert pad == 2
    np.testing.assert_array_equal(qam16_demodulate(symbols, n_bits=bits.size), bits)
    assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=0.02)


def per_component_oracle(symbols, decide):
    """Bits of each symbol: the bit columns `decide` gives for its real
    part, then those for its imaginary part."""
    symbols = np.asarray(symbols).ravel()
    return np.concatenate([decide(symbols.real), decide(symbols.imag)], axis=1).ravel()


def test_demodulators_equal_per_component_decisions():
    # decisions on the interleaved real and imaginary parts equal decisions
    # on each part, also on exact zeros of either sign, on the 16-QAM
    # decision thresholds and on non-contiguous input
    rng = np.random.default_rng(13)
    values = rng.standard_normal(4000) * 0.6
    values[::7] = 0.0
    values[1::7] = -0.0
    values[2::7] = rng.choice([-2.0, 0.0, 2.0], values[2::7].size) / math.sqrt(10.0)
    symbols = (values[:2000] + 1j * values[2000:]).reshape(40, 50)
    levels = np.array([-3.0, -1.0, 3.0, 1.0]) / math.sqrt(10.0)

    def qpsk(x):
        return (x < 0).astype(np.uint8)[:, None]

    def qam16(x):
        k = np.argmin(np.abs(x[:, None] - levels[None, :]), axis=1)
        return np.stack([k >> 1, k & 1], axis=1).astype(np.uint8)

    for demodulate, decide in ((qpsk_demodulate, qpsk), (qam16_demodulate, qam16)):
        for s in (symbols, symbols[:, ::3], symbols.T):
            got = demodulate(s)
            assert got.dtype == np.uint8
            assert np.array_equal(got, per_component_oracle(s, decide))
            assert np.array_equal(demodulate(s, n_bits=7), got[:7])


def test_qpsk_ber_matches_q_function():
    # per-symbol SNR gamma: per-bit error rate Q(sqrt(gamma))
    rng = np.random.default_rng(10)
    gamma = 10.0
    n_bits = 2_000_000
    bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
    symbols, _ = qpsk_modulate(bits)
    sigma2 = 1.0 / gamma
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
    )
    recovered = qpsk_demodulate(symbols + noise, n_bits=n_bits)
    ber = np.mean(recovered != bits)
    expected = 0.5 * math.erfc(math.sqrt(gamma / 2.0))
    assert ber == pytest.approx(expected, rel=0.05)


# --- symbol matrices ---------------------------------------------------------


def test_normalize_rows():
    m = SymbolMatrix(np.array([[2.0, 0.0, 0.0]], dtype=complex))
    out = normalize_rows(m)
    assert out.normalized
    np.testing.assert_allclose(np.mean(np.abs(out.values) ** 2, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(out.values[0, 0], np.sqrt(3.0), rtol=1e-12)


def test_normalize_rows_rejects_zero_row():
    with pytest.raises(ValueError, match="all-zero row"):
        normalize_rows(SymbolMatrix(np.zeros((2, 3), dtype=complex)))
    with pytest.raises(ValueError, match="all-zero row"):  # beside a row of 5e-324
        normalize_rows(SymbolMatrix([[5e-324, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("exponent", [-1074, -1000, -664, 664, 1000, 1023])
def test_normalize_rows_at_extreme_magnitudes(exponent):
    # rows of 1e200 squared to inf and failed the unit-power check, and rows
    # of 1e-200 squared to 0 and were "all-zero": each row is scaled by a
    # power of two first, so rows 2^exponent times as large normalize to
    # bitwise the same symbols
    rng = np.random.default_rng(3)
    parts = rng.uniform(0.5, 1.0, size=(2, 3, 5)) * rng.choice([-1.0, 1.0], size=(2, 3, 5))
    unit = parts[0] + 1j * parts[1]
    if exponent == -1074:  # the smallest subnormal, which only 0 and 1 scale exactly
        unit = np.array([[1.0, 1j, -1.0, 0.0, -1j]])
    with np.errstate(all="raise"):
        out = normalize_rows(SymbolMatrix(unit * 2.0**exponent))
    assert out.normalized
    assert np.array_equal(out.values, normalize_rows(SymbolMatrix(unit)).values)


def test_qpsk_row_already_normalized():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    symbols, _ = qpsk_modulate(bits)
    m = normalize_rows(SymbolMatrix(symbols.reshape(1, -1)))
    np.testing.assert_allclose(m.values, symbols.reshape(1, -1), rtol=1e-12)


def test_symbol_matrix_normalized_flag_checked():
    with pytest.raises(ValueError):
        SymbolMatrix(np.full((1, 3), 2.0 + 0j), normalized=True)


def test_symbol_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    m = SymbolMatrix(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    path = tmp_path / "s.json"
    store_symbol_matrix(m, path)
    back = load_symbol_matrix(path)
    assert back.shape == (5, 3)
    np.testing.assert_array_equal(back.values, m.values)


def test_symbol_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_symbol_matrix(bad)
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({"n_rows": 2, "n_cols": 2, "data": [1.0, 2.0]}))
    with pytest.raises(ValueError):
        load_symbol_matrix(mismatch)
    # dimensions are integers >= 1: no rounding, no bools, no strings
    dims = tmp_path / "dims.json"
    for name in ("n_rows", "n_cols"):
        for value in (1.5, 1.0, True, "1", 0, -1, None):
            payload = {"n_rows": 1, "n_cols": 1, "data": [1.0, 0.0], name: value}
            dims.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                load_symbol_matrix(dims)
    dims.write_text(json.dumps({"n_rows": 1, "n_cols": 0, "data": []}))
    with pytest.raises(ValueError, match="n_cols must be an integer >= 1"):
        load_symbol_matrix(dims)
