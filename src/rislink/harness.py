"""Configuration-driven experiment harness: scene construction, codeword
selection sweeps over active-element ratio x phase-quantization precision,
baseline transmission runs, and deterministic CSV emission.

Per-point seeds derive from (master seed, ratio index, quantization index,
method index) so any subset of the sweep reproduces identical records
regardless of execution order or parallelism.
"""

import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import coding, metrics
from .channel import (
    SPEED_OF_LIGHT,
    ChannelMatrix,
    PathLossModel,
    cascaded_los_coefficients,
    los_channel,
    wavelength,
)
from .geometry import PlanarArray, facing_array, orthonormal_frame, unit
from .link import (
    LinkBudget,
    dbm_to_watts,
    receive_bits,
    snr,
    snr_linear,
    steering_precoder,
    transmit,
)
from .ris import Codebook, _check_bits, _configuration, _select_rows, active_mask, build_codebook


def _is_real(x) -> bool:
    """A number that is neither a bool, NaN nor an int beyond the float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool) and x == x
            and (isinstance(x, float) or abs(x) <= sys.float_info.max))


def _is_finite(x) -> bool:
    return _is_real(x) and abs(x) < math.inf


def _is_count(x, least: int = 1) -> bool:
    return isinstance(x, int) and _is_real(x) and x >= least


def _is_list(value, item, n=None) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == (n or len(value))
            and all(map(item, value)))


def _require(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass
class ArraySpec:
    center: list
    rows: int = 1
    cols: int = 1
    spacing: float | None = None  # None -> half a carrier wavelength
    normal: list | None = None  # None -> default orientation rule

    def __post_init__(self):
        _require(_is_list(self.center, _is_finite, 3), "center", "3 finite numbers", self.center)
        _require(_is_count(self.rows) and _is_count(self.cols),
                 "rows and cols", "positive integers", (self.rows, self.cols))
        _require(self.spacing is None or _is_finite(self.spacing) and self.spacing > 0,
                 "spacing", "a positive finite number", self.spacing)
        _require(self.normal is None or _is_list(self.normal, _is_finite, 3),
                 "normal", "3 finite numbers", self.normal)
        if self.normal is not None:
            try:
                unit(self.normal)
            except ValueError as exc:
                raise ValueError(f"normal: {exc}") from None


@dataclass
class ExperimentConfig:
    """Defaults reproduce the reference scene: 10x10 tx at [0,10,0],
    single-antenna rx at [10,15,0], 40x40 RIS at [10,0,0], lambda/2 spacing,
    28 GHz carrier, 0.1 W transmit power, -120 dBm noise, path-loss
    exponent 4."""

    tx: ArraySpec = field(default_factory=lambda: ArraySpec([0.0, 10.0, 0.0], 10, 10))
    rx: ArraySpec = field(default_factory=lambda: ArraySpec([10.0, 15.0, 0.0], 1, 1))
    ris: ArraySpec = field(default_factory=lambda: ArraySpec([10.0, 0.0, 0.0], 40, 40))
    frequency_hz: float = 28e9
    p_tx_w: float = 0.1
    noise_dbm: float = -120.0
    path_loss_exponent: float = 4.0
    codebook_grid: tuple = (72, 18)
    ratios: list = field(default_factory=lambda: [round(0.05 * k, 2) for k in range(1, 21)])
    quantizations: list = field(default_factory=lambda: [1, 2, None])
    master_seed: int = 0
    corpus_path: str | None = None
    symbol_matrix_path: str | None = None
    baselines: list = field(default_factory=lambda: ["huffman", "sixbit"])
    modulation: str = "qpsk"
    max_bleu: float = 0.6
    output_path: str = "sweep.csv"
    received_matrix_dir: str | None = None

    def __post_init__(self):
        """Type and range checks; every violation raises ValueError."""
        for name in ("tx", "rx", "ris"):
            value = getattr(self, name)
            try:  # an ArraySpec is checked again: a field assigned after it was built
                value = (ArraySpec(**value) if isinstance(value, dict)
                         else replace(value) if isinstance(value, ArraySpec) else value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
            _require(isinstance(value, ArraySpec), name, "an array spec object", value)
            setattr(self, name, value)
        for name in ("frequency_hz", "p_tx_w", "noise_dbm", "path_loss_exponent"):
            _require(_is_real(getattr(self, name)), name, "a number", getattr(self, name))
        for name in ("frequency_hz", "p_tx_w"):
            _require(0 < getattr(self, name) < math.inf,
                     name, "a positive finite number", getattr(self, name))
        _require(SPEED_OF_LIGHT / self.frequency_hz < math.inf, "frequency_hz",
                 "large enough that the wavelength c/f is finite", self.frequency_hz)
        _require(self.noise_dbm < math.inf,  # -inf is the noiseless override
                 "noise_dbm", "finite or -Infinity", self.noise_dbm)
        metrics.check_max_bleu(self.max_bleu, "max_bleu")
        _require(_is_count(self.master_seed, 0),
                 "master_seed", "a non-negative integer", self.master_seed)
        _require(_is_list(self.codebook_grid, _is_count, 2),
                 "codebook_grid", "two positive integers", self.codebook_grid)
        self.codebook_grid = tuple(self.codebook_grid)
        _require(self.ratios and _is_list(self.ratios, lambda r: _is_real(r) and 0.0 < r <= 1.0),
                 "ratios", "a non-empty list of numbers in (0, 1]", self.ratios)
        if any(a >= b for a, b in zip(self.ratios, self.ratios[1:])):
            raise ValueError("ratios must be strictly ascending")
        q = self.quantizations
        # a list that is empty, holds other than counts and nulls, or repeats one fails as 0 does
        ok = q and _is_list(q, lambda b: b is None or isinstance(b, int)) and len(set(q)) == len(q)
        for b in q if ok else [0]:
            _check_bits(b, "quantizations", "null", q, "a non-empty list of distinct bit counts")
        _require(isinstance(self.modulation, str) and self.modulation in coding.MODULATIONS,
                 "modulation", f"one of {sorted(coding.MODULATIONS)}", self.modulation)
        _require(_is_list(self.baselines, lambda b: b in ("huffman", "sixbit")),
                 "baselines", 'a list of "huffman" and "sixbit"', self.baselines)
        for name in ("corpus_path", "symbol_matrix_path", "received_matrix_dir", "output_path"):
            value = getattr(self, name)
            _require(isinstance(value, str) or value is None and name != "output_path",
                     name, "a path string", value)
        _require(self.received_matrix_dir is None or self.symbol_matrix_path is not None,
                 "received_matrix_dir", "null unless symbol_matrix_path is set",
                 self.received_matrix_dir)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        payload = coding.read_json(path, "config")
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


class Scene:
    """A config's arrays, link budget, codebook and per-element cascaded
    coefficients c_i under the budget's weights, which are all a sweep
    reads. The two channel matrices are built from the arrays on first
    access."""

    def __init__(self, tx: PlanarArray, rx: PlanarArray, ris: PlanarArray, budget: LinkBudget,
                 path_loss: PathLossModel, codebook: Codebook, coefficients: np.ndarray):
        self.tx, self.rx, self.ris, self.budget = tx, rx, ris, budget
        self.path_loss, self.codebook, self.coefficients = path_loss, codebook, coefficients

    @cached_property
    def h_ris_tx(self) -> ChannelMatrix:
        return los_channel(self.tx, self.ris, self.codebook.wavelength, self.path_loss)

    @cached_property
    def h_rx_ris(self) -> ChannelMatrix:
        return los_channel(self.ris, self.rx, self.codebook.wavelength, self.path_loss)


# The largest |coordinate|, in m, of any array element: two points within it
# differ by at most 2L per axis, so every squared distance the scene takes,
# at most 3 * (2L)^2, is a finite float.
_MAX_COORDINATE = math.sqrt(sys.float_info.max / 12.0)


def _build_array(spec: ArraySpec, default_spacing: float, default_toward) -> PlanarArray:
    spacing = spec.spacing if spec.spacing is not None else default_spacing
    if spec.normal is not None:
        return PlanarArray(np.asarray(spec.center, float), spec.rows, spec.cols, spacing,
                           *orthonormal_frame(spec.normal))
    return facing_array(spec.center, spec.rows, spec.cols, spacing, default_toward)


def build_scene(cfg: ExperimentConfig) -> Scene:
    """Arrays, precoders, the codebook and the cascaded coefficients for a
    config.

    Default orientations: tx faces the RIS; the RIS faces the midpoint of tx
    and rx (both links in its front half-space); rx faces the RIS.
    """
    lam = wavelength(cfg.frequency_hz)
    spacing = lam / 2.0
    for name in ("tx", "rx", "ris"):
        spec = getattr(cfg, name)
        pitch = spec.spacing if spec.spacing is not None else spacing
        # an element lies at most pitch * ((rows - 1) + (cols - 1)) / 2 from
        # the center on each axis, since the array's axes are unit vectors
        offset = max(map(abs, spec.center))
        reach = offset + pitch * (spec.rows + spec.cols - 2) / 2.0
        if not reach <= _MAX_COORDINATE:
            # a center in range at the default spacing: the wavelength is too long
            _require(spec.spacing is not None or offset > _MAX_COORDINATE, "frequency_hz",
                     f"large enough that {name}'s elements lie within {_MAX_COORDINATE:.3g} m "
                     "of the origin at half-wavelength spacing", cfg.frequency_hz)
            raise ValueError(f"{name}: every element must lie within {_MAX_COORDINATE:.3g} m "
                             f"of the origin on each axis, got center {spec.center!r} "
                             f"with spacing {pitch!r}")
    tx_center = np.asarray(cfg.tx.center, float)
    rx_center = np.asarray(cfg.rx.center, float)
    ris_center = np.asarray(cfg.ris.center, float)
    midpoint = (tx_center + rx_center) / 2.0
    for name, center in (("tx", tx_center), ("rx", rx_center)):
        _require((center != ris_center).any(), f"{name}.center", "apart from ris.center",
                 getattr(cfg, name).center)
    _require(cfg.ris.normal is not None or (midpoint != ris_center).any(), "ris.center",
             "apart from the midpoint of tx and rx when ris.normal is null", cfg.ris.center)

    tx = _build_array(cfg.tx, spacing, ris_center)
    rx = _build_array(cfg.rx, spacing, ris_center)
    ris = _build_array(cfg.ris, spacing, midpoint)

    pl = PathLossModel(cfg.path_loss_exponent)
    w_tx = steering_precoder(tx, ris.center, lam)
    w_rx = steering_precoder(rx, ris.center, lam)
    budget = LinkBudget(cfg.p_tx_w, dbm_to_watts(cfg.noise_dbm), w_tx, w_rx)

    incident = unit(tx.center - ris.center)
    cb = build_codebook(ris, incident, cfg.codebook_grid, lam)
    c = cascaded_los_coefficients(tx, ris, rx, lam, pl, w_tx, w_rx)
    return Scene(tx, rx, ris, budget, pl, cb, c)


@dataclass(frozen=True)
class SweepRecord:
    """One CSV row; the CSV columns are these fields, in this order."""

    ratio: float
    bits: int | None
    codeword: int
    snr_db: float
    method: str
    ber: float | None
    char_err: float | None
    bleu: float | None
    rel_bleu: float | None
    seed: int


# (name, text written for None) of each SweepRecord field: "none" for
# continuous phases, an empty cell for a metric that does not apply
_COLUMNS = [(f.name, "none" if f.name == "bits" else "") for f in fields(SweepRecord)]


# numpy.random.SeedSequence's hash constants and pool size (M. E. O'Neill's
# seed_seq design, numpy/random/bit_generator.pyx), whose output numpy keeps
# stable (NEP 19)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def derive_seeds(master_seed: int, shape) -> np.ndarray:
    """SeedSequence([master_seed, *index]).generate_state(1)[0] at every
    index of an array of `shape`, all in one pass: stable per-point seeds,
    independent of execution order. The entropy words (the master seed's
    32-bit words, least significant first, then the index) are hashed into
    the pool and mixed as SeedSequence does, on Python ints for the master
    seed's words and uint64 lanes for the index's, each step masked to 32
    bits; the hash constants follow the same chain for every index."""
    _require(master_seed >= 0, "master_seed", "a non-negative integer", master_seed)
    words = [master_seed >> s & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    entropy = words + list(np.indices(shape, dtype=np.uint64))
    entropy += [0] * (_POOL - len(entropy))  # a short entropy is hashed out with zeros
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    value = (pool[0] ^ _INIT_B) * (_INIT_B * _MULT_B & _MASK32) & _MASK32
    return np.asarray(value ^ value >> 16, dtype=np.uint32)


def _configure_ratios(scene: Scene, ratios, quantizations,
                      quantize_before_select: bool) -> list:
    """For each ratio, the (codeword index, gain) of each entry of
    `quantizations`. The default order follows the evaluated protocol: one
    selection on continuous phases, whose winner each entry then quantizes.
    The quantize-before-select alternative re-ranks the codebook on
    quantized gains for every entry (a stronger, non-default scheme). Each
    selection scores the codebook under every ratio's mask in one pass, so
    the codebook is scored once per selection depth. No configuration is
    built: configure_point builds its one from the index."""
    masks = [active_mask(scene.ris, ratio) for ratio in ratios]

    def select(bits, applied):
        return _select_rows(scene.codebook, scene.coefficients, masks, bits, applied)

    if quantize_before_select:
        by_bits = [select(bits, [bits]) for bits in quantizations]
        return [[point for [point] in points] for points in zip(*by_bits)]
    return select(None, quantizations)


def configure_point(scene: Scene, ratio: float, bits: int | None,
                    quantize_before_select: bool = False):
    """(codeword index, applied configuration, linear SNR) at one sweep
    point, as a sweep selects it (see _configure_ratios); scores the codebook
    once."""
    [[(idx, g)]] = _configure_ratios(scene, [ratio], [bits], quantize_before_select)
    cfg = _configuration(scene.codebook, idx, active_mask(scene.ris, ratio), bits)
    return idx, cfg, snr_linear(g, scene.budget)


class _Layout:
    """A corpus's sentences laid out as one row of bits, each padded with zero
    bits to whole symbols on its own: `sent` is the padded bits of every
    sentence in turn, the layout of a received row, where sentence k spans
    starts[k]:starts[k] + sizes[k] and its pad follows; `runs` holds each
    sentence's size and then its pad's, in turn, and `inside` is 1 on each
    sentence's bits and 0 on its pad."""

    def __init__(self, encoded: list, modulation: str):
        self.sizes = np.array([bits.size for bits in encoded], dtype=np.intp)
        pads = -self.sizes % coding.BITS_PER_SYMBOL[modulation]
        self.starts = np.cumsum(self.sizes + pads) - self.sizes - pads
        self.runs = np.column_stack((self.sizes, pads)).ravel()
        self.inside = np.repeat(np.tile(np.uint8([1, 0]), self.sizes.size), self.runs)
        self.sent = np.concatenate([part for bits, pad in zip(encoded, pads.tolist())
                                    for part in (bits, np.zeros(pad, dtype=np.uint8))])


class _Corpus:
    """One method's corpus of `count` sentences. The method decodes to
    indices into `alphabet` (see decode); `code` is None for the fixed 6-bit
    code, which sends the sentences folded into its alphabet. Everything
    else is built on first use: `sentences`, as the method sends them, and
    their bit `layout` (see _Layout), which run_sweep builds on its calling
    thread before any row is sent, and only when its `drawn` table marks
    some row (see _send_rows); the sentences' BLEU references, tokenized
    and counted once, in `references`, with `tokenizer` reading the same
    tokens off symbol indices, and their edit-distance lanes, in `edits`,
    with `columns` the peq column of each alphabet symbol. Those four are
    built only in _score_rows, on the calling thread, when some row has a
    bit error. So a sweep in which no row is drawn neither folds nor
    encodes a sentence, and a worker thread only reads what is built."""

    def __init__(self, name: str, sentences: list, code: coding.HuffmanCode | None,
                 modulation: str):
        self.name, self.code, self.modulation = name, code, modulation
        self.count = len(sentences)
        self._read = sentences
        # a Huffman code built from character counts has one character per symbol
        self.alphabet = coding.SIXBIT_ALPHABET if code is None else "".join(code.symbols)

    @cached_property
    def sentences(self) -> list:
        if self.code is None:
            return [coding.sixbit_fold(s) for s in self._read]
        return self._read

    @cached_property
    def layout(self) -> _Layout:
        if self.code is None:
            encoded = [coding.sixbit_encode_folded(s) for s in self.sentences]
        else:
            encoded = [coding.huffman_encode(s, self.code) for s in self.sentences]
        return _Layout(encoded, self.modulation)

    @cached_property
    def references(self) -> metrics.BleuReferences:
        return metrics.BleuReferences(map(metrics.tokenize, self.sentences))

    @cached_property
    def tokenizer(self) -> metrics.SymbolTokenizer:
        return metrics.SymbolTokenizer(self.alphabet, self.references.vocabulary)

    @cached_property
    def edits(self) -> metrics.EditReferences:
        return metrics.EditReferences(self.sentences)

    @cached_property
    def columns(self) -> np.ndarray:
        return self.edits.columns(self.alphabet)

    def decode(self, bits: np.ndarray, sizes: np.ndarray):
        """The symbol indices of bit streams of sizes[k] bits given end to
        end, stream after stream, and the number of symbols of each. Every
        sixbit stream is whole 6-bit groups."""
        if self.code is None:
            return coding.sixbit_decode_indices(bits), sizes // 6
        return coding.huffman_decode_indices(bits, sizes, self.code)


# The linear SNR (60 dB) at and above which a corpus row is not drawn: the
# 16-QAM margin 1/sqrt(10) is sqrt(SNR/5) ~ 447 sigma, so every chance that
# link.receive_bits crosses a threshold is exactly 0.0: the row arrives as sent.
ERROR_FREE_SNR = 1e6


def _send_rows(budget, gains, drawn, corpus, seeds):
    """Send one method's corpus at several gains, the first stage of its
    rows. Each gain is a row. A row that `drawn` marks (see ERROR_FREE_SNR)
    draws the hard decisions of the corpus's bits in one link.receive_bits
    call from its seed (a zero gain is a "link outage" error); any other row
    arrives as sent, and the layout is read only if some row is drawn. One
    masked np.add.reduceat over the block of drawn rows counts their bit
    errors per sentence, pads left out, and one boolean mask gathers their
    errored sentences' bits, decoded end to end in one call. Returns the
    (rows, sentences) bit error rates and, unless no sentence has a bit
    error, the errored sentences for _score_rows: their flat positions in the
    bit error rates, row after row, their symbol indices end to end and the
    number of symbols of each, the positions and counts in small unsigned types."""
    bers = np.zeros((len(gains), corpus.count))
    if not any(drawn):
        return bers, None
    layout = corpus.layout
    block = np.array([receive_bits(layout.sent, corpus.modulation, g, budget, seed)
                      for g, seed, draw in zip(gains, seeds, drawn) if draw])
    # reduceat sums from each start to the next, a sentence and its pad, as
    # the starts ascend strictly: load_sentences keeps only non-blank lines,
    # and both codes spend at least one bit per character. No count exceeds
    # its sentence's size, the type it is summed in.
    errors = np.add.reduceat((block ^ layout.sent) & layout.inside, layout.starts, axis=1,
                             dtype=np.min_scalar_type(layout.sizes.max()))
    bers[np.flatnonzero(drawn)] = errors / layout.sizes
    positions = np.flatnonzero(bers)  # row after row, each row's sentences in order
    if not positions.size:
        return bers, None
    # each drawn row as runs: each sentence's bits, then its pad
    keep = np.zeros((block.shape[0], layout.runs.size), dtype=bool)
    keep[:, ::2] = errors != 0
    codes, counts = corpus.decode(block[np.repeat(keep, layout.runs, axis=1)],
                                  layout.sizes[positions % corpus.count])
    # a type that holds bers.size holds the sentence count too, which
    # _score_rows divides the positions by
    return bers, (positions.astype(np.min_scalar_type(bers.size)), codes,
                  counts.astype(np.min_scalar_type(counts.max())))


# The most errored sentences that one tokenizing or BLEU call scores. Each
# call is a Python loop of numpy steps, so a larger chunk pays that overhead
# fewer times, but its arrays, and a sweep's peak RSS, grow with it
# (CHANGES.md holds the measured table).
SCORE_LANES = 600


def _score_rows(corpus, sent, max_bleu) -> list:
    """Score one method's rows at every ratio, the second stage of its rows,
    from each ratio's _send_rows result in `sent`. A sentence that arrived
    without a bit error decodes to itself (both codes round-trip every
    sentence), so it scores char_err 0 and BLEU 1 undecoded. The errored
    sentences of every ratio are taken end to end and scored from their
    symbol indices, with no per-sentence or per-token string: their edit
    distances in one call, whose lanes step together, and their BLEU scores
    SCORE_LANES sentences at a time, one tokenizing and one BLEU call per
    chunk. A score is a sentence's own, so neither the grouping nor the
    chunks change any. Returns, for each ratio, each row's corpus means
    (ber, char_err, bleu, rel_bleu), taken over the (ratios, rows,
    sentences) arrays of all ratios in one call each."""
    bers = np.array([ratio_bers for ratio_bers, _ in sent])
    char_errs = np.zeros(bers.shape)
    bleus = np.ones(bers.shape)
    errored = [(r, rows) for r, (_, rows) in enumerate(sent) if rows is not None]
    if errored:
        # each errored sentence's flat position in the (ratios, rows, sentences) arrays
        at = np.concatenate([r * bers[0].size + positions.astype(np.intp)
                             for r, (positions, _, _) in errored])
        indices = at % corpus.count
        counts = np.concatenate([ratio_counts for _, (_, _, ratio_counts) in errored])
        codes = [ratio_codes for _, (_, ratio_codes, _) in errored]
        char_err = corpus.edits.char_error_rates(
            indices, np.concatenate([corpus.columns[part] for part in codes]), counts)
        # the symbol indices stay in their ratios' arrays: each chunk gathers
        # its own, from where its sentences' and each ratio's symbols start
        ends = np.cumsum(counts)
        offsets = np.cumsum([0] + [part.size for part in codes[:-1]]).tolist()
        bleu = np.empty(indices.size)
        for a in range(0, indices.size, SCORE_LANES):
            b = min(a + SCORE_LANES, indices.size)
            first, last = int(ends[a] - counts[a]), int(ends[b - 1])
            chunk = np.concatenate([part[max(first - start, 0) : max(last - start, 0)]
                                    for part, start in zip(codes, offsets)])
            bleu[a:b] = corpus.references.flat_scores(
                indices[a:b], corpus.tokenizer.flatten(chunk, counts[a:b]))
        char_errs.flat[at] = char_err
        bleus.flat[at] = bleu
    means = [x.mean(axis=2) for x in (bers, char_errs, bleus)]
    rows = np.stack((*means, means[2] / max_bleu), axis=-1).tolist()
    return [list(map(tuple, ratio_rows)) for ratio_rows in rows]


def load_sentences(path) -> list:
    """The non-blank lines of a text file, one sentence each."""
    sentences = [line for line in coding.read_text(path).split("\n") if line.strip()]
    if not sentences:
        raise ValueError(f"{path}: file has no sentences")
    return sentences


def _prepare_methods(cfg: ExperimentConfig):
    """Per-method corpora (see _Corpus) and the semantic matrix when given.
    The sentences are read and the Huffman code is built from the evaluation
    corpus itself here, so a corpus no code can be built from fails before
    any row is sent; the sixbit route folds the corpus into its 64-character
    alphabet, and each route encodes it, only when its layout is first
    needed."""
    methods = []
    if cfg.corpus_path is not None:
        sentences = load_sentences(cfg.corpus_path)
        if "huffman" in cfg.baselines:
            code = coding.huffman_build(coding.huffman_frequencies(sentences))
            methods.append(_Corpus("huffman", sentences, code, cfg.modulation))
        if "sixbit" in cfg.baselines:
            methods.append(_Corpus("sixbit", sentences, None, cfg.modulation))
    if cfg.symbol_matrix_path is None:
        return methods, None
    return methods, coding.normalize_rows(coding.load_symbol_matrix(cfg.symbol_matrix_path))


def run_sweep(cfg: ExperimentConfig, jobs: int = 1,
              quantize_before_select: bool = False) -> list:
    """Full sweep over ratios x quantizations x methods. The output path
    (and `received_matrix_dir`, when set) is checked first, so a bad one
    fails before any work. Every ratio's codeword is selected next (see
    _configure_ratios), before the inputs are read, so that selection, the
    sweep's largest working set, does not hold them. Every point's seed is
    derived in one derive_seeds call, and its SNR taken once, which decides,
    once, whether its corpus rows are drawn (an SNR below ERROR_FREE_SNR):
    every _send_rows call reads that `drawn` table. Only if it marks some
    row does each corpus build its layout, here on the calling thread: a
    sweep at the default floor never encodes a sentence. Then the
    transmission runs one task per ratio, on `jobs` threads: each task draws
    the hard decisions of its quantizations' rows of a corpus method in one
    _send_rows call, which also decodes their errored sentences. After every
    task has ended, each corpus method's errored sentences of all ratios are
    scored on the calling thread, their edit distances in one call and their
    BLEU scores in chunks of SCORE_LANES sentences (see _score_rows), so
    `jobs` does not parallelize scoring, and only this thread builds a
    corpus's scoring tables. The semantic matrix is transmitted only when
    `received_matrix_dir` is set, since no record field reads it. Records
    come in (ratio, quantization, method) order and are deterministic for a
    given master seed regardless of `jobs`; the CSV is written
    atomically. The sweep runs on a copy of `cfg` that has passed every
    check again, so a field assigned after construction is held to the
    same rules."""
    cfg = replace(cfg)
    _require(_is_count(jobs), "jobs", "an integer >= 1", jobs)
    path = cfg.output_path
    _require(os.path.basename(path) and not os.path.isdir(path)
             and os.path.isdir(os.path.dirname(os.path.abspath(path))),
             "output_path", "a file name in an existing directory", path)
    _require(cfg.received_matrix_dir is None or os.path.isdir(cfg.received_matrix_dir),
             "received_matrix_dir", "an existing directory", cfg.received_matrix_dir)
    scene = build_scene(cfg)
    configured = _configure_ratios(scene, cfg.ratios, cfg.quantizations,
                                   quantize_before_select)
    methods, semantic = _prepare_methods(cfg)
    method_names = [c.name for c in methods] + (["semantic"] if semantic is not None else [])
    if not method_names:
        raise ValueError("config provides no input source: nothing to sweep")
    # seeds[i][k][j]: method k's seed at ratio i, quantization j
    seeds = derive_seeds(cfg.master_seed, (len(cfg.ratios), len(cfg.quantizations),
                                           len(method_names))).transpose(0, 2, 1).tolist()
    # snrs[i][j]: the (linear, dB) SNR at ratio i, quantization j; raises on
    # overflow, before any draw. drawn[i][j]: whether that point's corpus
    # rows are drawn; the linear SNR is 0 for a zero gain, inf when noiseless
    snrs = [[snr(g, scene.budget) for _, g in points] for points in configured]
    drawn = [[linear < ERROR_FREE_SNR for linear, _ in row] for row in snrs]
    if methods and any(map(any, drawn)):
        for corpus in methods:
            corpus.layout  # built here, so that the worker threads only read it

    def send_ratio(i):
        gains = [g for _, g in configured[i]]
        rows = [_send_rows(scene.budget, gains, drawn[i], corpus, seeds[i][k])
                for k, corpus in enumerate(methods)]
        if cfg.received_matrix_dir is not None:
            # no record field reads the received matrix: draw it only to store it
            for bits, g, seed in zip(cfg.quantizations, gains, seeds[i][-1]):
                out = f"semantic_r{cfg.ratios[i]}_b{'none' if bits is None else bits}.json"
                coding.store_symbol_matrix(transmit(semantic, g, scene.budget, seed),
                                           os.path.join(cfg.received_matrix_dir, out))
        return rows

    if jobs > 1:
        # imported here: it loads logging, which a jobs=1 run need not pay for
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            sent = list(pool.map(send_ratio, range(len(cfg.ratios))))
    else:
        sent = [send_ratio(i) for i in range(len(cfg.ratios))]
    # scores[k][i][j]: method k's record fields at ratio i, quantization j
    scores = [_score_rows(corpus, [rows[k] for rows in sent], cfg.max_bleu)
              for k, corpus in enumerate(methods)]
    if semantic is not None:
        scores.append([[(None, None, None, None)] * len(cfg.quantizations)] * len(cfg.ratios))
    records = [SweepRecord(ratio, bits, idx, snr_db, name, *scores[k][i][j], seeds[i][k][j])
               for i, (ratio, points, ratio_snrs) in enumerate(zip(cfg.ratios, configured, snrs))
               for j, (bits, (idx, _), (_, snr_db)) in enumerate(
                   zip(cfg.quantizations, points, ratio_snrs))
               for k, name in enumerate(method_names)]
    write_records(records, cfg.output_path)
    return records


def _format_cell(value, none) -> str:
    if value is None:
        return none
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip form
    return str(value)


def write_records(records, path) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([name for name, _ in _COLUMNS])
            for r in records:
                writer.writerow([_format_cell(getattr(r, name), none) for name, none in _COLUMNS])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
