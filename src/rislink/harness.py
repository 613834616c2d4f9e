"""Configuration-driven experiment harness: scene construction, codeword
selection sweeps over active-element ratio x phase-quantization precision,
baseline transmission runs, and deterministic CSV emission.

Per-point seeds derive from (master seed, ratio index, quantization index,
method index) so any subset of the sweep reproduces identical records
regardless of execution order or parallelism.
"""

import csv
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import get_args

import numpy as np

from . import coding, metrics
from .channel import PathLossModel, los_channel, wavelength
from .geometry import PlanarArray, facing_array, orthonormal_frame, unit
from .link import (
    LinkBudget,
    dbm_to_watts,
    equalize,
    snr,
    snr_linear,
    steering_precoder,
    transmit_with_rng,
)
from .ris import (
    Codebook,
    active_mask,
    build_codebook,
    cascaded_coefficients,
    quantize_phases,
    select_codeword,
)


def _is_real(x) -> bool:
    """A number that is neither a bool nor NaN."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x == x


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
        _require(_is_list(self.center, _is_real, 3), "center", "3 numbers", self.center)
        _require(_is_count(self.rows) and _is_count(self.cols),
                 "rows and cols", "positive integers", (self.rows, self.cols))
        _require(self.spacing is None or _is_real(self.spacing) and self.spacing > 0,
                 "spacing", "a positive number", self.spacing)
        _require(self.normal is None or _is_list(self.normal, _is_real, 3),
                 "normal", "3 numbers", self.normal)


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
            try:
                value = ArraySpec(**value) if isinstance(value, dict) else value
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
            _require(isinstance(value, ArraySpec), name, "an array spec object", value)
            setattr(self, name, value)
        for name in ("frequency_hz", "p_tx_w", "noise_dbm", "path_loss_exponent"):
            _require(_is_real(getattr(self, name)), name, "a number", getattr(self, name))
        _require(_is_real(self.max_bleu) and self.max_bleu > 0,
                 "max_bleu", "a positive number", self.max_bleu)
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
        _require(q and _is_list(q, lambda b: b is None or _is_count(b)) and len(set(q)) == len(q),
                 "quantizations", "a non-empty list of distinct bit counts or null", q)
        _require(isinstance(self.modulation, str) and self.modulation in coding.MODULATIONS,
                 "modulation", f"one of {sorted(coding.MODULATIONS)}", self.modulation)
        _require(_is_list(self.baselines, lambda b: b in ("huffman", "sixbit")),
                 "baselines", 'a list of "huffman" and "sixbit"', self.baselines)
        for name in ("corpus_path", "symbol_matrix_path", "received_matrix_dir", "output_path"):
            value = getattr(self, name)
            _require(isinstance(value, str) or value is None and name != "output_path",
                     name, "a path string", value)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            try:
                payload = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed config: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self, path=None) -> str:
        text = json.dumps(asdict(self), indent=2)
        if path is not None:
            with open(path, "w") as f:
                f.write(text + "\n")
        return text


@dataclass(frozen=True)
class Scene:
    tx: PlanarArray
    rx: PlanarArray
    ris: PlanarArray
    budget: LinkBudget
    h_ris_tx: object
    h_rx_ris: object
    codebook: Codebook
    coefficients: np.ndarray  # cascaded per-element c_i under the scene's weights


def _build_array(spec: ArraySpec, default_spacing: float, default_toward) -> PlanarArray:
    spacing = spec.spacing if spec.spacing is not None else default_spacing
    if spec.normal is not None:
        return PlanarArray(np.asarray(spec.center, float), spec.rows, spec.cols, spacing,
                           *orthonormal_frame(spec.normal))
    return facing_array(spec.center, spec.rows, spec.cols, spacing, default_toward)


def build_scene(cfg: ExperimentConfig) -> Scene:
    """Arrays, channels, precoders, and the codebook for a config.

    Default orientations: tx faces the RIS; the RIS faces the midpoint of tx
    and rx (both links in its front half-space); rx faces the RIS.
    """
    lam = wavelength(cfg.frequency_hz)
    spacing = lam / 2.0
    tx_center = np.asarray(cfg.tx.center, float)
    rx_center = np.asarray(cfg.rx.center, float)
    ris_center = np.asarray(cfg.ris.center, float)
    midpoint = (tx_center + rx_center) / 2.0

    tx = _build_array(cfg.tx, spacing, ris_center)
    rx = _build_array(cfg.rx, spacing, ris_center)
    ris = _build_array(cfg.ris, spacing, midpoint)

    pl = PathLossModel(cfg.path_loss_exponent)
    h_ris_tx = los_channel(tx, ris, lam, pl)
    h_rx_ris = los_channel(ris, rx, lam, pl)

    w_tx = steering_precoder(tx, ris.center, lam)
    w_rx = steering_precoder(rx, ris.center, lam)
    budget = LinkBudget(cfg.p_tx_w, dbm_to_watts(cfg.noise_dbm), w_tx, w_rx)

    incident = unit(tx.center - ris.center)
    cb = build_codebook(ris, incident, cfg.codebook_grid, lam)
    c = cascaded_coefficients(h_ris_tx, h_rx_ris, w_tx, w_rx)
    return Scene(tx, rx, ris, budget, h_ris_tx, h_rx_ris, cb, c)


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


def _column(f) -> tuple:
    """(name, parser, text written for None) of one SweepRecord field. An
    optional int (bits) writes None as "none", an optional float as an empty
    cell; a required field has no None text."""
    parse, *optional = get_args(f.type) or (f.type,)
    none = ("none" if parse is int else "") if optional else None
    return f.name, parse, none


_COLUMNS = [_column(f) for f in fields(SweepRecord)]
CSV_COLUMNS = [name for name, _, _ in _COLUMNS]


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-point seed; independent of execution order."""
    return int(np.random.SeedSequence([master_seed, *indices]).generate_state(1)[0])


def _configure_ratio(scene: Scene, ratio: float, quantizations,
                     quantize_before_select: bool) -> list:
    """(codeword index, applied configuration) for each entry of
    `quantizations` at one ratio. The default order follows the evaluated
    protocol: one selection on continuous phases, whose winner each entry
    then quantizes. The quantize-before-select alternative re-ranks the
    codebook on quantized gains for every entry (a stronger, non-default
    scheme)."""
    mask = active_mask(scene.ris, ratio)

    def select(bits):
        return select_codeword(
            scene.codebook, scene.h_ris_tx, scene.h_rx_ris, scene.budget, mask, bits
        )[:2]

    if quantize_before_select:
        return [select(bits) for bits in quantizations]
    idx, continuous = select(None)
    return [(idx, continuous if bits is None else quantize_phases(continuous, bits))
            for bits in quantizations]


def configure_point(scene: Scene, ratio: float, bits: int | None,
                    quantize_before_select: bool = False):
    """(codeword index, applied configuration, linear SNR) at one sweep
    point, as a sweep selects it (see _configure_ratio); scores the codebook
    once."""
    idx, cfg = _configure_ratio(scene, ratio, [bits], quantize_before_select)[0]
    return idx, cfg, snr_linear(cfg.gain(scene.coefficients), scene.budget)


def _corpus_pipeline(scene, g, corpus, modulation, rng, max_bleu):
    """Send one method's whole corpus through the scalar channel in a single
    transmission, then demodulate, decode and score each sentence and
    average the text metrics over the corpus."""
    _, sentences, encoded, decoder, symbols, bounds = corpus
    demodulate = coding.MODULATIONS[modulation][1]
    received = transmit_with_rng(symbols, g, scene.budget, rng)
    equalized = equalize(received, g, scene.budget.p_tx).values[0]
    bers, char_errs, bleus = [], [], []
    for sentence, bits, start, stop in zip(sentences, encoded, bounds, bounds[1:]):
        recovered_bits = demodulate(equalized[start:stop], n_bits=bits.size)
        decoded = decoder(recovered_bits)
        bers.append(metrics.bit_error_rate(bits, recovered_bits))
        char_errs.append(metrics.char_error_rate(sentence, decoded))
        bleus.append(metrics.bleu(metrics.tokenize(decoded), metrics.tokenize(sentence)))
    mean_bleu = float(np.mean(bleus))
    return (
        float(np.mean(bers)),
        float(np.mean(char_errs)),
        mean_bleu,
        mean_bleu / max_bleu,
    )


def _prepare_methods(cfg: ExperimentConfig):
    """Per-method corpora (name, sentences, bits, decoder, symbols, bounds),
    modulated once into one symbol row where sentence k spans
    bounds[k]:bounds[k + 1], and the semantic matrix when given. Huffman
    frequencies come from the evaluation corpus itself; the sixbit route
    folds the corpus into its 64-character alphabet first."""
    modulate = coding.MODULATIONS[cfg.modulation][0]

    def corpus(name, sentences, encoded, decoder):
        rows = [modulate(bits)[0] for bits in encoded]
        bounds = np.cumsum([0] + [row.size for row in rows])
        symbols = coding.SymbolMatrix(np.concatenate(rows).reshape(1, -1))
        return name, sentences, encoded, decoder, symbols, bounds

    methods = []
    if cfg.corpus_path is not None:
        with open(cfg.corpus_path) as f:
            sentences = [line.rstrip("\n") for line in f if line.strip()]
        if not sentences:
            raise ValueError(f"{cfg.corpus_path}: corpus has no sentences")
        if "huffman" in cfg.baselines:
            code = coding.huffman_build(coding.huffman_frequencies(sentences))
            encoded = [coding.huffman_encode(s, code) for s in sentences]
            methods.append(corpus(
                "huffman", sentences, encoded, lambda bits, c=code: coding.huffman_decode(bits, c)
            ))
        if "sixbit" in cfg.baselines:
            folded = [coding.sixbit_fold(s) for s in sentences]
            encoded = [coding.sixbit_encode(s) for s in folded]
            methods.append(corpus("sixbit", folded, encoded, coding.sixbit_decode))
    semantic = None
    if cfg.symbol_matrix_path is not None:
        m = coding.load_symbol_matrix(cfg.symbol_matrix_path)
        semantic = coding.normalize_rows(m)
    return methods, semantic


def run_sweep(cfg: ExperimentConfig, jobs: int = 1,
              quantize_before_select: bool = False,
              write_csv: bool = True) -> list:
    """Full sweep over ratios x quantizations x methods, one task per ratio.
    Records come in (ratio, quantization, method) order and are
    deterministic for a given master seed regardless of `jobs`; the CSV is
    written atomically."""
    scene = build_scene(cfg)
    methods, semantic = _prepare_methods(cfg)
    method_names = [name for name, *_ in methods] + (["semantic"] if semantic is not None else [])
    if not method_names:
        raise ValueError("config provides no input source: nothing to sweep")

    def run_ratio(i, ratio):
        points = _configure_ratio(scene, ratio, cfg.quantizations, quantize_before_select)
        records = []
        for j, (bits, (idx, ris_cfg)) in enumerate(zip(cfg.quantizations, points)):
            g = ris_cfg.gain(scene.coefficients)
            _, snr_db = snr(g, scene.budget)
            for k, name in enumerate(method_names):
                seed = derive_seed(cfg.master_seed, i, j, k)
                rng = np.random.default_rng(seed)
                scores = (None, None, None, None)
                if name == "semantic":
                    received = transmit_with_rng(semantic, g, scene.budget, rng)
                    if cfg.received_matrix_dir is not None:
                        bits_tag = "none" if bits is None else str(bits)
                        out = os.path.join(
                            cfg.received_matrix_dir, f"semantic_r{ratio}_b{bits_tag}.json"
                        )
                        coding.store_symbol_matrix(received, out)
                else:
                    scores = _corpus_pipeline(
                        scene, g, methods[k], cfg.modulation, rng, cfg.max_bleu
                    )
                records.append(SweepRecord(ratio, bits, idx, snr_db, name, *scores, seed))
        return records

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            nested = list(pool.map(run_ratio, range(len(cfg.ratios)), cfg.ratios))
    else:
        nested = [run_ratio(i, ratio) for i, ratio in enumerate(cfg.ratios)]
    records = [rec for group in nested for rec in group]
    if write_csv:
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
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow([_format_cell(getattr(r, name), none)
                                 for name, _, none in _COLUMNS])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_records(path) -> list:
    """Inverse of write_records; used for round-trip checks."""
    records = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            if len(row) != len(_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                 f"expected {len(_COLUMNS)}")
            records.append(SweepRecord(**{
                name: None if cell == none else parse(cell)
                for (name, parse, none), cell in zip(_COLUMNS, row)
            }))
    return records
