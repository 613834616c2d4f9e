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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import coding, metrics
from .channel import PathLossModel, los_channel, wavelength
from .geometry import PlanarArray, facing_array, unit
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

CSV_COLUMNS = [
    "ratio",
    "bits",
    "codeword",
    "snr_db",
    "method",
    "ber",
    "char_err",
    "bleu",
    "rel_bleu",
    "f1",
    "similarity",
    "seed",
]


@dataclass
class ArraySpec:
    center: list
    rows: int = 1
    cols: int = 1
    spacing: float | None = None  # None -> half a carrier wavelength
    normal: list | None = None  # None -> default orientation rule


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
    reference_graph_path: str | None = None
    reference_text_path: str | None = None
    embeddings_path: str | None = None
    baselines: list = field(default_factory=lambda: ["huffman", "sixbit"])
    modulation: str = "qpsk"
    max_bleu: float = 0.6
    output_path: str = "sweep.csv"
    received_matrix_dir: str | None = None

    def __post_init__(self):
        for name in ("tx", "rx", "ris"):
            value = getattr(self, name)
            if isinstance(value, dict):
                setattr(self, name, ArraySpec(**value))
        self.codebook_grid = tuple(self.codebook_grid)
        if not self.quantizations:
            raise ValueError("quantizations must be non-empty")
        if any(not 0.0 < r <= 1.0 for r in self.ratios):
            raise ValueError("ratios must lie in (0, 1]")
        if sorted(self.ratios) != list(self.ratios):
            raise ValueError("ratios must be sorted ascending")
        for b in self.quantizations:
            if b is not None and (isinstance(b, bool) or not isinstance(b, int) or b < 1):
                raise ValueError(f"invalid quantization precision: {b!r}")
        if not (isinstance(self.max_bleu, (int, float)) and self.max_bleu > 0):
            raise ValueError(f"max_bleu must be a positive number, got {self.max_bleu!r}")
        if self.modulation not in coding.MODULATIONS:
            raise ValueError(f"unknown modulation: {self.modulation!r}")
        unknown = set(self.baselines) - {"huffman", "sixbit"}
        if unknown:
            raise ValueError(f"unknown baselines: {sorted(unknown)}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            try:
                payload = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed config: {exc}") from exc
        known = {f_.name for f_ in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
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
    wavelength: float
    path_loss: PathLossModel
    budget: LinkBudget
    h_ris_tx: object
    h_rx_ris: object
    codebook: Codebook
    coefficients: np.ndarray  # cascaded per-element c_i under the scene's weights


def _build_array(spec: ArraySpec, default_spacing: float, default_toward) -> PlanarArray:
    spacing = spec.spacing if spec.spacing is not None else default_spacing
    if spec.normal is not None:
        from .geometry import orthonormal_frame

        axis_row, axis_col, normal = orthonormal_frame(spec.normal)
        return PlanarArray(
            np.asarray(spec.center, float), spec.rows, spec.cols, spacing,
            axis_row, axis_col, normal,
        )
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
    return Scene(tx, rx, ris, lam, pl, budget, h_ris_tx, h_rx_ris, cb, c)


@dataclass(frozen=True)
class SweepRecord:
    ratio: float
    bits: int | None
    codeword: int
    snr_db: float
    method: str
    ber: float | None
    char_err: float | None
    bleu: float | None
    rel_bleu: float | None
    f1: float | None
    similarity: float | None
    seed: int


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-point seed; independent of execution order."""
    return int(np.random.SeedSequence([master_seed, *indices]).generate_state(1)[0])


def configure_point(scene: Scene, ratio: float, bits: int | None,
                    quantize_before_select: bool = False):
    """Mask + codeword selection for one sweep point. Default order follows
    the evaluated protocol: select with continuous phases, then quantize the
    chosen codeword. The quantize-before-select alternative re-ranks the
    codebook on quantized SNR (a stronger, non-default scheme)."""
    mask = active_mask(scene.ris, ratio)
    if bits is not None and quantize_before_select:
        return select_codeword(
            scene.codebook, scene.h_ris_tx, scene.h_rx_ris, scene.budget, mask, bits
        )
    idx, cfg, snr_lin = select_codeword(
        scene.codebook, scene.h_ris_tx, scene.h_rx_ris, scene.budget, mask, None
    )
    if bits is not None:
        cfg = quantize_phases(cfg, bits)
        snr_lin = snr_linear(cfg.gain(scene.coefficients), scene.budget)
    return idx, cfg, snr_lin


def _corpus_pipeline(scene, g, sentences, encoded, decoder, modulation, rng, max_bleu):
    """Transmit each pre-encoded sentence through the scalar channel and
    average the text metrics over the corpus."""
    modulate, demodulate = coding.MODULATIONS[modulation]
    bers, char_errs, bleus = [], [], []
    for sentence, bits in zip(sentences, encoded):
        symbols, _ = modulate(bits)
        sent = coding.SymbolMatrix(symbols.reshape(1, -1))
        received = transmit_with_rng(sent, g, scene.budget, rng)
        recovered_bits = demodulate(
            equalize(received, g, scene.budget.p_tx).values, n_bits=bits.size
        )
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
    """Per-method sentence encodings (and the semantic matrix when given).
    Huffman frequencies come from the evaluation corpus itself; the sixbit
    route folds the corpus into its 64-character alphabet first."""
    methods = []
    if cfg.corpus_path is not None:
        with open(cfg.corpus_path) as f:
            sentences = [line.rstrip("\n") for line in f if line.strip()]
        if "huffman" in cfg.baselines:
            code = coding.huffman_build(coding.huffman_frequencies(sentences))
            encoded = [coding.huffman_encode(s, code) for s in sentences]
            methods.append(
                ("huffman", sentences, encoded, lambda bits, c=code: coding.huffman_decode(bits, c))
            )
        if "sixbit" in cfg.baselines:
            folded = [coding.sixbit_fold(s) for s in sentences]
            encoded = [coding.sixbit_encode(s) for s in folded]
            methods.append(("sixbit", folded, encoded, coding.sixbit_decode))
    semantic = None
    if cfg.symbol_matrix_path is not None:
        m = coding.load_symbol_matrix(cfg.symbol_matrix_path)
        semantic = coding.normalize_rows(m)
    return methods, semantic


def run_sweep(cfg: ExperimentConfig, jobs: int = 1,
              quantize_before_select: bool = False,
              write_csv: bool = True) -> list:
    """Full sweep over ratios x quantizations x methods. Deterministic for a
    given master seed regardless of `jobs`; the CSV is written atomically."""
    scene = build_scene(cfg)
    methods, semantic = _prepare_methods(cfg)
    method_names = [name for name, *_ in methods] + (["semantic"] if semantic is not None else [])
    if not method_names:
        raise ValueError("config provides no input source: nothing to sweep")

    points = [
        (i, ratio, j, bits)
        for i, ratio in enumerate(cfg.ratios)
        for j, bits in enumerate(cfg.quantizations)
    ]

    def run_point(point):
        i, ratio, j, bits = point
        idx, ris_cfg, _ = configure_point(scene, ratio, bits, quantize_before_select)
        g = ris_cfg.gain(scene.coefficients)
        _, snr_db = snr(g, scene.budget)
        records = []
        for k, name in enumerate(method_names):
            seed = derive_seed(cfg.master_seed, i, j, k)
            rng = np.random.default_rng(seed)
            ber = char_err = bleu_score = rel = f1 = sim = None
            if name == "semantic":
                received = transmit_with_rng(semantic, g, scene.budget, rng)
                if cfg.received_matrix_dir is not None:
                    bits_tag = "none" if bits is None else str(bits)
                    out = os.path.join(
                        cfg.received_matrix_dir, f"semantic_r{ratio}_b{bits_tag}.json"
                    )
                    coding.store_symbol_matrix(received, out)
            else:
                _, sentences, encoded, decoder = methods[k]
                ber, char_err, bleu_score, rel = _corpus_pipeline(
                    scene, g, sentences, encoded, decoder, cfg.modulation, rng, cfg.max_bleu
                )
            records.append(
                SweepRecord(ratio, bits, idx, snr_db, name,
                            ber, char_err, bleu_score, rel, f1, sim, seed)
            )
        return records

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            nested = list(pool.map(run_point, points))
    else:
        nested = [run_point(p) for p in points]
    records = [rec for group in nested for rec in group]
    # stable order: (ratio index, quantization index, method index)
    order = {name: k for k, name in enumerate(method_names)}
    records.sort(
        key=lambda r: (cfg.ratios.index(r.ratio),
                       cfg.quantizations.index(r.bits),
                       order[r.method])
    )
    if write_csv:
        write_records(records, cfg.output_path)
    return records


def _format_cell(value) -> str:
    if value is None:
        return ""
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
                writer.writerow(
                    [
                        _format_cell(r.ratio),
                        "none" if r.bits is None else str(r.bits),
                        r.codeword,
                        _format_cell(r.snr_db),
                        r.method,
                        _format_cell(r.ber),
                        _format_cell(r.char_err),
                        _format_cell(r.bleu),
                        _format_cell(r.rel_bleu),
                        _format_cell(r.f1),
                        _format_cell(r.similarity),
                        r.seed,
                    ]
                )
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_records(path) -> list:
    """Inverse of write_records; used for round-trip checks."""
    def opt_float(cell):
        return None if cell == "" else float(cell)

    records = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            records.append(
                SweepRecord(
                    ratio=float(row[0]),
                    bits=None if row[1] == "none" else int(row[1]),
                    codeword=int(row[2]),
                    snr_db=float(row[3]),
                    method=row[4],
                    ber=opt_float(row[5]),
                    char_err=opt_float(row[6]),
                    bleu=opt_float(row[7]),
                    rel_bleu=opt_float(row[8]),
                    f1=opt_float(row[9]),
                    similarity=opt_float(row[10]),
                    seed=int(row[11]),
                )
            )
    return records
