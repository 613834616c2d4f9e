"""Deterministic link-level simulator for RIS-aided communication: LoS MIMO
channels between planar arrays, codebook-configured RIS with quantized phase
shifts, noisy symbol transmission, traditional source-coding baselines, and
semantic-level evaluation metrics."""

from .channel import ChannelMatrix, PathLossModel, los_channel, wavelength
from .coding import HuffmanCode, SymbolMatrix
from .geometry import PlanarArray, facing_array
from .harness import ExperimentConfig, SweepRecord, build_scene, run_sweep
from .link import LinkBudget, equalize, snr, transmit
from .metrics import KnowledgeGraph
from .ris import Codebook, RisConfiguration, active_mask, build_codebook, quantize_phases

__all__ = [
    "ChannelMatrix",
    "Codebook",
    "ExperimentConfig",
    "HuffmanCode",
    "KnowledgeGraph",
    "LinkBudget",
    "PathLossModel",
    "PlanarArray",
    "RisConfiguration",
    "SweepRecord",
    "SymbolMatrix",
    "active_mask",
    "build_codebook",
    "build_scene",
    "equalize",
    "facing_array",
    "los_channel",
    "quantize_phases",
    "run_sweep",
    "snr",
    "transmit",
    "wavelength",
]
