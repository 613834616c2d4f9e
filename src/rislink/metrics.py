"""Evaluation metrics: BLEU and relative BLEU, knowledge-graph triplet F1,
cosine similarity over externally supplied embeddings, and bit/character
error utilities.

Tokenization for BLEU is frozen: punctuation is detached from words, then
the text is whitespace-split. Triplet matching normalizes text by trim +
case-fold only (exact correspondence otherwise).
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


@dataclass(frozen=True)
class KnowledgeGraph:
    """Nodes carry textual attributes; edges are directed (source index,
    target index, textual relation), at most one relation per ordered pair."""

    nodes: tuple = field(default_factory=tuple)
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        nodes = tuple(str(n) for n in self.nodes)
        edges = []
        seen_pairs = set()
        for src, dst, rel in self.edges:
            src, dst = int(src), int(dst)
            if not (0 <= src < len(nodes) and 0 <= dst < len(nodes)):
                raise ValueError(f"edge ({src}, {dst}) references a missing node")
            if (src, dst) in seen_pairs:
                raise ValueError(f"duplicate relation for node pair ({src}, {dst})")
            seen_pairs.add((src, dst))
            edges.append((src, dst, str(rel)))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(edges))

    def triplets(self) -> list:
        """(source attribute, relation, target attribute) per edge."""
        return [(self.nodes[s], r, self.nodes[t]) for s, t, r in self.edges]


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text)


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate, reference, max_n: int = 4) -> float:
    """Sentence BLEU against a single reference: uniform weights over the
    1..max_n modified n-gram precisions (capped at the candidate length)
    times the brevity penalty. Empty candidate scores 0."""
    candidate, reference = list(candidate), list(reference)
    if not reference:
        raise ValueError("reference must be non-empty")
    if not candidate:
        return 0.0

    n_max = min(max_n, len(candidate))
    log_sum = 0.0
    for n in range(1, n_max + 1):
        counts = _ngram_counts(candidate, n)
        ref_counts = _ngram_counts(reference, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / sum(counts.values()))

    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / n_max)


def relative_bleu(candidate, reference, max_bleu: float) -> float:
    """BLEU divided by the noiseless-pipeline ceiling; may exceed 1."""
    if not max_bleu > 0:
        raise ValueError("max_bleu must be positive")
    return bleu(candidate, reference) / max_bleu


def _normalize_triplet(t) -> tuple:
    return tuple(part.strip().casefold() for part in t)


def triplet_f1(source: KnowledgeGraph, decoded: KnowledgeGraph):
    """Multiset precision/recall/F1 of exact triplet matches (after trim +
    case-fold). Both graphs empty -> (1, 1, 1); exactly one empty -> zeros."""
    src = Counter(_normalize_triplet(t) for t in source.triplets())
    dec = Counter(_normalize_triplet(t) for t in decoded.triplets())
    n_src, n_dec = sum(src.values()), sum(dec.values())
    if n_src == 0 and n_dec == 0:
        return 1.0, 1.0, 1.0
    if n_src == 0 or n_dec == 0:
        return 0.0, 0.0, 0.0
    matches = sum((src & dec).values())
    precision = matches / n_dec
    recall = matches / n_src
    f1 = 2 * precision * recall / (precision + recall) if matches else 0.0
    return precision, recall, f1


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def bit_error_rate(sent: np.ndarray, received: np.ndarray) -> float:
    sent = np.asarray(sent).ravel()
    received = np.asarray(received).ravel()
    if sent.size != received.size:
        raise ValueError(f"bit stream lengths differ: {sent.size} vs {received.size}")
    if sent.size == 0:
        return 0.0
    return float(np.mean(sent != received))


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def char_error_rate(sent: str, received: str) -> float:
    """Levenshtein distance normalized by the longer string, so Huffman
    desynchronization length changes stay in [0, 1]."""
    longest = max(len(sent), len(received))
    if longest == 0:
        return 0.0
    return levenshtein(sent, received) / longest


def load_graph(path) -> KnowledgeGraph:
    """Graph JSON: {"nodes": [str], "edges": [[src, dst, relation]]}. A bare
    list of [source, relation, target] textual triplets is also accepted and
    converted (nodes deduplicated in first-appearance order)."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed graph file: {exc}") from exc
    if isinstance(payload, list):
        nodes: list = []
        index: dict = {}
        edges = []
        for triplet in payload:
            if len(triplet) != 3:
                raise ValueError(f"{path}: triplet {triplet!r} is not a 3-item list")
            s, r, t = (str(x) for x in triplet)
            for attr in (s, t):
                if attr not in index:
                    index[attr] = len(nodes)
                    nodes.append(attr)
            edges.append((index[s], index[t], r))
        return KnowledgeGraph(tuple(nodes), tuple(edges))
    try:
        return KnowledgeGraph(tuple(payload["nodes"]), tuple(tuple(e) for e in payload["edges"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing graph fields: {exc}") from exc


def load_embeddings(path) -> np.ndarray:
    """Embedding JSON: {"dim": int, "vectors": [[real]]}; all vectors must
    share the declared dimension."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed embedding file: {exc}") from exc
    try:
        dim = int(payload["dim"])
        vectors = payload["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: missing embedding fields: {exc}") from exc
    for i, v in enumerate(vectors):
        if len(v) != dim:
            raise ValueError(f"{path}: vector {i} has dimension {len(v)}, expected {dim}")
    return np.asarray(vectors, dtype=float).reshape(len(vectors), dim)
