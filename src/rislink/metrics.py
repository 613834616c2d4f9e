"""Evaluation metrics: BLEU and relative BLEU, knowledge-graph triplet F1,
cosine similarity over externally supplied embeddings, and bit/character
error utilities.

Tokenization for BLEU is frozen: punctuation is detached from words, then
the text is whitespace-split. Triplet matching normalizes text by trim +
case-fold only (exact correspondence otherwise).
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coding import read_json, scale_to_unit

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
BLEU_ORDER = 4


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


def _flatten(sequences, vocabulary: dict):
    """Token ids of `sequences` end to end (len(vocabulary) for a token not
    in it), each token's sequence, each sequence's length, and the number of
    tokens from each token to the end of its sequence."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    tokens = chain.from_iterable(sequences)
    ids = np.fromiter(map(vocabulary.get, tokens, repeat(len(vocabulary))),
                      dtype=np.int64, count=int(lengths.sum()))
    owner = np.repeat(np.arange(len(sequences)), lengths)
    room = np.cumsum(lengths)[owner] - np.arange(ids.size)
    return ids, owner, lengths, room


# how tokenize treats a character: the number of tokens it makes of the
# character written twice
_SPACE, _WORD, _OTHER = 0, 1, 2


class SymbolTokenizer:
    """tokenize, and _flatten's token ids under a vocabulary, for sentences
    given as indices into an alphabet of single characters, with no string
    built. kinds[a] is _SPACE, _WORD or _OTHER for alphabet[a], read off the
    frozen regex itself, so a token is a maximal run of _WORD symbols or
    one _OTHER symbol, and never spans two sentences. A token's id comes
    from the vocabulary's prefixes, one character per step: the empty
    prefix has id 0, every other prefix of a vocabulary token an id from 1
    on, and the last id is dead. step[p, a] is the id of prefix p extended
    by symbol alphabet[a], the dead id where no vocabulary token starts so
    and from the dead id, in the smallest unsigned type that holds the ids;
    ids[p] is prefix p's vocabulary id, V = len(vocabulary) for a prefix
    that is no token and for the dead id. A prefix as long as the longest
    vocabulary token steps only to the dead id, so a token reaches its id
    or the dead one within one step more than that length."""

    def __init__(self, alphabet, vocabulary: dict):
        if not all(len(symbol) == 1 for symbol in alphabet):
            raise ValueError("a symbol tokenizer needs single-character symbols")
        self.kinds = np.array([len(tokenize(2 * ch)) for ch in alphabet], dtype=np.uint8)
        index = {ch: a for a, ch in enumerate(alphabet)}
        children = {}  # (prefix id, symbol index) -> prefix id
        ids = [len(vocabulary)]  # the empty prefix is no token
        for token, i in vocabulary.items():
            if not set(token) <= index.keys():
                continue  # no sentence over the alphabet holds it
            prefix = 0
            for ch in token:
                key = prefix, index[ch]
                if key not in children:
                    children[key] = len(ids)
                    ids.append(len(vocabulary))
                prefix = children[key]
            ids[prefix] = i
        dead = len(ids)
        self.step = np.full((dead + 1, len(alphabet)), dead, dtype=np.min_scalar_type(dead))
        for (prefix, a), child in children.items():
            self.step[prefix, a] = child
        self.ids = np.array(ids + [len(vocabulary)], dtype=np.int64)

    def flatten(self, codes, counts):
        """_flatten(tokenize of each sentence, vocabulary): (ids, owner,
        lengths, room), for sentences given end to end as symbol indices
        `codes`, counts[k] of them for sentence k. A token steps through the
        table only while it is live: longer than its prefix so far, which is
        not the dead one. So no step reads a symbol past a token's end, and
        the walk ends when no token is live."""
        codes = np.asarray(codes)
        counts = np.asarray(counts, dtype=np.int64)
        ends = np.cumsum(counts)
        kinds = np.take(self.kinds, codes)
        # a word symbol after a word symbol of its own sentence continues its token
        joins = np.zeros(codes.size, dtype=bool)
        joins[1:] = (kinds[1:] == _WORD) & (kinds[:-1] == _WORD)
        joins[(ends - counts)[counts > 0]] = False
        token = kinds != _SPACE
        starts = np.flatnonzero(token & ~joins)
        token[:-1] &= ~joins[1:]  # now only the last symbol of each token
        sizes = np.flatnonzero(token) + 1 - starts
        # each sentence's tokens are those that start in it
        lengths = np.diff(np.searchsorted(starts, ends), prepend=0)
        # each token's prefixes, one character per step: its first from the
        # empty prefix, then the next of every live token, as step[p, symbol]
        # read off the flat table. The ids go to intp before the product: a
        # uint8 id times the stride would wrap.
        dead = len(self.step) - 1
        prefix = np.take(self.step[0], np.take(codes, starts))
        live = np.flatnonzero((sizes > 1) & (prefix != dead))
        at, end, p = starts[live] + 1, starts[live] + sizes[live], prefix[live]
        # each per-token array goes as soon as it is read for the last time
        del kinds, joins, token, starts, sizes
        step, stride = self.step.ravel(), self.kinds.size
        while live.size:
            p = np.take(step, p.astype(np.intp) * stride + np.take(codes, at))
            prefix[live] = p
            at += 1
            going = np.flatnonzero((at < end) & (p != dead))
            live, at, end, p = live[going], at[going], end[going], p[going]
        ids = self.ids[prefix]
        owner = np.repeat(np.arange(counts.size), lengths)
        room = np.cumsum(lengths)[owner] - np.arange(ids.size)
        return ids, owner, lengths, room


class BleuReferences:
    """BLEU reference sentences, tokenized and counted once, for scoring many
    candidates at once. Tokens have ids 0..V-1, V = len(vocabulary). So do
    the n-grams of each order n: an n-gram's key is its (n - 1)-gram
    prefix's id times V + 1 plus its last token's id (the empty 0-gram has
    id 0), and its id is the key's index in ngrams[n - 1], the sorted keys of
    the n-grams the references hold; for T reference tokens, keys stay below
    (T + 1)^2, far inside int64. Every vocabulary token is a reference's,
    so ngrams[0] is 0..V-1 and a unigram's id is its token's. keys[n - 1]
    holds sentence * len(ngrams[n - 1]) + id, sorted, for each n-gram a
    sentence holds, and counts[n - 1] how often it holds it. lengths[k] is
    the number of tokens of sentence k."""

    def __init__(self, references):
        references = [tuple(r) for r in references]
        vocabulary = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(references)))}
        tokens, owner, self.lengths, room = _flatten(references, vocabulary)
        self.vocabulary, self.ngrams, self.keys, self.counts = vocabulary, [], [], []
        ids = np.zeros(tokens.size, dtype=np.int64)
        for n in range(1, BLEU_ORDER + 1):
            inside = np.flatnonzero(room >= n)  # where an n-gram starts
            if not inside.size:
                break  # no sentence holds an n-gram, nor a longer one
            table, gram = np.unique(ids[inside] * (len(vocabulary) + 1) + tokens[inside + n - 1],
                                    return_inverse=True)
            ids = np.full(tokens.size, -1, dtype=np.int64)
            ids[inside] = gram
            held, count = np.unique(owner[inside] * table.size + gram, return_counts=True)
            self.ngrams.append(table)
            self.keys.append(held)
            self.counts.append(count)

    def scores(self, indices, candidates) -> np.ndarray:
        """bleu(candidates[i], the tokens of sentence indices[i]) for every
        i."""
        return self.flat_scores(indices, _flatten(candidates, self.vocabulary))

    def flat_scores(self, indices, flat) -> np.ndarray:
        """scores of candidates given as (ids, owner, lengths, room), as
        _flatten or SymbolTokenizer.flatten gives them; a ValueError for an
        index that is no sentence's or a sentence without tokens. A
        candidate that is empty or has no clipped match at some order up to
        its length scores 0, whatever its longer n-grams match. A matched
        n-gram starts with a matched (n - 1)-gram, so a screen first keeps
        only the candidates whose own reference holds their one token, or
        one of their bigrams, looked up as token-id pairs in ngrams[1] and
        keys[1]. Then, over the kept candidates' tokens, per order: one
        search of ngrams[n - 1] gives their n-grams ids (none for an n-gram
        holding a token or a prefix that no reference holds, which so matches
        nothing), one np.unique counts them per candidate, and one bincount
        sums their counts, clipped by the reference's, per candidate. A
        candidate without a match at that order loses its tokens before the
        next one; only the others reach the scalar _bleu_from_matches. Each
        candidate is scored on its own tokens, so no candidate's score
        depends on which others are kept."""
        tokens, owner, lengths, room = flat
        indices = _sentence_indices(indices, self.lengths.size)
        if lengths.size != indices.size:
            raise ValueError(f"{indices.size} indices for {lengths.size} candidates")
        references = self.lengths[indices]
        if np.any(references == 0):
            raise ValueError("reference must be non-empty")
        if not indices.size:
            return np.zeros(0)
        # the screen; order-1 ids are the token ids, so a one-token candidate
        # keys sentence * V + t in keys[0], and a bigram of two vocabulary
        # tokens keys t * (V + 1) + u in ngrams[1]
        size = len(self.vocabulary)
        scoring = np.zeros(indices.size, dtype=bool)
        one = np.flatnonzero(lengths == 1)
        token = tokens[np.cumsum(lengths)[one] - 1]
        scoring[one] = (token < size) & (_index_in(self.keys[0], indices[one] * size + token) >= 0)
        if len(self.ngrams) > 1:
            known = tokens < size
            first = np.flatnonzero(known[:-1] & known[1:] & (room[:-1] >= 2))
            gram = _index_in(self.ngrams[1], tokens[first] * (size + 1) + tokens[first + 1])
            first, gram = first[gram >= 0], gram[gram >= 0]
            held = _index_in(self.keys[1], indices[owner[first]] * self.ngrams[1].size + gram)
            scoring[owner[first[held >= 0]]] = True
        kept = np.flatnonzero(scoring[owner])
        tokens, owner, room = tokens[kept], owner[kept], room[kept]
        matches = np.zeros((BLEU_ORDER, indices.size), dtype=np.int64)
        ids = np.zeros(tokens.size, dtype=np.int64)
        for n, (table, keys, counts) in enumerate(zip(self.ngrams, self.keys, self.counts), 1):
            if n > 1:
                # drop the tokens of every candidate already at 0; a candidate
                # keeps its tokens together, so `inside + n - 1` still reads
                # the last token of each n-gram
                kept = np.flatnonzero(~((matches[n - 2] == 0) & (lengths >= n - 1))[owner])
                if kept.size < tokens.size:
                    tokens, owner, room, ids = (x[kept] for x in (tokens, owner, room, ids))
            inside = np.flatnonzero(room >= n)  # a prefix without an id keys below 0
            gram = _index_in(table, ids[inside] * (len(self.vocabulary) + 1)
                             + tokens[inside + n - 1])
            ids = np.full(tokens.size, -1, dtype=np.int64)
            ids[inside] = gram
            pair, held = np.unique(owner[inside[gram >= 0]] * table.size + gram[gram >= 0],
                                   return_counts=True)
            candidate, gram = np.divmod(pair, table.size)
            ref = _index_in(keys, indices[candidate] * table.size + gram)
            clipped = np.where(ref >= 0, np.minimum(held, counts[ref]), 0)
            matches[n - 1] = np.bincount(candidate, clipped, indices.size)
        orders = np.arange(1, BLEU_ORDER + 1)[:, None]
        live = np.flatnonzero((lengths > 0) & ~((matches == 0) & (orders <= lengths)).any(axis=0))
        out = np.zeros(indices.size)
        out[live] = [_bleu_from_matches(c, r, matched) for c, r, matched in zip(
            lengths[live].tolist(), references[live].tolist(), matches[:, live].T.tolist())]
        return out


def _sentence_indices(indices, count: int) -> np.ndarray:
    """indices as an intp array, a ValueError if one is not a sentence of
    count."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and not 0 <= indices.min() <= indices.max() < count:
        raise ValueError(f"sentence indices must be in 0..{count - 1}, got "
                         f"{indices.min()}..{indices.max()}")
    return indices


def _index_in(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Each key's index in the sorted array `table`; -1 where absent."""
    if not table.size:
        return np.full(np.shape(keys), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return np.where(table[at] == keys, at, -1)


def _bleu_from_matches(c: int, r: int, matched) -> float:
    """BLEU of a candidate of c >= 1 tokens against a reference of r,
    matched[n - 1] > 0 of its n-grams clipped-matching the reference's for
    every n up to min(BLEU_ORDER, c): uniform weights over the modified
    precisions of those orders times the brevity penalty. It stays scalar:
    numpy's log and exp may round differently from math's in the last
    place."""
    n_max = min(BLEU_ORDER, c)
    log_sum = 0.0
    for n in range(1, n_max + 1):
        log_sum += math.log(matched[n - 1] / (c - n + 1))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / n_max)


def bleu(candidate, reference) -> float:
    """Sentence BLEU of a candidate's tokens against one reference's tokens,
    scored as a one-candidate BleuReferences.scores call. An empty candidate
    scores 0, one equal to its reference exactly 1 (every precision 1, the
    penalty exp(0)), and an empty reference is a ValueError."""
    return float(BleuReferences([reference]).scores([0], [tuple(candidate)])[0])


def check_max_bleu(value, name: str) -> None:
    """The rule for a BLEU ceiling: a ValueError naming `name` unless `value`
    is a positive finite number, not a bool, whose reciprocal is finite."""
    try:
        ok = not isinstance(value, bool) and 0 < value < math.inf and 1.0 / value < math.inf
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a positive finite number whose reciprocal is "
                         f"finite, got {value!r}")


def relative_bleu(candidate, reference, max_bleu: float) -> float:
    """BLEU divided by the noiseless-pipeline ceiling; may exceed 1."""
    check_max_bleu(max_bleu, "max_bleu")
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
    """The cosine of the angle between two real vectors, for any finite,
    nonzero magnitudes (see coding.scale_to_unit)."""
    a = scale_to_unit(np.asarray(a, dtype=float))
    b = scale_to_unit(np.asarray(b, dtype=float))
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def _hyyro_step(eq, vp, vn):
    """One text character of Hyyrö's (2003) Levenshtein form of Myers' bit-
    parallel algorithm (JACM 1999): bit i of `eq` says pattern character i
    is the text character, bit i of `vp`/`vn` that the DP column rises/falls
    from row i to row i + 1. Ints and np.uint64 arrays step alike; carries
    and shifts only move bits up, so bits above the pattern need no mask."""
    d0 = (((eq & vp) + vp) ^ vp) | eq | vn
    hp = vn | ~(d0 | vp)
    hn = d0 & vp
    hp = (hp << 1) | 1  # the top row rises by 1 per text character
    return (hn << 1) | ~(d0 | hp), hp & d0


def levenshtein(a, b) -> int:
    """Edit distance with unit insertions, deletions and substitutions, of
    two strings or two sequences of any hashable symbols: _hyyro_step on
    Python ints over the shorter one, the longer one the pattern, which
    takes the fewest steps and keeps the unmasked bits (one more per step at
    most) under twice its length. Equal sequences return 0."""
    if a == b:
        return 0
    a, b = sorted((a, b), key=len)
    peq = {}  # symbol -> bit mask of its positions in b
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    full = (1 << len(b)) - 1
    vp, vn = full, 0
    for ch in a:
        vp, vn = _hyyro_step(peq.get(ch, 0), vp, vn)
    # the distance is the top of the last column, len(a), plus its len(b) deltas
    return len(a) + (vp & full).bit_count() - (vn & full).bit_count()


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


_LANE_BITS = 64


class EditReferences:
    """Reference sentences for many edit distances at once: each sentence of
    1 to 64 characters is a Myers/Hyyrö pattern in one np.uint64 lane, and
    all lanes step together, one text character per step (the multiple-
    pattern bit-parallelism of Hyyrö, Fredriksson & Navarro, ACM JEA 10,
    2005). alphabet holds the sorted code points of the sentences'
    characters, and lengths[k] the length of sentence k. A text comes as the
    peq column of each of its characters (see columns): peq[k, a] has bit i
    set where character i of lane sentence k is the character
    alphabet[a - 1], and column 0 stands for every character that no
    sentence holds, and is 0. Other sentences (empty or longer than 64
    characters) are scored by levenshtein on columns, which keeps the
    distance: their characters have distinct nonzero columns."""

    def __init__(self, sentences):
        self.sentences = tuple(sentences)
        self.lengths = np.array([len(s) for s in self.sentences], dtype=np.int64)
        self.alphabet = np.unique(_code_points("".join(self.sentences)))
        self.peq = np.zeros((len(self.sentences), self.alphabet.size + 1), dtype=np.uint64)
        lanes = np.flatnonzero((self.lengths > 0) & (self.lengths <= _LANE_BITS))
        n = self.lengths[lanes]
        columns = self.columns("".join(self.sentences[k] for k in lanes.tolist()))
        position = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        bits = np.left_shift(np.uint64(1), position.astype(np.uint64))
        np.bitwise_or.at(self.peq, (np.repeat(lanes, n), columns), bits)

    def columns(self, text: str) -> np.ndarray:
        """peq column of each character of `text` (0 for one in no
        sentence), in the smallest unsigned type that holds every column. A
        corpus maps its decoders' alphabet through this once, and then each
        decoded symbol index through that table."""
        columns = _index_in(self.alphabet, _code_points(text)) + 1
        return columns.astype(np.min_scalar_type(self.alphabet.size))

    def distances(self, indices, columns, counts) -> np.ndarray:
        """levenshtein(sentences[indices[i]], text i) for every i, the texts
        given end to end as peq columns, text i of counts[i] characters."""
        indices = _sentence_indices(indices, self.lengths.size)
        columns = np.asarray(columns, dtype=np.min_scalar_type(self.alphabet.size))
        counts = np.asarray(counts, dtype=np.int64)
        firsts = np.cumsum(counts) - counts
        out = np.empty(indices.size, dtype=np.int64)
        m = self.lengths[indices]
        lane = (m > 0) & (m <= _LANE_BITS)
        for i in np.flatnonzero(~lane).tolist():
            text = columns[firsts[i] : firsts[i] + counts[i]].tolist()
            out[i] = levenshtein(self.columns(self.sentences[indices[i]]).tolist(), text)
        # lanes sorted by text length, longest first, so that the lanes still
        # reading at step t are the first live[t] of them
        order = np.flatnonzero(lane)
        order = order[np.argsort(-counts[order], kind="stable")]
        n, m, ref = counts[order], m[order], indices[order]
        width = int(n.max(initial=0))
        live = n.size - np.cumsum(np.bincount(n, minlength=width))[:width]
        # texts[t, i]: the step-t column of lane i, in the type of `columns`,
        # so no array per character is a wide one; past the end of its text it
        # holds the next text's columns, which no step reads
        texts = sliding_window_view(np.append(columns, np.zeros(width, columns.dtype)),
                                    width)[firsts[order]].T.copy()
        # each step gathers its live lanes' masks from the flat peq table
        peq, rows = self.peq.ravel(), ref * self.peq.shape[1]
        vp = np.full(order.size, 2**64 - 1, dtype=np.uint64)
        vn = np.zeros(order.size, dtype=np.uint64)
        for t, a in enumerate(live.tolist()):
            eq = np.take(peq, rows[:a] + texts[t, :a])
            vp[:a], vn[:a] = _hyyro_step(eq, vp[:a], vn[:a])
        # the distance is the top of the last column, n, plus its m deltas
        full = np.right_shift(np.uint64(2**64 - 1), (_LANE_BITS - m).astype(np.uint64))
        out[order] = n + np.bitwise_count(vp & full) - np.bitwise_count(vn & full).astype(np.int64)
        return out

    def char_error_rates(self, indices, columns, counts) -> np.ndarray:
        """char_error_rate(sentences[indices[i]], text i) for every i, the
        texts given as to distances."""
        indices = _sentence_indices(indices, self.lengths.size)
        longest = np.maximum(self.lengths[indices], counts)
        return self.distances(indices, columns, counts) / np.maximum(longest, 1)


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
    converted (nodes deduplicated in first-appearance order). JSON of any
    other shape is a ValueError."""
    payload = read_json(path, "graph file")
    if isinstance(payload, list):
        nodes: list = []
        index: dict = {}
        edges = []
        for triplet in payload:
            if not isinstance(triplet, list) or len(triplet) != 3:
                raise ValueError(f"{path}: triplet {triplet!r} is not a 3-item list")
            s, r, t = (str(x) for x in triplet)
            for attr in (s, t):
                if attr not in index:
                    index[attr] = len(nodes)
                    nodes.append(attr)
            edges.append((index[s], index[t], r))
        return KnowledgeGraph(tuple(nodes), tuple(edges))
    if not isinstance(payload, dict) or not {"nodes", "edges"} <= payload.keys():
        raise ValueError(f"{path}: graph must be an object with nodes and edges, "
                         "or a list of triplets")
    nodes, edges = payload["nodes"], payload["edges"]
    if not (isinstance(nodes, list) and isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 3 for e in edges)):
        raise ValueError(f"{path}: nodes must be a list and edges a list of "
                         "[source, target, relation] lists")
    try:
        return KnowledgeGraph(tuple(nodes), tuple(map(tuple, edges)))
    except TypeError as exc:
        raise ValueError(f"{path}: bad edge: {exc}") from exc


def load_embeddings(path) -> np.ndarray:
    """Embedding JSON: {"dim": int, "vectors": [[real]]}; all vectors must
    share the declared dimension, and every number be finite. JSON of any
    other shape is a ValueError."""
    payload = read_json(path, "embedding file")
    if not isinstance(payload, dict) or not {"dim", "vectors"} <= payload.keys():
        raise ValueError(f"{path}: embeddings must be an object with dim and vectors")
    vectors = payload["vectors"]
    try:
        dim = int(payload["dim"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: dim must be an integer: {exc}") from exc
    if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
        raise ValueError(f"{path}: vectors must be a list of lists of numbers")
    for i, v in enumerate(vectors):
        if len(v) != dim:
            raise ValueError(f"{path}: vector {i} has dimension {len(v)}, expected {dim}")
    try:
        array = np.asarray(vectors, dtype=float).reshape(len(vectors), dim)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: vectors must hold numbers: {exc}") from exc
    if not np.isfinite(array).all():  # JSON's NaN and Infinity parse
        raise ValueError(f"{path}: vectors must hold finite numbers")
    return array
