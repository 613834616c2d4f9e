import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rislink.metrics import (
    KnowledgeGraph,
    bit_error_rate,
    bleu,
    char_error_rate,
    cosine_similarity,
    levenshtein,
    load_embeddings,
    load_graph,
    relative_bleu,
    tokenize,
    triplet_f1,
)

# --- BLEU -------------------------------------------------------------------


def test_bleu_identity_and_disjoint():
    tokens = "the cat sat on the mat".split()
    assert bleu(tokens, tokens) == pytest.approx(1.0)
    assert bleu("a b c".split(), "x y z".split()) == 0.0


def test_bleu_short_candidate_brevity_penalty():
    score = bleu("the cat".split(), "the cat sat".split())
    assert score == pytest.approx(math.exp(1 - 3 / 2), rel=1e-9)


def test_bleu_empty_candidate_and_reference():
    assert bleu([], ["a"]) == 0.0
    with pytest.raises(ValueError):
        bleu(["a"], [])


@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12))
def test_bleu_bounds_and_self_identity(tokens):
    assert bleu(tokens, tokens) == pytest.approx(1.0)
    other = ["z"] * len(tokens)
    assert 0.0 <= bleu(other, tokens) <= 1.0


def test_relative_bleu():
    tokens = "a b c d".split()
    assert relative_bleu(tokens, tokens, max_bleu=0.6) == pytest.approx(1.0 / 0.6)
    assert relative_bleu(["x"], tokens, max_bleu=0.6) == 0.0
    with pytest.raises(ValueError):
        relative_bleu(tokens, tokens, max_bleu=0.0)


def test_relative_bleu_paper_ceiling():
    # a raw score equal to the ceiling maps to exactly 1
    assert 0.6 / 0.6 == 1.0
    assert relative_bleu("a b".split(), "a b".split(), 1.0) == pytest.approx(1.0)


def test_tokenize_detaches_punctuation():
    assert tokenize("the cat, sat.") == ["the", "cat", ",", "sat", "."]
    assert tokenize("") == []


# --- triplet F1 ---------------------------------------------------------------


def graph(triplets):
    nodes = []
    index = {}
    edges = []
    for s, r, t in triplets:
        for attr in (s, t):
            if attr not in index:
                index[attr] = len(nodes)
                nodes.append(attr)
        edges.append((index[s], index[t], r))
    return KnowledgeGraph(tuple(nodes), tuple(edges))


def test_f1_identity():
    g = graph([("a", "likes", "b"), ("b", "knows", "c"), ("c", "sees", "a")])
    assert triplet_f1(g, g) == (1.0, 1.0, 1.0)


def test_f1_partial_overlap():
    src = graph([("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d")])
    dec = graph([("a", "r1", "b"), ("b", "r2", "c"), ("x", "bad", "y")])
    precision, recall, f1 = triplet_f1(src, dec)
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)


def test_f1_disjoint_and_empty_conventions():
    src = graph([("a", "r", "b")])
    dec = graph([("x", "q", "y")])
    assert triplet_f1(src, dec) == (0.0, 0.0, 0.0)
    empty = KnowledgeGraph()
    assert triplet_f1(empty, empty) == (1.0, 1.0, 1.0)
    assert triplet_f1(src, empty) == (0.0, 0.0, 0.0)
    assert triplet_f1(empty, dec) == (0.0, 0.0, 0.0)


def test_f1_normalization_trim_casefold_only():
    src = graph([("Alice", "Works At", "CEA")])
    dec = graph([(" alice ", "works at", "cea")])
    assert triplet_f1(src, dec) == (1.0, 1.0, 1.0)
    stemmed = graph([("alice", "working at", "cea")])
    assert triplet_f1(src, stemmed)[2] == 0.0


def test_f1_duality_precision_recall_swap():
    rng = np.random.default_rng(3)
    names = [f"n{i}" for i in range(6)]
    rels = ["r1", "r2", "r3"]
    for _ in range(20):
        def random_graph():
            triplets = []
            seen = set()
            for _ in range(rng.integers(1, 6)):
                s, t = rng.choice(names, size=2, replace=False)
                if (s, t) in seen:
                    continue
                seen.add((s, t))
                triplets.append((s, rng.choice(rels), t))
            return graph(triplets)

        a, b = random_graph(), random_graph()
        assert triplet_f1(a, b)[0] == pytest.approx(triplet_f1(b, a)[1])


def test_graph_validation():
    with pytest.raises(ValueError):
        KnowledgeGraph(("a",), ((0, 1, "r"),))  # missing node
    with pytest.raises(ValueError):
        KnowledgeGraph(("a", "b"), ((0, 1, "r"), (0, 1, "q")))  # duplicate pair


# --- cosine similarity --------------------------------------------------------


def test_cosine_anchor_values():
    assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_cosine_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        base = cosine_similarity(a, b)
        assert cosine_similarity(3.7 * a, b) == pytest.approx(base, abs=1e-12)
        assert cosine_similarity(a, 0.002 * b) == pytest.approx(base, abs=1e-12)


# --- error rates ----------------------------------------------------------------


def test_bit_error_rate():
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert bit_error_rate(a, a) == 0.0
    assert bit_error_rate(a, 1 - a) == 1.0
    assert bit_error_rate(a, np.array([0, 1, 0, 0], dtype=np.uint8)) == 0.25
    with pytest.raises(ValueError):
        bit_error_rate(a, a[:2])


def test_char_error_rate():
    assert char_error_rate("abc", "abc") == 0.0
    assert char_error_rate("abc", "axc") == pytest.approx(1 / 3)
    assert char_error_rate("", "") == 0.0
    assert char_error_rate("abc", "") == 1.0
    assert levenshtein("kitten", "sitting") == 3


# --- file ingestion -------------------------------------------------------------


def test_load_graph_nodes_edges_format(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [[0, 1, "r"]]}))
    g = load_graph(path)
    assert g.triplets() == [("a", "r", "b")]


def test_load_graph_triplet_list_format(tmp_path):
    path = tmp_path / "g.json"
    triplets = [["a", "r1", "b"], ["b", "r2", "c"], ["a", "r3", "c"], ["c", "r4", "d"]]
    path.write_text(json.dumps(triplets))
    g = load_graph(path)
    assert len(g.edges) == 4
    assert len(g.nodes) <= 8


def test_load_graph_empty_and_malformed(tmp_path):
    empty = tmp_path / "e.json"
    empty.write_text("[]")
    g = load_graph(empty)
    assert g.nodes == () and g.edges == ()
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError):
        load_graph(bad)


def test_graph_store_round_trip(tmp_path):
    g = graph([("a", "r", "b"), ("b", "q", "c")])
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": list(g.nodes), "edges": [list(e) for e in g.edges]}))
    assert load_graph(path) == g


def test_load_embeddings(tmp_path):
    path = tmp_path / "emb.json"
    vectors = np.random.default_rng(0).normal(size=(2, 384)).tolist()
    path.write_text(json.dumps({"dim": 384, "vectors": vectors}))
    emb = load_embeddings(path)
    assert emb.shape == (2, 384)


def test_load_embeddings_ragged_rejected(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"dim": 3, "vectors": [[1, 2, 3], [1, 2]]}))
    with pytest.raises(ValueError):
        load_embeddings(path)
