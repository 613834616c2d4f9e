import json
import math
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bit_error_rate, bit_error_rates
from rislink.coding import SIXBIT_ALPHABET
from rislink.metrics import (
    BleuReferences,
    EditReferences,
    KnowledgeGraph,
    SymbolTokenizer,
    _flatten,
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
    assert bleu(tokens, tokens) == 1.0
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
    assert bleu(tokens, tokens) == 1.0
    other = ["z"] * len(tokens)
    assert 0.0 <= bleu(other, tokens) <= 1.0


def bleu_counted_by_slices(candidate, reference):
    """BLEU-4 with each n-gram cut as a tuple slice and clipped by `min`
    against the reference's Counter for every candidate n-gram."""
    def ngrams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    candidate, reference = tuple(candidate), tuple(reference)
    if not candidate:
        return 0.0
    if candidate == reference:
        return 1.0
    n_max = min(4, len(candidate))
    log_sum = 0.0
    for n in range(1, n_max + 1):
        counts, ref_counts = ngrams(candidate, n), ngrams(reference, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / sum(counts.values()))
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / n_max)


@given(st.lists(st.sampled_from("abcd."), max_size=14),
       st.lists(st.sampled_from("abcde"), min_size=1, max_size=14))
@example(list("abab"), list("abab"))
@example(list("aaaaa"), list("aa"))
def test_bleu_equals_slice_counting(candidate, reference):
    expected = bleu_counted_by_slices(candidate, reference)
    assert bleu(candidate, reference) == expected
    assert BleuReferences([reference]).scores([0], [candidate]).tolist() == [expected]


# references repeat tokens from a small alphabet; candidates also draw "x"
# and ".", which no reference holds
BLEU_REFERENCE = st.lists(st.sampled_from("abcde"), min_size=1, max_size=14)
BLEU_CANDIDATE = st.lists(st.sampled_from("abcdx."), max_size=14)


@st.composite
def bleu_batches(draw):
    """Reference token lists, and candidates to score against some of them:
    free draws (empty and shorter than BLEU_ORDER among them), a reference
    itself, a reference with some tokens changed, or a run of one reference
    n-gram repeated so that its count must be clipped."""
    references = draw(st.lists(BLEU_REFERENCE, min_size=1, max_size=6))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, len(references) - 1))
        reference = references[k]
        kind = draw(st.sampled_from(["free", "equal", "edited", "repeated"]))
        if kind == "free":
            candidate = draw(BLEU_CANDIDATE)
        elif kind == "equal":
            candidate = list(reference)
        elif kind == "edited":
            candidate = list(reference)
            for at, token in draw(st.lists(st.tuples(st.integers(0, 13),
                                                     st.sampled_from("abx.")), max_size=3)):
                candidate[at % len(candidate)] = token
        else:
            at = draw(st.integers(0, len(reference) - 1))
            candidate = reference[at : at + draw(st.integers(1, 3))] * draw(st.integers(2, 5))
        rows.append((k, candidate))
    return references, rows


@st.composite
def screened_batches(draw):
    """Reference token lists, some of one token (a table of them alone holds
    no bigram), and candidates of 1 to 3 tokens: a token or a bigram of
    their own reference or of another one, chained with tokens that no
    reference holds, so that whether a candidate passes the bigram screen
    turns on which reference it is looked up in."""
    references = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
                               min_size=1, max_size=5))
    grams = [r[i : i + n] for r in references for n in (1, 2) for i in range(len(r) - n + 1)]
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.integers(0, len(references) - 1))
        parts = draw(st.lists(st.one_of(st.sampled_from(grams), st.just(["x"])),
                              min_size=1, max_size=3))
        rows.append((k, list(chain.from_iterable(parts))[:3]))
    return references, rows


# a reference whose brevity penalty exp(1 - 800 / c) is 0.0 for c = 1 and
# about 5e-174 for c = 2, both for candidates that pass the bigram screen
LONG_REFERENCE = ["a", "b"] + ["c"] * 798


@given(st.one_of(bleu_batches(), screened_batches()))
@example(([list("aab"), list("ab")], [(0, []), (1, list("ab")), (0, list("aab")),
                                      (1, list("x")), (0, list("aaaa")), (1, list("abab"))]))
@example(([list("aaaaa")], [(0, list("aaaaaaa")), (0, list("aa")), (0, list("a.a"))]))
@example(([list("abcd"), list("a")], [(1, list("abcd")), (0, list("xbcd")), (1, list("a"))]))
@example(([list("ab"), list("c")], [(1, list("c")), (0, list("c")), (0, list("a")),
                                    (0, list("x"))]))  # one token, matched or not
@example(([list("ab"), list("a")], [(0, list("x"))]))  # keyed, x would be sentence 1's "a"
@example(([list("ab"), list("cd")], [(1, list("cd")), (0, list("cd")), (0, list("acd")),
                                     (1, list("xcd")), (0, list("abx"))]))  # another's bigram
@example(([list("a"), list("b")], [(0, list("a")), (0, list("aa")), (1, list("ba")),
                                   (1, list("b")), (0, [])]))  # no reference holds a bigram
@example(([list("a"), list("b")], []))
@example(([list("xy"), LONG_REFERENCE], [(1, ["a"]), (1, ["a", "b"]), (0, ["x"])]))
def test_bleu_table_equals_slice_counting(case):
    references, rows = case
    table = BleuReferences(references)
    scores = table.scores([k for k, _ in rows], [candidate for _, candidate in rows])
    assert scores.tolist() == [bleu_counted_by_slices(candidate, references[k])
                               for k, candidate in rows]


# distinct tokens, so that an n-gram of a reference occurs in it once
DISTINCT = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True)


def dying_candidate(reference: list, order: int) -> list:
    """A candidate whose first order without a clipped match against a
    reference of distinct tokens is `order`, or one that matches at every
    order up to its length for 0: at 1 no token is in it; at 2 its tokens in
    reverse; at 3 or more its first order - 1 tokens, then its first token
    again, a return that no reference of distinct tokens makes. None when
    the reference is too short to make one."""
    if order == 0:
        return list(reference)
    if order == 1:
        return list("xy")
    if order == 2:
        return reference[::-1] if len(reference) > 1 else None
    if len(reference) < order - 1:
        return None
    return reference[: order - 1] + reference[:1]


@st.composite
def pruned_batches(draw):
    """Reference token lists of distinct tokens, and candidates that first
    lose every clipped match at order 1, 2, 3 or 4, or match at every order,
    beside empty ones and short slices of a reference; batches where every
    candidate dies, or none does, come up among them."""
    references = draw(st.lists(DISTINCT, min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.integers(0, len(references) - 1))
        reference = references[k]
        kind = draw(st.sampled_from(["dies", "empty", "short"]))
        if kind == "dies":
            candidate = dying_candidate(reference, draw(st.integers(0, 4)))
        elif kind == "short":
            at = draw(st.integers(0, len(reference) - 1))
            candidate = reference[at : at + draw(st.integers(1, 2))]
        else:
            candidate = []
        if candidate is not None:
            rows.append((k, candidate))
    return references, rows


@given(pruned_batches())
@example(([list("abcdef")], [(0, dying_candidate(list("abcdef"), n)) for n in range(5)]
                            + [(0, []), (0, list("a")), (0, list("ab"))]))
@example(([list("abcd"), list("e")], [(0, list("xy")), (0, list("dcba")), (1, list("x")),
                                      (0, list("aba")), (0, list("abca"))]))  # every one dies
@example(([list("abcd"), list("e")], [(0, list("abcd")), (1, list("e")), (0, list("bc")),
                                      (0, [])]))  # none dies
def test_pruned_bleu_equals_slice_counting(case):
    # flat_scores drops a candidate's tokens once an order up to its length
    # has no clipped match; the candidates left, shorter ones among them,
    # score as if nothing had been dropped
    references, rows = case
    table = BleuReferences(references)
    scores = table.scores([k for k, _ in rows], [candidate for _, candidate in rows])
    assert scores.tolist() == [bleu_counted_by_slices(candidate, references[k])
                               for k, candidate in rows]


@given(DISTINCT, st.integers(0, 4))
def test_dying_candidates_die_at_their_order(reference, order):
    candidate = dying_candidate(reference, order)
    if candidate is None:
        return

    def matched(n):
        grams = {tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)}
        return any(tuple(candidate[i : i + n]) in grams for i in range(len(candidate) - n + 1))
    orders = range(1, min(4, len(candidate)) + 1)
    assert [n for n in orders if not matched(n)][:1] == ([order] if order else [])


def test_bleu_table_ids():
    # tokens get ids in order of first appearance; an n-gram's key is its
    # prefix's id times V + 1 plus its last token's id, its id the key's rank
    table = BleuReferences([list("abab"), list("ba")])
    assert table.vocabulary == {"a": 0, "b": 1}
    assert table.lengths.tolist() == [4, 2]
    assert [g.tolist() for g in table.ngrams] == [[0, 1], [1, 3], [0, 4], [1]]
    # bigrams "ab" (id 0) twice and "ba" (id 1) once in sentence 0, "ba" in 1
    assert table.keys[1].tolist() == [0, 1, 3] and table.counts[1].tolist() == [2, 1, 1]
    assert table.keys[3].tolist() == [0] and table.counts[3].tolist() == [1]


def test_bleu_table_without_long_references():
    # no reference holds a trigram, so a candidate of 3 or more tokens has
    # none to match and scores 0, and a shorter one is scored on its orders
    table = BleuReferences([list("ab"), list("b")])
    assert len(table.ngrams) == 2
    candidates = [list("ab"), list("abab"), list("b"), list("ba")]
    assert table.scores([0, 0, 1, 0], candidates).tolist() == [1.0, 0.0, 1.0, 0.0]


def test_bleu_table_rejects_bad_batches():
    table = BleuReferences([list("ab"), []])
    with pytest.raises(ValueError, match="non-empty"):
        table.scores([0, 1], [list("ab"), list("ab")])
    with pytest.raises(ValueError, match="candidates"):
        table.scores([0, 0], [list("ab")])
    assert table.scores([], []).tolist() == []
    assert BleuReferences([[]]).scores([], []).tolist() == []


def test_bleu_table_rejects_indices_out_of_range():
    # -1 would read sentence 1's length but key its n-grams under -1
    table = BleuReferences([list("ab"), list("cd")])
    for index in (-1, 2):
        with pytest.raises(ValueError, match=r"0\.\.1"):
            table.scores([0, index], [list("ab"), list("cd")])
    assert table.scores([1], [list("cd")]).tolist() == [1.0]


@given(st.lists(BLEU_REFERENCE, min_size=1, max_size=6))
def test_bleu_table_unigram_ids_are_token_ids(references):
    # the screen in flat_scores keys a bigram by its two token ids
    table = BleuReferences(references)
    assert table.ngrams[0].tolist() == list(range(len(table.vocabulary)))


def test_relative_bleu():
    tokens = "a b c d".split()
    assert relative_bleu(tokens, tokens, max_bleu=0.6) == pytest.approx(1.0 / 0.6)
    assert relative_bleu(["x"], tokens, max_bleu=0.6) == 0.0
    with pytest.raises(ValueError):
        relative_bleu(tokens, tokens, max_bleu=0.0)


@pytest.mark.parametrize("max_bleu", [1e-320, math.inf, math.nan, True, 10**400])
def test_relative_bleu_rejects_a_ceiling_whose_reciprocal_overflows(max_bleu):
    # 1 / 1e-320 is inf, so every score would be inf: the one-line message of
    # the config's and `rislink metrics`' checks, which share the rule (a
    # bool, and an int beyond the float range, are not ceilings either)
    with pytest.raises(ValueError, match="^max_bleu must be a positive finite number whose "
                                         "reciprocal is finite, got "):
        relative_bleu(["a"], ["a"], max_bleu)


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


@pytest.mark.parametrize("exponent", [-1074, -1000, -664, 664, 1000, 1020])
def test_cosine_power_of_two_scaling_is_exact(exponent):
    # vectors of 1e200 squared to inf and gave nan (0.0 against a unit
    # vector), and vectors of 1e-200 squared to 0 and were "zero vectors":
    # each vector is now scaled by a power of two first, so any finite,
    # nonzero magnitude gives bitwise the cosine of the unscaled vectors
    rng = np.random.default_rng(8)
    a, b = rng.uniform(0.5, 1.0, size=(2, 8)) * rng.choice([-1.0, 1.0], size=(2, 8))
    base = cosine_similarity(a, b)
    if exponent == -1074:  # the smallest subnormal, which only 0 and 1 scale exactly
        a = np.array([1.0, -1.0, 0.0, 1.0])
        b, base = a, cosine_similarity(a, a)
    with np.errstate(all="raise"):
        assert cosine_similarity(a * 2.0**exponent, b) == base
        assert cosine_similarity(a * 2.0**exponent, b * 2.0**exponent) == base
        assert cosine_similarity([1e200, 1e200], [1e200, 1e200]) == pytest.approx(1.0)
        assert cosine_similarity([1e-200, 1e-200], [1.0, 1.0]) == pytest.approx(1.0)


# --- error rates ----------------------------------------------------------------


def test_bit_error_rate():
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert bit_error_rate(a, a) == 0.0
    assert bit_error_rate(a, 1 - a) == 1.0
    assert bit_error_rate(a, np.array([0, 1, 0, 0], dtype=np.uint8)) == 0.25
    with pytest.raises(ValueError):
        bit_error_rate(a, a[:2])


def test_bit_error_rates_per_segment():
    sent = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=np.uint8)
    received = np.array([0, 0, 1, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
    # the second segment is empty, the fourth one bit long; bit 7 differs but
    # lies in no segment, so it counts nowhere
    starts, sizes = [0, 4, 4, 6, 8], [4, 0, 2, 1, 1]
    rates = bit_error_rates(sent, received, starts, sizes)
    expected = [bit_error_rate(sent[a : a + n], received[a : a + n])
                for a, n in zip(starts, sizes)]
    assert rates.tolist() == expected == [0.25, 0.0, 0.5, 1.0, 0.0]
    with pytest.raises(ValueError):
        bit_error_rates(sent, received[:3], [0], [3])


def test_char_error_rate():
    assert char_error_rate("abc", "abc") == 0.0
    assert char_error_rate("abc", "axc") == pytest.approx(1 / 3)
    assert char_error_rate("", "") == 0.0
    assert char_error_rate("abc", "") == 1.0
    assert levenshtein("kitten", "sitting") == 3


def levenshtein_dp(a: str, b: str) -> int:
    """Reference O(len(a) * len(b)) dynamic program, one row at a time."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


# a small alphabet makes matches common; two non-ASCII letters and a CJK one
TEXT = st.text(alphabet="ab c.éß漢", max_size=140)


@st.composite
def string_pairs(draw):
    """Independent strings, equal strings, or a string and a few edits of it."""
    a = draw(TEXT)
    kind = draw(st.sampled_from(["independent", "equal", "edited"]))
    if kind == "independent":
        return a, draw(TEXT)
    b = list(a)
    if kind == "edited":
        edits = st.tuples(st.sampled_from("sid"), st.integers(0, 200), st.sampled_from("xé"))
        for op, at, ch in draw(st.lists(edits, min_size=1, max_size=6)):
            at = at % (len(b) + 1)
            if op == "i":
                b.insert(at, ch)
            elif at < len(b):
                if op == "s":
                    b[at] = ch
                else:
                    del b[at]
    return a, "".join(b)


@given(string_pairs())
@example(("", ""))
@example(("", "xyz"))
@example(("a" * 65, "a" * 65))
@example(("ab" * 40, "ba" * 40))  # both longer than 64 characters
@example(("é漢" * 50, "é" * 70))
def test_levenshtein_matches_dp(pair):
    a, b = pair
    distance = levenshtein_dp(a, b)
    assert levenshtein(a, b) == levenshtein(b, a) == distance
    if a == b:
        assert distance == 0


# references of 0 to 70 characters: the lanes hold 1 to 64, the rest fall
# back to levenshtein; texts also draw characters that no reference holds
REFERENCE = st.text(alphabet="ab c.é漢", max_size=70)
DECODED = st.text(alphabet="ab c.é漢xZ🙂", max_size=90)


def as_columns(lanes, texts):
    """The arguments EditReferences takes for `texts`: their characters' peq
    columns, end to end, and each text's length."""
    return lanes.columns("".join(texts)), [len(t) for t in texts]


@st.composite
def decoded_rows(draw):
    """Reference sentences, and texts to score against some of them: edits
    of their reference or independent texts."""
    references = draw(st.lists(REFERENCE, min_size=1, max_size=8))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        k = draw(st.integers(0, len(references) - 1))
        text = draw(st.one_of(DECODED, st.just(references[k])))
        if text and draw(st.booleans()):
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(DECODED) + text[at + 1 :]
        rows.append((k, text))
    return references, rows


@given(decoded_rows())
@example((["a" * 64, "b" * 65, "ab c." * 13], [(0, "a" * 63 + "x"), (1, "b" * 64),
                                             (2, ""), (0, "")]))
@example((["", "é漢 é"], [(0, "xZ"), (1, "🙂"), (1, "漢 éé"), (0, "")]))
@example((["abc", "cab"], [(0, "xyz"), (1, "ZZZZZZ"), (0, "abc")]))
def test_lane_edit_distance_matches_levenshtein(case):
    # the DP is the oracle: levenshtein steps the same recurrence as the lanes
    references, rows = case
    lanes = EditReferences(references)
    indices = [k for k, _ in rows]
    texts = [text for _, text in rows]
    distances = lanes.distances(indices, *as_columns(lanes, texts))
    rates = lanes.char_error_rates(indices, *as_columns(lanes, texts))
    expected = [levenshtein_dp(references[k], t) for k, t in rows]
    assert distances.tolist() == expected
    assert rates.tolist() == [d / max(len(references[k]), len(t), 1)
                              for d, (k, t) in zip(expected, rows)]


def test_lane_edit_distance_rejects_indices_out_of_range():
    lanes = EditReferences(["abc", "d"])
    for index in (-1, 2):
        with pytest.raises(ValueError, match=r"0\.\.1"):
            lanes.distances([0, index], *as_columns(lanes, ["abc", "d"]))
        with pytest.raises(ValueError, match=r"0\.\.1"):
            lanes.char_error_rates([index], *as_columns(lanes, ["d"]))


def test_lane_edit_distance_characters_in_no_reference():
    # characters outside every reference match nothing; they are neither
    # dropped nor merged, so an all-foreign text costs max(m, n)
    lanes = EditReferences(["abc", "abcd" * 16])
    assert lanes.alphabet.tolist() == [ord(ch) for ch in "abcd"]
    texts = ["xyz", "xyzw", "Z" * 70, "abcX" + "abcd" * 15]
    assert lanes.distances([0, 0, 1, 1], *as_columns(lanes, texts)).tolist() == [3, 4, 70, 1]


def test_lane_edit_distance_one_call_of_mixed_lanes():
    # one call over many lanes: one text far longer than the rest, so that
    # most lanes stop long before the last step, empty texts, and references
    # of 0 to 90 characters, those over 64 scored off the lanes
    rng = np.random.default_rng(3)
    alphabet = list("abc .xé")
    references = ["".join(rng.choice(alphabet[:5], size=n)) for n in rng.integers(0, 91, 40)]
    references[5] = ""
    assert max(map(len, references)) > 64
    indices = rng.integers(0, len(references), 300).tolist()
    assert 5 in indices
    texts = ["".join(rng.choice(alphabet, size=n)) for n in rng.integers(0, 12, 300)]
    texts[7] = "".join(rng.choice(alphabet, size=1000))
    texts[::25] = [""] * 12
    lanes = EditReferences(references)
    distances = lanes.distances(indices, *as_columns(lanes, texts))
    assert distances.tolist() == [levenshtein(references[k], t) for k, t in zip(indices, texts)]


# --- scoring from symbol indices --------------------------------------------

# the sixbit alphabet plus a non-ASCII letter pair, a non-ASCII digit and a
# tab, all of which tokenize treats as word or space characters
SYMBOLS = "".join(dict.fromkeys(SIXBIT_ALPHABET + "éß_٣\t "))
SYMBOL_TEXT = st.text(alphabet=SYMBOLS, max_size=30)


@st.composite
def symbol_rows(draw):
    """Reference sentences, and texts over SYMBOLS to score against some of
    them: empty ones, their reference, or independent texts, which often put
    a word run at each end of a text."""
    references = draw(st.lists(SYMBOL_TEXT, min_size=1, max_size=6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, len(references) - 1))
        rows.append((k, draw(st.one_of(SYMBOL_TEXT, st.just(references[k]), st.just("")))))
    return references, rows


@given(symbol_rows())
@example((["ab cd.", "cd"], [(0, "ab"), (1, ""), (0, "cd"), (1, "cd,ab"), (0, ""), (1, "ab")]))
@example((["Zeta ab é٣ß_x", "\t"], [(0, "eta ab"), (0, "é٣ß_x\t"), (1, "\t\t"), (0, "ab")]))
@example((["a" * 70], [(0, "a" * 69 + "b"), (0, "")]))
@example((["abc ab"], [(0, "abcd"), (0, "abc"), (0, "ab")]))  # one past the longest token
@example((["abc ab"], [(0, "abd"), (0, "abdc ab")]))  # leaves the vocabulary after "ab"
@example((["ab a"], [(0, "ababab"), (0, "abab.")]))  # longer than the longest token
@example((["ab"], [(0, "dab"), (0, "d ab d.")]))  # "d" starts no vocabulary token
@example(([""], [(0, "ab"), (0, ""), (0, "a b.")]))  # an empty vocabulary
# the longest token "abcd": "ab" a proper prefix of it, "abcde" it and one
# symbol more as the last token of the codes, "ax" dying at its second symbol
@example((["abcd a b"], [(0, "ab abcd abcde"), (0, "ax xa a.b"), (0, ""), (0, "abcde")]))
@example((["abcd a b"], [(0, "b abc"), (0, "x abcd")]))  # "abcd" ends the codes
@example((["ab"], []))  # an empty chunk
@example((["ab"], [(0, ""), (0, "  ")]))
# 13 prefix ids in a uint8 table, but prefix 4 times the stride of 68 symbols
# is past 255
@example((["abcdefghij abcdefghix"], [(0, "abcdefghij abcdefghix"), (0, "abcdefghix"),
                                      (0, "abcdefghi abcdefghijk")]))
def test_symbol_scoring_equals_the_string_path(case):
    # texts as SYMBOLS indices, end to end: the tokenizer's ids and owners
    # are tokenize + vocabulary.get (id V for every token the vocabulary does
    # not hold, however far its prefixes run inside it), and edit distances
    # and BLEU scores from indices equal levenshtein and bleu on the strings
    references, rows = case
    table = BleuReferences(map(tokenize, references))
    tokenizer = SymbolTokenizer(SYMBOLS, table.vocabulary)
    texts = [text for _, text in rows]
    tokens = [tokenize(t) for t in texts]
    codes, counts = as_symbols(texts)
    flat = tokenizer.flatten(codes, counts)
    size = len(table.vocabulary)
    assert flat[0].tolist() == [table.vocabulary.get(t, size) for ts in tokens for t in ts]
    assert flat[1].tolist() == [k for k, ts in enumerate(tokens) for _ in ts]
    for got, expected in zip(flat, _flatten(tokens, table.vocabulary)):
        assert got.tolist() == expected.tolist()

    indices = [k for k, _ in rows]
    edits = EditReferences(references)
    distances = edits.distances(indices, edits.columns(SYMBOLS)[codes], counts)
    assert distances.tolist() == [levenshtein(references[k], t) for k, t in rows]
    scored = [(k, t) for k, t in rows if table.lengths[k]]  # BLEU needs reference tokens
    scores = table.flat_scores([k for k, _ in scored],
                               tokenizer.flatten(*as_symbols([t for _, t in scored])))
    assert scores.tolist() == [bleu(tokenize(t), tokenize(references[k])) for k, t in scored]


def as_symbols(texts):
    """Texts over SYMBOLS as their symbol indices, end to end, and each
    text's length."""
    codes = np.array([SYMBOLS.index(ch) for ch in "".join(texts)], dtype=np.uint8)
    return codes, np.array([len(t) for t in texts], dtype=np.int64)


def test_symbol_tokenizer_needs_single_characters():
    with pytest.raises(ValueError, match="single-character"):
        SymbolTokenizer(["a", "bc"], {"a": 0})
    empty = SymbolTokenizer("ab", {})
    assert empty.step.tolist() == [[1, 1], [1, 1]]
    assert empty.flatten(np.array([0, 1, 0], dtype=np.uint8), [2, 1])[0].tolist() == [0, 0]


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
