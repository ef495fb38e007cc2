import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditseq import metrics
from banditseq.metrics import (
    CorpusCounts,
    FeedbackOracle,
    clean_hypothesis,
    corpus_bleu,
    corpus_ggleu,
    ggleu,
    ngram_counts,
)

from conftest import reference_corpus_bleu, reference_corpus_ggleu, \
    reference_ngram_counts


# --- independent oracles -----------------------------------------------
# Deliberately different code paths from the package: explicit index loops
# and list scans instead of Counter arithmetic.


def brute_force_ggleu(hyp, ref, max_n=4):
    matches = 0
    hyp_total = 0
    ref_total = 0
    for n in range(1, max_n + 1):
        hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        hyp_total += len(hyp_grams)
        ref_total += len(ref_grams)
        remaining = list(ref_grams)
        for g in hyp_grams:
            if g in remaining:
                remaining.remove(g)
                matches += 1
    if matches == 0 or hyp_total == 0:
        return 0.0
    return min(matches / hyp_total, matches / ref_total)


def brute_force_bleu(hyps, refs, max_n=4):
    log_terms = []
    for n in range(1, max_n + 1):
        match = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total += len(hyp_grams)
            remaining = list(ref_grams)
            for g in hyp_grams:
                if g in remaining:
                    remaining.remove(g)
                    match += 1
        if total == 0:
            continue  # corpus too short for this order
        if match == 0:
            return 0.0
        log_terms.append(math.log(match / total))
    if not log_terms:
        return 0.0
    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(log_terms) / len(log_terms))


def random_tokens(rng, alphabet=6, lo=0, hi=9):
    return [int(t) for t in rng.integers(0, alphabet,
                                         size=int(rng.integers(lo, hi)))]


class TestGgleu:
    def test_perfect_match(self):
        assert ggleu(list("abcd"), list("abcd")) == 1.0

    def test_disjoint(self):
        assert ggleu(list("abc"), list("xyz")) == 0.0

    def test_hand_derived_example(self):
        # hyp "a b c" vs ref "a b d": 3 pooled matches out of 6 and 6
        assert ggleu("a b c".split(), "a b d".split()) == pytest.approx(0.5)

    def test_empty_hypothesis_scores_zero(self):
        assert ggleu([], list("ab")) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            ggleu(list("ab"), [])

    def test_short_sequences_skip_long_orders(self):
        # single-token pair: only unigrams exist, still a perfect match
        assert ggleu(["x"], ["x"]) == 1.0

    def test_reversal_lowers_score(self):
        ref = list("abcde")
        assert ggleu(ref[::-1], ref) < 1.0

    def test_matches_brute_force_on_1000_random_cases(self, rng):
        for _ in range(1000):
            hyp = random_tokens(rng)
            ref = random_tokens(rng, lo=1)
            assert ggleu(hyp, ref) == pytest.approx(
                brute_force_ggleu(hyp, ref), abs=1e-12)

    @given(st.lists(st.integers(0, 4), min_size=0, max_size=12),
           st.lists(st.integers(0, 4), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_clipped(self, hyp, ref):
        score = ggleu(hyp, ref)
        assert 0.0 <= score <= 1.0
        counts_h = ngram_counts(hyp, 4)
        counts_r = ngram_counts(ref, 4)
        matches = sum(min(c, counts_r[g]) for g, c in counts_h.items())
        assert matches <= sum(counts_h.values())
        assert matches <= sum(counts_r.values())


class TestCorpusGgleu:
    def test_identity_corpus(self):
        sents = [list("abc"), list("de")]
        assert corpus_ggleu(sents, sents) == 1.0

    def test_pools_counts_across_sentences(self):
        hyps = [list("ab"), list("xy")]
        refs = [list("ab"), list("ab")]
        # pooled: matches 3 (a, b, "ab"), hyp total 6, ref total 6
        assert corpus_ggleu(hyps, refs) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_ggleu([list("ab")], [])


class TestCorpusBleu:
    def test_identical_corpora(self):
        sents = [list("abcde"), list("fghij")]
        assert corpus_bleu(sents, sents) == 1.0

    def test_identical_short_corpora_still_one(self):
        # orders the corpus cannot contain are skipped, not zeroed
        sents = [list("ab"), list("c")]
        assert corpus_bleu(sents, sents) == 1.0

    def test_all_empty_hypotheses(self):
        assert corpus_bleu([[], []], [list("ab"), list("cd")]) == 0.0

    def test_zero_match_order_zeroes_bleu(self):
        # no bigram matches at all -> 0 despite unigram overlap
        assert corpus_bleu([list("ab")], [list("ba")]) == 0.0

    def test_matches_independent_implementation(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 4))
            hyps = [random_tokens(rng, lo=1, hi=10) for _ in range(n)]
            refs = [random_tokens(rng, lo=4, hi=10) for _ in range(n)]
            assert corpus_bleu(hyps, refs) == pytest.approx(
                brute_force_bleu(hyps, refs), abs=1e-9)

    def test_two_sentence_toy_corpus(self):
        hyps = ["the cat sat on the mat".split(), "a b c d".split()]
        refs = ["the cat sat on a mat".split(), "a b c e".split()]
        assert corpus_bleu(hyps, refs) == pytest.approx(
            brute_force_bleu(hyps, refs), abs=1e-12)

    def test_brevity_penalty_applies(self):
        hyp = [list("ab")]
        ref = [list("abcd")]
        short = corpus_bleu(hyp, ref, max_n=2)
        assert short == pytest.approx(math.exp(1 - 4 / 2)
                                      * math.sqrt((2 / 2) * (1 / 1)))


@pytest.mark.parametrize("score", [
    lambda n: ggleu(["a"], ["a"], n),
    lambda n: ggleu([], ["a"], n),
    lambda n: corpus_ggleu([["a"]], [["a"]], n),
    lambda n: corpus_bleu([["a"]], [["a"]], n),
    lambda n: FeedbackOracle("ggleu-loss", {0: ["a"]}, n),
])
@pytest.mark.parametrize("max_n", [0, -1])
def test_max_n_below_one_rejected(score, max_n):
    with pytest.raises(ValueError, match="max_n"):
        score(max_n)


def random_sentence(rng, words, lo=0):
    return [words[int(i)] for i in
            rng.integers(0, len(words), size=int(rng.integers(lo, 9)))]


def random_corpus(rng, words):
    """A few (hypothesis, reference) pairs over a small alphabet of
    ``words``: hypotheses may be empty, references have at least one
    token."""
    size = int(rng.integers(1, 5))
    return [random_sentence(rng, words) for _ in range(size)], \
        [random_sentence(rng, words, lo=1) for _ in range(size)]


WORDS = {"int": [3, 4, 5, 6], "str": ["a", "b", "c", "d", "e"]}


class TestExactScores:
    """The shared counts change no score: equal with ``==`` to the order
    oracle (one n-gram loop per sentence and per score) in ``conftest``."""

    @pytest.mark.parametrize("kind", sorted(WORDS))
    def test_counts_equal_oracle_in_insertion_order(self, rng, kind):
        for _ in range(1000):
            tokens = random_sentence(rng, WORDS[kind])
            max_n = int(rng.integers(1, 7))
            assert list(ngram_counts(tokens, max_n).items()) == \
                list(reference_ngram_counts(tokens, max_n).items())

    @pytest.mark.parametrize("kind", sorted(WORDS))
    def test_scores_equal_oracle(self, rng, kind):
        for _ in range(1500):
            hyps, refs = random_corpus(rng, WORDS[kind])
            max_n = int(rng.integers(1, 7))
            for ours, oracle in ((corpus_ggleu, reference_corpus_ggleu),
                                 (corpus_bleu, reference_corpus_bleu)):
                got = ours(hyps, refs, max_n)
                want = oracle(hyps, refs, max_n)
                assert got == want and repr(got) == repr(want)
            assert ggleu(hyps[0], refs[0], max_n) == \
                reference_corpus_ggleu(hyps[:1], refs[:1], max_n)

    def test_one_token_references_and_empty_hypotheses(self):
        for max_n in range(1, 7):
            for hyps, refs in (([["a"], []], [["a"], ["b"]]),
                               ([[], []], [["a"], ["a"]]),
                               ([["a", "a"]], [["a"]])):
                assert corpus_ggleu(hyps, refs, max_n) == \
                    reference_corpus_ggleu(hyps, refs, max_n)
                assert corpus_bleu(hyps, refs, max_n) == \
                    reference_corpus_bleu(hyps, refs, max_n)

    def test_counted_corpus_scores_equal_raw_lists(self, rng):
        for _ in range(1000):
            hyps, refs = random_corpus(rng, WORDS["int"])
            max_n = int(rng.integers(1, 7))
            counted_h = CorpusCounts(hyps, max_n)
            counted_r = CorpusCounts(refs, max_n)
            for score in (corpus_ggleu, corpus_bleu):
                want = score(hyps, refs, max_n)
                for h, r in ((counted_h, refs), (hyps, counted_r),
                             (counted_h, counted_r)):
                    assert score(h, r, max_n) == want

    @pytest.mark.parametrize("score", [corpus_ggleu, corpus_bleu])
    def test_counts_for_another_max_n_rejected(self, score):
        sents = [["a", "b", "c"]]
        with pytest.raises(ValueError, match="max_n"):
            score(CorpusCounts(sents, 2), sents, 4)
        with pytest.raises(ValueError, match="max_n"):
            score(sents, CorpusCounts(sents, 4), 3)

    @pytest.mark.parametrize("score", [corpus_ggleu, corpus_bleu])
    def test_counted_empty_reference_rejected(self, score):
        refs = CorpusCounts([["a"], []], 4)
        with pytest.raises(ValueError, match="references must be non-empty"):
            score([["a"], ["b"]], refs)

    @pytest.mark.parametrize("score", [corpus_ggleu, corpus_bleu])
    def test_counted_length_mismatch_rejected(self, score):
        with pytest.raises(ValueError, match="1 hypotheses for 2"):
            score(CorpusCounts([["a"]], 4), CorpusCounts([["a"], ["b"]], 4))


class TestCleanHypothesis:
    def test_cuts_at_end_and_drops_start(self):
        assert clean_hypothesis([0, 5, 3, 1, 4]) == [5, 3]

    def test_keeps_unk(self):
        assert clean_hypothesis([2, 5]) == [2, 5]

    def test_no_specials_passthrough(self):
        assert clean_hypothesis([7, 8]) == [7, 8]


class TestFeedbackOracle:
    def test_sample_equals_reference(self):
        oracle = FeedbackOracle("ggleu-loss", {0: list("abc")})
        assert oracle(0, list("abc")) == -1.0

    def test_pair_binary_fires_on_misranking(self):
        oracle = FeedbackOracle("pair-binary", {0: list("abc")})
        # positive member disjoint (worse), perturbed equals the reference
        assert oracle(0, list("xyz"), list("abc")) == 1.0
        # positive member perfect: no misranking, no update signal
        assert oracle(0, list("abc"), list("xyz")) == 0.0

    def test_pair_continuous_signed_difference(self):
        ref = list("abc")
        oracle = FeedbackOracle("pair-continuous", {0: ref})
        hyp_good = list("abc")
        hyp_bad = list("abz")
        expected = (-ggleu(hyp_bad, ref)) - (-ggleu(hyp_good, ref))
        assert oracle(0, hyp_bad, hyp_good) == pytest.approx(expected)
        assert oracle(0, hyp_good, hyp_bad) == pytest.approx(-expected)

    def test_counts_calls(self):
        oracle = FeedbackOracle("ggleu-loss", {0: list("ab")})
        for _ in range(5):
            oracle(0, list("ab"))
        assert oracle.calls == 5

    @pytest.mark.parametrize("kind,samples", [
        ("ggleu-loss", 0), ("ggleu-loss", 2),
        ("pair-binary", 1), ("pair-continuous", 3),
    ])
    def test_wrong_sample_count_rejected_uncounted(self, kind, samples):
        oracle = FeedbackOracle(kind, {0: list("ab")})
        expected = 1 if kind == "ggleu-loss" else 2
        with pytest.raises(ValueError,
                           match=f"{kind} feedback takes {expected} "):
            oracle(0, *[list("ab")] * samples)
        assert oracle.calls == 0

    def test_unknown_sentence_id(self):
        oracle = FeedbackOracle("ggleu-loss", {0: [3, 4]})
        with pytest.raises(KeyError, match="5"):
            oracle(5, [3])
        assert oracle.calls == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FeedbackOracle("bleu-loss", {})

    def test_cleaning_applies_when_enabled(self):
        oracle = FeedbackOracle("ggleu-loss", {0: [5, 6]}, clean=True)
        assert oracle(0, [0, 5, 6, 1, 9]) == -1.0

    def test_values_equal_ggleu_on_token_lists(self):
        rng = random.Random(11)
        refs = {sid: [rng.randrange(3, 9) for _ in range(rng.randrange(1, 9))]
                for sid in range(20)}
        single = FeedbackOracle("ggleu-loss", refs)
        paired = FeedbackOracle("pair-continuous", refs)
        for _ in range(200):
            sid = rng.randrange(20)
            pos, neg = ([rng.randrange(3, 9) for _ in range(rng.randrange(9))]
                        for _ in range(2))
            ref = refs[sid]
            assert single(sid, pos) == -ggleu(pos, ref)
            assert paired(sid, pos, neg) == \
                (-ggleu(pos, ref)) - (-ggleu(neg, ref))

    def test_reference_counted_once(self, monkeypatch):
        counted = []

        def recording(tokens, max_n):
            counted.append(tuple(tokens))
            return ngram_counts(tokens, max_n)

        monkeypatch.setattr(metrics, "ngram_counts", recording)
        ref = [5, 6, 7]
        oracle = FeedbackOracle("pair-binary", {0: ref, 1: [5]})
        for _ in range(4):
            oracle(0, [5, 6], [7])
        assert counted.count(tuple(ref)) == 4   # once per call, not per member
        assert (5,) not in counted              # id 1 was never consulted
        assert len(counted) == 4 + 2 * 4
