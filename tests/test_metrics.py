import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditseq.metrics import (
    FeedbackOracle,
    clean_hypothesis,
    corpus_bleu,
    corpus_ggleu,
    ggleu,
    ngram_counts,
)


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

    def test_unknown_sentence_id(self):
        oracle = FeedbackOracle("ggleu-loss", {0: list("ab")})
        with pytest.raises(KeyError):
            oracle(1, list("ab"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FeedbackOracle("bleu-loss", {})

    def test_cleaning_applies_when_enabled(self):
        oracle = FeedbackOracle("ggleu-loss", {0: [5, 6]}, clean=True)
        assert oracle(0, [0, 5, 6, 1, 9]) == -1.0
