"""Sequence-quality metrics and simulated weak-feedback oracles.

The per-sentence signal is gGLEU: clipped n-gram matches are pooled across
all orders 1..max_n, and the score is the minimum of precision and recall
over those pooled counts. It lives in [0, 1], needs no smoothing, and has
no brevity penalty (recall covers short outputs). Corpus BLEU is the usual
geometric mean of corpus-level modified precisions times a brevity penalty,
used for final evaluation only.

Feedback oracles close over a reference store and hand the learner nothing
but a scalar; they also count how often they were consulted, which lets the
harness verify that references never leak elsewhere.
"""

from __future__ import annotations

import math
from collections import Counter

from .model import END, START
from .objectives import pairwise_feedback

__all__ = [
    "ngram_counts",
    "ggleu",
    "corpus_ggleu",
    "corpus_bleu",
    "clean_hypothesis",
    "FeedbackOracle",
]


def clean_hypothesis(tokens):
    """Trim a raw sampled id sequence for scoring: cut at the first END and
    drop any stray START tokens. Everything else (UNK included) stays."""
    out = []
    for tok in tokens:
        if tok == END:
            break
        if tok == START:
            continue
        out.append(tok)
    return out


def ngram_counts(tokens, max_n):
    """Multiset of all n-grams of ``tokens`` for 1 <= n <= max_n."""
    counts = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i:i + n])] += 1
    return counts


def _check_max_n(what, max_n):
    if max_n < 1:
        raise ValueError(f"{what}: max_n must be >= 1, got {max_n}")


def _pooled_match_stats(hypothesis, reference, max_n):
    hyp = ngram_counts(hypothesis, max_n)
    ref = ngram_counts(reference, max_n)
    matches = sum(min(c, ref[g]) for g, c in hyp.items())
    return matches, sum(hyp.values()), sum(ref.values())


def ggleu(hypothesis, reference, max_n=4):
    """min(precision, recall) over pooled n-gram matches up to ``max_n``.

    >>> ggleu("a b c".split(), "a b d".split())
    0.5
    """
    _check_max_n("ggleu", max_n)
    if len(reference) == 0:
        raise ValueError("ggleu: reference must be non-empty")
    if len(hypothesis) == 0:
        return 0.0
    matches, hyp_total, ref_total = _pooled_match_stats(hypothesis, reference, max_n)
    if matches == 0:
        return 0.0
    return min(matches / hyp_total, matches / ref_total)


def corpus_ggleu(hypotheses, references, max_n=4):
    """gGLEU with match/total counts pooled over a whole corpus."""
    _check_max_n("corpus_ggleu", max_n)
    if len(hypotheses) != len(references):
        raise ValueError(
            f"corpus_ggleu: got {len(hypotheses)} hypotheses for "
            f"{len(references)} references"
        )
    matches = hyp_total = ref_total = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) == 0:
            raise ValueError("corpus_ggleu: references must be non-empty")
        m, ht, rt = _pooled_match_stats(hyp, ref, max_n)
        matches += m
        hyp_total += ht
        ref_total += rt
    if matches == 0 or hyp_total == 0:
        return 0.0
    return min(matches / hyp_total, matches / ref_total)


def corpus_bleu(hypotheses, references, max_n=4):
    """Corpus-level BLEU: geometric mean of modified n-gram precisions
    times the brevity penalty. Zero if any order has zero matches."""
    _check_max_n("corpus_bleu", max_n)
    if len(hypotheses) != len(references):
        raise ValueError(
            f"corpus_bleu: got {len(hypotheses)} hypotheses for "
            f"{len(references)} references"
        )
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) == 0:
            raise ValueError("corpus_bleu: references must be non-empty")
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_n = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            ref_n = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            matches[n - 1] += sum(min(c, ref_n[g]) for g, c in hyp_n.items())
            totals[n - 1] += sum(hyp_n.values())
    # orders the corpus is too short to contain contribute nothing; an order
    # that exists but has no matches zeroes the whole score
    present = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not present or any(m == 0 for m, _ in present):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in present) / len(present)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


class FeedbackOracle:
    """Scores sampled outputs against hidden references.

    ``kind`` selects the signal: ``ggleu-loss`` returns the task loss
    -gGLEU(sample, reference) for one sample; ``pair-binary`` and
    ``pair-continuous`` compare two samples via
    :func:`banditseq.objectives.pairwise_feedback`. ``calls`` counts every
    consultation so reference isolation can be audited.
    """

    KINDS = ("ggleu-loss", "pair-binary", "pair-continuous")

    def __init__(self, kind, references, max_n=4, clean=False):
        if kind not in self.KINDS:
            raise ValueError(f"unknown feedback kind {kind!r}")
        _check_max_n("FeedbackOracle", max_n)
        self.kind = kind
        self.references = dict(references)
        self.max_n = max_n
        self.clean = clean
        self.calls = 0

    def _reference(self, sentence_id):
        try:
            return self.references[sentence_id]
        except KeyError:
            raise KeyError(f"no reference stored for sentence id {sentence_id!r}")

    def _prepare(self, tokens):
        return clean_hypothesis(tokens) if self.clean else tokens

    def loss(self, sentence_id, tokens):
        """Task loss of one sample: -gGLEU against the hidden reference."""
        self.calls += 1
        hyp = self._prepare(tokens)
        return -ggleu(hyp, self._reference(sentence_id), self.max_n)

    def pair_loss(self, sentence_id, tokens_pos, tokens_neg):
        """Pairwise feedback for (positive sample, perturbed sample)."""
        self.calls += 1
        ref = self._reference(sentence_id)
        d_pos = -ggleu(self._prepare(tokens_pos), ref, self.max_n)
        d_neg = -ggleu(self._prepare(tokens_neg), ref, self.max_n)
        kind = "binary" if self.kind == "pair-binary" else "continuous"
        return pairwise_feedback(d_pos, d_neg, kind)

    def __call__(self, sentence_id, *samples):
        if self.kind == "ggleu-loss":
            (tokens,) = samples
            return self.loss(sentence_id, tokens)
        tokens_pos, tokens_neg = samples
        return self.pair_loss(sentence_id, tokens_pos, tokens_neg)

