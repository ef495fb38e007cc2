"""Sequence-quality metrics and simulated weak-feedback oracles.

The per-sentence signal is gGLEU: clipped n-gram matches are pooled across
all orders 1..max_n, and the score is the minimum of precision and recall
over those pooled counts. It lives in [0, 1], needs no smoothing, and has
no brevity penalty (recall covers short outputs). Corpus BLEU is the usual
geometric mean of corpus-level modified precisions times a brevity penalty,
used for final evaluation only. Both corpus scores take either side as token
lists or as a :class:`CorpusCounts`, so a corpus scored more than once
(references at every validation, hypotheses by both scores) is counted once.

Feedback oracles close over a reference store and hand the learner nothing
but a scalar; they also count how often they were consulted, which lets the
harness verify that references never leak elsewhere. Pairwise feedback is
oriented so that positive values mean the positive member was ranked
*worse* than the perturbation (a misranking): binary feedback fires 1 on
misrankings only, continuous feedback is the signed loss difference.
Minimizing the resulting risk suppresses misranked pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

from .model import END, START

__all__ = [
    "ngram_counts",
    "CorpusCounts",
    "ggleu",
    "corpus_ggleu",
    "corpus_bleu",
    "clean_hypothesis",
    "pairwise_feedback",
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
    """Multiset of all n-grams of ``tokens`` for 1 <= n <= max_n, inserted
    shortest first and left to right."""
    tails = [tokens[i:] for i in range(max_n)]
    return Counter(chain.from_iterable(
        zip(*tails[:n]) for n in range(1, max_n + 1)))


def _check_max_n(what, max_n):
    if max_n < 1:
        raise ValueError(f"{what}: max_n must be >= 1, got {max_n}")


class CorpusCounts:
    """The n-gram counts of a corpus, counted once so that several scores
    can share them: per-sentence ``counts`` and ``lengths``, and
    ``order_totals``, the corpus's number of n-grams of each order
    1..max_n. The corpus scores take one in place of a token-list corpus
    scored with the same ``max_n``."""

    def __init__(self, sentences, max_n):
        _check_max_n("CorpusCounts", max_n)
        self.max_n = max_n
        self.counts = [ngram_counts(tokens, max_n) for tokens in sentences]
        self.lengths = [len(tokens) for tokens in sentences]
        self.order_totals = [sum(max(0, length - n + 1)
                                 for length in self.lengths)
                             for n in range(1, max_n + 1)]

    def __len__(self):
        return len(self.counts)


def _counted_pair(what, hypotheses, references, max_n):
    """Check a corpus pair and return both sides as :class:`CorpusCounts`,
    counting the sides that are token lists."""
    _check_max_n(what, max_n)
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{what}: got {len(hypotheses)} hypotheses for "
            f"{len(references)} references"
        )
    counted = []
    for side in (hypotheses, references):
        if not isinstance(side, CorpusCounts):
            side = CorpusCounts(side, max_n)
        elif side.max_n != max_n:
            raise ValueError(f"{what}: counts for max_n {side.max_n} "
                             f"scored with max_n {max_n}")
        counted.append(side)
    hyps, refs = counted
    if 0 in refs.lengths:
        raise ValueError(f"{what}: references must be non-empty")
    return hyps, refs


def ggleu(hypothesis, reference, max_n=4):
    """min(precision, recall) over pooled n-gram matches up to ``max_n``.

    >>> ggleu("a b c".split(), "a b d".split())
    0.5
    """
    return corpus_ggleu([hypothesis], [reference], max_n)


def corpus_ggleu(hypotheses, references, max_n=4):
    """gGLEU with match/total counts pooled over a whole corpus. Either
    side may be a :class:`CorpusCounts`."""
    hyps, refs = _counted_pair("corpus_ggleu", hypotheses, references, max_n)
    matches = 0
    for hyp_counts, ref_counts in zip(hyps.counts, refs.counts):
        for gram, count in hyp_counts.items():
            if gram in ref_counts:
                matches += min(count, ref_counts[gram])
    hyp_total = sum(hyps.order_totals)
    if matches == 0 or hyp_total == 0:
        return 0.0
    return min(matches / hyp_total, matches / sum(refs.order_totals))


def corpus_bleu(hypotheses, references, max_n=4):
    """Corpus-level BLEU: geometric mean of modified n-gram precisions
    times the brevity penalty. Zero if any order has zero matches. Either
    side may be a :class:`CorpusCounts`."""
    hyps, refs = _counted_pair("corpus_bleu", hypotheses, references, max_n)
    matches = [0] * max_n
    for hyp_counts, ref_counts in zip(hyps.counts, refs.counts):
        for gram, count in hyp_counts.items():
            if gram in ref_counts:
                matches[len(gram) - 1] += min(count, ref_counts[gram])
    # orders the corpus is too short to contain contribute nothing; an order
    # that exists but has no matches zeroes the whole score
    present = [(m, t) for m, t in zip(matches, hyps.order_totals) if t > 0]
    if not present or any(m == 0 for m, _ in present):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in present) / len(present)
    hyp_len, ref_len = sum(hyps.lengths), sum(refs.lengths)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


def pairwise_feedback(delta_pos, delta_neg, kind):
    """Combine two task losses into pairwise feedback.

    ``delta_pos`` belongs to the positive-distribution sample, ``delta_neg``
    to the perturbed one. Binary feedback is 1.0 exactly when the positive
    member scored worse (a misranking; ties give 0). Continuous feedback is
    the signed difference ``delta_pos - delta_neg``, positive on
    misrankings.
    """
    if not (math.isfinite(delta_pos) and math.isfinite(delta_neg)):
        raise ValueError("pairwise_feedback: losses must be finite")
    if kind == "binary":
        return 1.0 if delta_pos > delta_neg else 0.0
    if kind == "continuous":
        return delta_pos - delta_neg
    raise ValueError(f"unknown pairwise feedback kind {kind!r}")


class FeedbackOracle:
    """Scores sampled outputs against hidden references.

    ``kind`` selects the signal: ``ggleu-loss`` returns the task loss
    -gGLEU(sample, reference) for one sample; ``pair-binary`` and
    ``pair-continuous`` compare a (positive, perturbed) pair of samples via
    :func:`pairwise_feedback`. With ``clean`` each sample is trimmed by
    :func:`clean_hypothesis` first. Each call counts the consulted
    reference's n-grams once, and a pair's two members share that count.
    ``calls`` counts every consultation so reference isolation can be
    audited; a call with the wrong number of samples for ``kind`` raises
    ValueError, and one with an unknown sentence id KeyError, and neither
    is counted.
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

    def __call__(self, sentence_id, *samples):
        expected = 1 if self.kind == "ggleu-loss" else 2
        if len(samples) != expected:
            raise ValueError(f"{self.kind} feedback takes {expected} "
                             f"sample(s), got {len(samples)}")
        try:
            reference = self.references[sentence_id]
        except KeyError:
            raise KeyError(f"no reference stored for sentence id {sentence_id!r}")
        self.calls += 1
        ref = CorpusCounts([reference], self.max_n)
        losses = [-corpus_ggleu(
                      [clean_hypothesis(tokens) if self.clean else tokens],
                      ref, self.max_n) for tokens in samples]
        if self.kind == "ggleu-loss":
            return losses[0]
        return pairwise_feedback(*losses, self.kind.removeprefix("pair-"))
