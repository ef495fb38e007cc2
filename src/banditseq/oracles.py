"""Exact-risk oracles for tiny instances.

Sequence and pair sampling have finitely many outcomes once ``max_len`` is
fixed. These oracles walk every one of them, so expectations and their
gradients can be computed exactly and compared against the estimators in
:mod:`banditseq.objectives`. Their cost grows as V**max_len (sequences) and
max_len * V**(2 max_len) (pairs), so the risk oracles refuse instances
beyond a guard.

Each sequence is scored teacher-forced, through the model's one forward and
its single reverse-pass node (:func:`~banditseq.model.sequence_log_prob`).
The pair oracle keeps the forward of the roll-out that finds the greedy
prefix and scores every outcome's two members on its logits. The risk gradients sum over
outcomes in enumeration order, so they agree with the estimators to
rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .autodiff import Tape, add, exp, log_likelihood, mul
from .model import (
    END,
    Forward,
    SampledPair,
    _logits_node,
    rollout,
    sequence_log_prob,
)

__all__ = [
    "count_sequences",
    "enumerate_sequences",
    "exact_risk_and_grad",
    "enumerate_pair_outcomes",
    "exact_pr_risk_and_grad",
]


def _check_guard(n, guard, what):
    if n > guard:
        raise ValueError(f"enumeration of {n} {what} exceeds the guard of "
                         f"{guard}")


def count_sequences(vocab_size, max_len):
    """Number of distinct outcomes of the sampling process up to max_len."""
    non_end = vocab_size - 1
    total = 0
    for k in range(1, max_len + 1):
        total += non_end ** (k - 1)
    return total + non_end ** max_len


def _sequences(vocab_size, max_len, prefix=()):
    """Every sampling outcome in prefix order: each END-terminated sequence
    of length <= max_len and each END-free sequence of exactly max_len (the
    truncation cases)."""
    for tok in range(vocab_size):
        seq = prefix + (tok,)
        if tok == END or len(seq) == max_len:
            yield seq
        else:
            yield from _sequences(vocab_size, max_len, seq)


def enumerate_sequences(source, params, max_len):
    """All sampling outcomes as ``(tokens, log-probability)``; together
    their probabilities sum to one."""
    return [(seq, float(sequence_log_prob(source, seq, params).data))
            for seq in _sequences(params.vocab_size, max_len)]


def exact_risk_and_grad(source, params, delta_fn, max_len, guard=1_000_000):
    """Exact expected loss and its gradient by full enumeration.

    Sums ``p(y) * delta_fn(y)`` over every sampling outcome up to
    ``max_len``, then differentiates the whole expression.
    """
    _check_guard(count_sequences(params.vocab_size, max_len), guard,
                 "sequences")
    with Tape() as tape:
        risk = None
        for tokens in _sequences(params.vocab_size, max_len):
            lp = sequence_log_prob(source, tokens, params)
            term = mul(exp(lp), float(delta_fn(list(tokens))))
            risk = term if risk is None else add(risk, term)
    grads = tape.backward(risk, params.tensors)
    return float(risk.data), grads


def _pair_outcomes(source, params, t_y, guard):
    """The greedy prefix of pair sampling (``t_y`` argmax steps, not
    stopping at END) and every ``(position, w, w_prime, joint log-prob)``
    outcome, both members scored on the logits that roll-out kept."""
    vocab = params.vocab_size
    _check_guard(t_y * vocab ** (2 * t_y), guard, "pair outcomes")
    greedy = []

    def follow_argmax(_, logits, __):
        greedy.append(int(np.argmax(logits[0])))
        return greedy[-1:], (True,)

    forward = Forward()
    rollout([source], params, t_y, follow_argmax, forward)
    logits = _logits_node(forward)
    words = [list(w) for w in itertools.product(range(vocab), repeat=t_y)]
    return greedy, (
        (position, w, w_prime, add(log_likelihood(logits, w),
                                   log_likelihood(logits, w_prime, position)))
        for position in range(1, t_y + 1) for w in words for w_prime in words)


def enumerate_pair_outcomes(source, params, t_y, guard=1_000_000):
    """Every (position, positive, perturbed) outcome of pair sampling with
    its probability, as ``(SampledPair, probability)`` tuples."""
    greedy, outcomes = _pair_outcomes(source, params, t_y, guard)
    return [(SampledPair(tokens_pos=w, tokens_neg=w_prime,
                         greedy=list(greedy), position=position,
                         log_prob=float(lp.data)),
             math.exp(lp.data) / t_y)
            for position, w, w_prime, lp in outcomes]


def exact_pr_risk_and_grad(source, params, pair_delta_fn, t_y,
                           guard=1_000_000):
    """Exact pairwise-ranking risk and gradient by enumerating every pair
    outcome. The greedy conditioning prefix is held fixed (it is locally
    constant in the parameters), matching the estimator's semantics; the
    step distributions are teacher-forced on it."""
    with Tape() as tape:
        risk = None
        for _, w, w_prime, lp in _pair_outcomes(source, params, t_y,
                                                guard)[1]:
            term = mul(exp(lp), float(pair_delta_fn(w, w_prime)) / t_y)
            risk = term if risk is None else add(risk, term)
    grads = tape.backward(risk, params.tensors)
    return float(risk.data), grads
