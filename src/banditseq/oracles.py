"""Exact-risk oracles for tiny instances.

Sequence and pair sampling have finitely many outcomes once ``max_len`` is
fixed. These oracles walk every one of them, so expectations and their
gradients can be computed exactly and compared against the estimators in
:mod:`banditseq.objectives`. Their cost grows as V**max_len (sequences) and
max_len * V**(2 max_len) (pairs), so the risk oracles refuse instances
beyond a guard.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .autodiff import Tape, exp, mul, no_grad, token_log_prob
from .model import (
    END,
    START,
    SampledPair,
    decoder_step,
    encode_full,
    forced_logits,
    output_log_probs,
    rollout,
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


def _sequence_outcomes(source, params, max_len):
    """``(tokens, log-prob Tensor)`` for every sampling outcome: each
    END-terminated sequence of length <= max_len and each END-free sequence
    of exactly max_len (the truncation cases). Decoder steps are shared
    along common prefixes."""
    enc = encode_full(source, params)
    results = []

    def walk(prev, state, prefix, lp):
        logits, new_state, _ = decoder_step(prev, state, enc, params)
        for tok in range(params.vocab_size):
            step_lp = token_log_prob(logits, tok)
            seq = prefix + (tok,)
            seq_lp = step_lp if lp is None else lp + step_lp
            if tok == END or len(seq) == max_len:
                results.append((seq, seq_lp))
            else:
                walk(tok, new_state, seq, seq_lp)

    walk(START, enc.init_state, (), None)
    return results


def enumerate_sequences(source, params, max_len):
    """All sampling outcomes as ``(tokens, log-probability)``; together
    their probabilities sum to one."""
    with no_grad():
        return [(seq, float(lp.data))
                for seq, lp in _sequence_outcomes(source, params, max_len)]


def exact_risk_and_grad(source, params, delta_fn, max_len, guard=1_000_000):
    """Exact expected loss and its gradient by full enumeration.

    Sums ``p(y) * delta_fn(y)`` over every sampling outcome up to
    ``max_len``, then differentiates the whole expression.
    """
    _check_guard(count_sequences(params.vocab_size, max_len), guard,
                 "sequences")
    with Tape() as tape:
        risk = None
        for tokens, lp in _sequence_outcomes(source, params, max_len):
            term = mul(exp(lp), float(delta_fn(list(tokens))))
            risk = term if risk is None else risk + term
    grads = tape.backward(risk, params.tensors)
    return float(risk.data), grads


def _greedy_prefix(source, params, t_y):
    """Greedy roll-out of ``t_y`` steps that does not stop at END, as in pair
    sampling, with the positive and negative log-distributions per step."""
    greedy, log_pos, log_neg = [], [], []

    def follow_argmax(_, logits, __):
        logits = logits[0]
        log_pos.append(output_log_probs(logits))
        log_neg.append(output_log_probs(logits, negated=True))
        greedy.append(int(np.argmax(logits)))
        return greedy[-1:], (True,)

    rollout([source], params, t_y, follow_argmax)
    return greedy, log_pos, log_neg


def _pair_outcomes(step_pos, step_neg):
    """Every ``(position, w, w_prime, joint log-prob)`` outcome of pair
    sampling. The per-step tables ``[t][token]`` hold log-probabilities as
    floats or as graph nodes; the joint is summed from them."""
    t_y, vocab = len(step_pos), len(step_pos[0])
    for position in range(1, t_y + 1):
        for w in itertools.product(range(vocab), repeat=t_y):
            lp_w = step_pos[0][w[0]]
            for t in range(1, t_y):
                lp_w = lp_w + step_pos[t][w[t]]
            for w_prime in itertools.product(range(vocab), repeat=t_y):
                lp = lp_w
                for t in range(t_y):
                    table = step_neg if t + 1 == position else step_pos
                    lp = lp + table[t][w_prime[t]]
                yield position, list(w), list(w_prime), lp


def enumerate_pair_outcomes(source, params, t_y, guard=1_000_000):
    """Every (position, positive, perturbed) outcome of pair sampling with
    its probability, as ``(SampledPair, probability)`` tuples."""
    _check_guard(t_y * params.vocab_size ** (2 * t_y), guard, "pair outcomes")
    greedy, log_pos, log_neg = _greedy_prefix(source, params, t_y)
    return [
        (SampledPair(tokens_pos=w, tokens_neg=w_prime, greedy=list(greedy),
                     position=position, log_prob=float(lp)),
         math.exp(lp) / t_y)
        for position, w, w_prime, lp in _pair_outcomes(log_pos, log_neg)
    ]


def exact_pr_risk_and_grad(source, params, pair_delta_fn, t_y,
                           guard=1_000_000):
    """Exact pairwise-ranking risk and gradient by enumerating every pair
    outcome. The greedy conditioning prefix is held fixed (it is locally
    constant in the parameters), matching the estimator's semantics; the
    step distributions are teacher-forced on it."""
    vocab = params.vocab_size
    _check_guard(t_y * vocab ** (2 * t_y), guard, "pair outcomes")
    greedy, _, _ = _greedy_prefix(source, params, t_y)
    with Tape() as tape:
        logits = forced_logits(source, [START] + greedy[:-1], params)
        step_pos = [[token_log_prob(o, v) for v in range(vocab)]
                    for o in logits]
        step_neg = [[token_log_prob(o, v, negated=True) for v in range(vocab)]
                    for o in logits]
        risk = None
        for _, w, w_prime, lp in _pair_outcomes(step_pos, step_neg):
            term = mul(exp(lp), float(pair_delta_fn(w, w_prime)) / t_y)
            risk = term if risk is None else risk + term
    grads = tape.backward(risk, params.tensors)
    return float(risk.data), grads
