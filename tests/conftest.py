import math
from collections import Counter

import numpy as np
import pytest

from banditseq.model import ModelParams
from banditseq.objectives import TrainingConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tiny_params(vocab_size=6, embed_size=3, hidden_size=4, seed=0):
    """A 6-id model (3 reserved + 3 regular tokens) small enough for
    finite differences and exhaustive enumeration."""
    return ModelParams(vocab_size, embed_size=embed_size,
                       hidden_size=hidden_size, seed=seed)


# the loop settings of the tests that run bandit_train_loop on a tiny model,
# written out here so that a new run-config default moves none of them
LOOP_SETTINGS = dict(
    objective="el", cv_mode="none", iters=1000, valid_interval=100,
    clip_norm=1.0, alpha=1e-4, beta1=0.9, beta2=0.999, eps=1e-8,
    baseline_includes_current=True, max_len=20)


def loop_config(**settings):
    """A ``TrainingConfig`` of :data:`LOOP_SETTINGS`, with ``settings``
    in their place."""
    return TrainingConfig(**{**LOOP_SETTINGS, **settings})


def random_source(rng, vocab_size=6, length=3):
    return [int(t) for t in rng.integers(3, vocab_size, size=length)]


def max_abs_diff(a, b):
    """Largest entrywise difference of two vectors or of two maps of named
    arrays."""
    if isinstance(a, dict):
        return max(float(np.max(np.abs(a[k] - b[k]))) for k in a)
    return float(np.max(np.abs(a - b)))


def max_abs(grads):
    """Largest entry of a vector or of a map of named arrays."""
    if isinstance(grads, dict):
        return max(float(np.max(np.abs(g))) for g in grads.values())
    return float(np.max(np.abs(grads)))


def relative_gap(got, want):
    """Global relative difference between two gradients."""
    num = max_abs_diff(got, want)
    den = max(max_abs(want), 1e-12)
    return num / den


def antithetic_variance_identity(x1, x2):
    """Empirical check quantities for the averaged-pair estimator: returns
    ``(var of (x1+x2)/2, (var x1 + var x2 + 2 cov) / 4)`` using population
    moments, for which the identity is exact."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    lhs = np.var((x1 + x2) / 2.0)
    cov = np.mean((x1 - x1.mean()) * (x2 - x2.mean()))
    rhs = 0.25 * (np.var(x1) + np.var(x2) + 2.0 * cov)
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# The order oracle: the reverse pass through time as it was written with one
# outer product per step, each added into its sum as soon as it was
# computed. The model's reverse pass must equal it bit for bit; see
# ``tests/test_model.py::TestReverseOrder``.
# ---------------------------------------------------------------------------


def outer(a, b):
    return a[:, None] * b


def add_into(sums, key, g):
    """``sums[key] += g`` in place; the first term, a fresh array, is kept
    as given. Terms are summed in call order."""
    if key in sums:
        sums[key] += g
    else:
        sums[key] = g


def gru_grads(g, x, h, z, r, rh, c, weights, sums):
    """Reverse of :func:`gru_values` for one row, given the gradient ``g`` of
    the new state. Adds the gradients of the nine ``weights`` into ``sums``
    under their argument positions 0-8, each as soon as it is computed, and
    returns the gradients of ``h`` and ``x``."""
    wz, uz, _, wr, ur, _, wh, uh, _ = weights
    dz = g * (c - h)
    da_c = (g * z) * (1.0 - c * c)
    dh = g * (1.0 - z)
    add_into(sums, 6, outer(da_c, x))
    add_into(sums, 7, outer(da_c, rh))
    add_into(sums, 8, da_c)
    drh = uh.T @ da_c
    dh += drh * r
    da_r = (drh * h) * r * (1.0 - r)
    add_into(sums, 3, outer(da_r, x))
    add_into(sums, 4, outer(da_r, h))
    add_into(sums, 5, da_r)
    dh += ur.T @ da_r
    da_z = dz * z * (1.0 - z)
    add_into(sums, 0, outer(da_z, x))
    add_into(sums, 1, outer(da_z, h))
    add_into(sums, 2, da_z)
    dh += uz.T @ da_z
    return dh, wh.T @ da_c + wr.T @ da_r + wz.T @ da_z


def attention_grads(g, alpha, t, state, w, v):
    """Reverse of :func:`attention_values` for one row, given the gradient
    ``g`` of ``alpha``: returns the gradients of ``v``, ``proj``, ``w`` and
    ``state``."""
    de = alpha * (g - g @ alpha)
    dp = outer(de, v) * (1.0 - t * t)
    dq = dp.sum(axis=0)
    return t.T @ de, dp, outer(dq, state), w.T @ dq


def reference_backprop(d_logits, forward, out):
    """Backpropagation through time over a kept :class:`Forward`, from the
    gradient ``d_logits`` [T, V] of its logits; writes every parameter's
    gradient into ``out``, the named views of a gradient vector. Sums run
    in the order of a tape of per-step nodes: parameter gradients from the
    last step to the first, the gradient of decoder state s_t as (from GRU
    step t+1 + from attention at step t+1) + from step t's output layer,
    embedding rows last to first into zeros.
    """
    params, p, source = forward.params, forward.p, forward.source
    matrix, init, steps = forward.matrix, forward.init, forward.steps
    h_dim, e_dim = params.hidden_size, params.embed_size
    grads = {"tgt_emb": np.zeros_like(p["tgt_emb"])}
    sums = {prefix: {} for prefix in ("dec", "enc_bwd", "enc_fwd")}
    d_next = None
    for t in reversed(range(len(steps))):
        tok, *values = steps[t]
        state, alpha, energy, x, z, r, rh, c, pre_out = (v[0] for v in values)
        d_out = d_logits[t]
        add_into(grads, "out.b", d_out.copy())
        add_into(grads, "out.W", outer(d_out, pre_out))
        d_pre = p["out.W"].T @ d_out
        d_new = d_pre[:h_dim] if d_next is None else d_next + d_pre[:h_dim]
        d_state, d_x = gru_grads(d_new, x, state, z, r, rh, c, p["dec"],
                                 sums["dec"])
        grads["tgt_emb"][tok] += d_x[:e_dim]
        d_context = d_pre[h_dim:] + d_x[e_dim:]
        # the encoder states and their projections sum like parameters
        add_into(grads, "matrix", outer(alpha, d_context))
        d_v, d_proj, d_w, d_s = attention_grads(
            matrix @ d_context, alpha, energy, state, p["att.W"], p["att.v"])
        add_into(grads, "att.v", d_v)
        add_into(grads, "proj", d_proj)
        add_into(grads, "att.W", d_w)
        d_next = d_state + d_s

    d_init = d_next * (1.0 - init[0] * init[0])
    add_into(grads, "dec_init.b", d_init)
    add_into(grads, "dec_init.W", outer(d_init, matrix[0, h_dim:]))
    d_matrix, d_proj = grads.pop("matrix"), grads.pop("proj")
    d_matrix += d_proj @ p["att.U"].T
    add_into(grads, "att.U", matrix.T @ d_proj)
    d_matrix[0, h_dim:] += p["dec_init.W"].T @ d_init
    # backward GRU from position 0 up, then forward GRU from the end down
    d_x = [None] * len(source)
    carry = None
    for i, (prefix, pos, *values) in enumerate(reversed(forward.encoder)):
        x, h, z, r, rh, c = (v[0] for v in values)
        if i == len(source):
            carry = None
        half = d_matrix[pos, h_dim:] if prefix == "enc_bwd" \
            else d_matrix[pos, :h_dim]
        carry, dx = gru_grads(half if carry is None else half + carry,
                              x, h, z, r, rh, c, p[prefix], sums[prefix])
        d_x[pos] = dx if d_x[pos] is None else d_x[pos] + dx
    grads["src_emb"] = np.zeros_like(p["src_emb"])
    for pos in reversed(range(len(source))):
        grads["src_emb"][source[pos]] += d_x[pos]
    for prefix, weights in sums.items():
        for i, suffix in enumerate(ModelParams.GRU_SUFFIXES):
            grads[f"{prefix}.{suffix}"] = weights[i]
    for name, g in grads.items():
        out[name][...] = g



# ---------------------------------------------------------------------------
# The scoring oracle: n-gram counting, corpus gGLEU and corpus BLEU as they
# were written with one n-gram loop per sentence and per score. The package's
# counts must equal them in value and insertion order, and its scores with
# ``==``; see ``tests/test_metrics.py::TestExactScores``.
# ---------------------------------------------------------------------------


def reference_ngram_counts(tokens, max_n):
    """Multiset of all n-grams of ``tokens`` for 1 <= n <= max_n."""
    counts = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i:i + n])] += 1
    return counts


def _reference_check_max_n(what, max_n):
    if max_n < 1:
        raise ValueError(f"{what}: max_n must be >= 1, got {max_n}")


def reference_corpus_ggleu(hypotheses, references, max_n=4):
    """gGLEU with match/total counts pooled over a whole corpus."""
    _reference_check_max_n("corpus_ggleu", max_n)
    if len(hypotheses) != len(references):
        raise ValueError(
            f"corpus_ggleu: got {len(hypotheses)} hypotheses for "
            f"{len(references)} references"
        )
    matches = hyp_total = ref_total = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) == 0:
            raise ValueError("corpus_ggleu: references must be non-empty")
        hyp_counts = reference_ngram_counts(hyp, max_n)
        ref_counts = reference_ngram_counts(ref, max_n)
        matches += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        hyp_total += sum(hyp_counts.values())
        ref_total += sum(ref_counts.values())
    if matches == 0 or hyp_total == 0:
        return 0.0
    return min(matches / hyp_total, matches / ref_total)


def reference_corpus_bleu(hypotheses, references, max_n=4):
    """Corpus-level BLEU: geometric mean of modified n-gram precisions
    times the brevity penalty. Zero if any order has zero matches."""
    _reference_check_max_n("corpus_bleu", max_n)
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
        ref_counts = reference_ngram_counts(ref, max_n)
        for gram, count in reference_ngram_counts(hyp, max_n).items():
            matches[len(gram) - 1] += min(count, ref_counts[gram])
            totals[len(gram) - 1] += count
    # orders the corpus is too short to contain contribute nothing; an order
    # that exists but has no matches zeroes the whole score
    present = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not present or any(m == 0 for m, _ in present):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in present) / len(present)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)
