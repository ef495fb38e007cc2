"""Attention-based GRU encoder-decoder over a shared vocabulary.

Conventions, fixed once here:

* GRU cell: ``z = sigmoid(Wz x + Uz h + bz)``, ``r = sigmoid(Wr x + Ur h + br)``,
  ``cand = tanh(Wh x + Uh (r * h) + bh)``, ``h' = (1 - z) * h + z * cand``.
* Encoder is bidirectional; the state at source position t is the
  concatenation of the forward and backward GRU states there (size 2H).
* Attention energy for decoder state s against encoder state h is
  ``v . tanh(W s + U h)``; weights are the softmax over positions, the
  context is the weighted sum of encoder states.
* The decoder GRU consumes [previous-token embedding; context]; logits are
  a linear map of [new state; context]. Its initial state is
  ``tanh(Wi b1 + bi)`` where b1 is the backward encoder state at position 1.
* Reserved token ids: START=0, END=1, UNK=2.

Two output distributions share the decoder logits ``o``: the positive one is
``softmax(o)`` and the negative one ``softmax(-o)``, which orders candidate
tokens exactly in reverse. Greedy decoding, sampling and pair sampling are
policies over one graph-free decoder roll-out (:func:`rollout`). Sampling
draws one sequence token by token from the positive distribution; pair
sampling additionally rolls a greedy sequence, conditions *both* pair
members on that greedy prefix, and swaps in the negative distribution at a
single uniformly chosen position. Scoring a sample for a gradient replays it
teacher-forced with a graph (:func:`forced_logits`).

The roll-out is batched: greedy decoding runs a whole corpus through it,
the samplers a batch of one. The recurrence stays sequential, but each step
is one array operation over every sentence still running. Sources are
grouped by length, so the encoder and the attention need no padding and no
mask, and a row leaves the batch once its policy stops it. Every product of
a weight matrix with a row is its own matrix-vector call
(:func:`~banditseq.autodiff.matvec_rows`), exactly the call the graph
makes for one sentence: one GEMM over the batch would round differently,
and batched outputs would no longer equal the per-sentence ones bit for
bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    attention_values,
    attention_weights,
    concat,
    constant,
    embedding_lookup,
    gru_cell,
    gru_values,
    matmul,
    matvec,
    matvec_rows,
    mul,
    parameter,
    stack_rows,
    tanh,
    token_log_prob,
    weighted_rows,
    weighted_rows_values,
)

START, END, UNK = 0, 1, 2

__all__ = [
    "START",
    "END",
    "UNK",
    "Vocabulary",
    "ModelParams",
    "EncodedSource",
    "SampledSequence",
    "SampledPair",
    "encode_full",
    "attention_context",
    "decoder_step",
    "forced_logits",
    "sequence_log_prob",
    "pair_log_prob",
    "output_log_probs",
    "rollout",
    "greedy_decode",
    "sample_sequence",
    "sample_pair",
]


class Vocabulary:
    """Bijection between token strings and ids with three reserved slots."""

    RESERVED = ("<s>", "</s>", "<unk>")
    START_ID, END_ID, UNK_ID = START, END, UNK

    def __init__(self, tokens=()):
        for tok in tokens:
            if tok in self.RESERVED:
                raise ValueError(f"corpus token collides with reserved token {tok!r}")
        self._tokens = list(self.RESERVED) + list(tokens)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_corpus(cls, sentences, cutoff=1):
        """Tokens with frequency >= cutoff, ordered by descending frequency
        then lexicographically; everything else maps to UNK."""
        counts = Counter()
        for sent in sentences:
            counts.update(sent)
        kept = sorted(
            (t for t, c in counts.items() if c >= cutoff),
            key=lambda t: (-counts[t], t),
        )
        return cls(kept)

    def __len__(self):
        return len(self._tokens)

    def id_of(self, token):
        return self._ids.get(token, self.UNK_ID)

    def encode(self, tokens):
        return [self.id_of(t) for t in tokens]

    def decode(self, ids):
        return [self._tokens[i] for i in ids]

    @property
    def tokens(self):
        """All token strings in id order, reserved first."""
        return tuple(self._tokens)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            toks = [line.rstrip("\n") for line in fh]
        if tuple(toks[:3]) != cls.RESERVED:
            raise ValueError(f"vocabulary file {path} lacks the reserved prefix")
        return cls(toks[3:])


def _glorot(rng, rows, cols):
    r = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-r, r, size=(rows, cols))


class ModelParams:
    """Named parameter tensors of the encoder-decoder.

    Attention size equals the hidden size. The tensor dict is insertion
    ordered and that order is part of the checkpoint contract.
    """

    GRU_SUFFIXES = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")

    def __init__(self, vocab_size, embed_size=32, hidden_size=64, seed=0,
                 init="glorot"):
        self.vocab_size = int(vocab_size)
        self.embed_size = int(embed_size)
        self.hidden_size = int(hidden_size)
        rng = np.random.default_rng(seed)
        v, e, h = self.vocab_size, self.embed_size, self.hidden_size

        def mat(rows, cols):
            if init == "zeros":
                return np.zeros((rows, cols))
            return _glorot(rng, rows, cols)

        self.tensors = {}

        def put(name, data):
            self.tensors[name] = parameter(name, data)

        put("src_emb", mat(v, e))
        put("tgt_emb", mat(v, e))
        for prefix, in_dim in (("enc_fwd", e), ("enc_bwd", e), ("dec", e + 2 * h)):
            for gate in ("z", "r", "h"):
                put(f"{prefix}.W{gate}", mat(h, in_dim))
                put(f"{prefix}.U{gate}", mat(h, h))
                put(f"{prefix}.b{gate}", np.zeros(h))
        put("att.W", mat(h, h))
        put("att.U", mat(2 * h, h))
        put("att.v", mat(1, h)[0])
        put("dec_init.W", mat(h, h))
        put("dec_init.b", np.zeros(h))
        put("out.W", mat(v, 3 * h))
        put("out.b", np.zeros(v))

    @classmethod
    def from_tensors(cls, vocab_size, arrays):
        """Rebuild from named arrays (e.g. a loaded checkpoint), validating
        shape consistency against the vocabulary size."""
        try:
            v_emb, e = arrays["src_emb"].shape
            h = arrays["dec_init.b"].shape[0]
        except KeyError as exc:
            raise ValueError(f"missing parameter tensor {exc.args[0]!r}")
        model = cls(vocab_size, embed_size=e, hidden_size=h, init="zeros")
        expected = {name: t.data.shape for name, t in model.tensors.items()}
        if set(arrays) != set(expected):
            missing = set(expected) - set(arrays)
            extra = set(arrays) - set(expected)
            raise ValueError(
                f"parameter names do not match model (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        for name, arr in arrays.items():
            if arr.shape != expected[name]:
                raise ValueError(
                    f"tensor {name!r} has shape {arr.shape}, expected "
                    f"{expected[name]} for vocabulary size {vocab_size}"
                )
            model.tensors[name].data = np.array(arr, dtype=np.float64)
        return model

    def __getitem__(self, name):
        return self.tensors[name]

    def copy_values(self):
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_values(self, arrays):
        for name, t in self.tensors.items():
            t.data[...] = arrays[name]


@dataclass
class EncodedSource:
    """Encoder output plus quantities reused across decoder steps."""

    states: list          # per position, concat of fwd and bwd (size 2H)
    matrix: Tensor        # the same states stacked into [Tx, 2H]
    att_proj: Tensor      # matrix @ att.U, precomputed, [Tx, A]
    init_state: Tensor


def _mask(size, dropout):
    """Inverted-dropout mask constant, or None when dropout is off."""
    if dropout is None:
        return None
    rate, rng = dropout
    if rate <= 0.0:
        return None
    keep = (rng.random(size) >= rate).astype(np.float64) / (1.0 - rate)
    return constant(keep)


def _maybe_mask(x, m):
    return x if m is None else mul(x, m)


def _gru(params, prefix, x, h):
    return gru_cell(x, h,
                    params[f"{prefix}.Wz"], params[f"{prefix}.Uz"],
                    params[f"{prefix}.bz"],
                    params[f"{prefix}.Wr"], params[f"{prefix}.Ur"],
                    params[f"{prefix}.br"],
                    params[f"{prefix}.Wh"], params[f"{prefix}.Uh"],
                    params[f"{prefix}.bh"])


def encode_full(source, params, dropout=None):
    """Bidirectional encode; also precomputes attention projections and the
    decoder's initial state."""
    if len(source) == 0:
        raise ValueError("encode: source sequence must be non-empty")
    h_dim = params.hidden_size
    embs = []
    for tok in source:
        x = embedding_lookup(params["src_emb"], tok)
        embs.append(_maybe_mask(x, _mask(params.embed_size, dropout)))
    zero = constant(np.zeros(h_dim))
    fwd = []
    h = zero
    for x in embs:
        h = _gru(params, "enc_fwd", x, h)
        fwd.append(h)
    bwd_rev = []
    h = zero
    for x in reversed(embs):
        h = _gru(params, "enc_bwd", x, h)
        bwd_rev.append(h)
    bwd = bwd_rev[::-1]
    states = [concat([f, b]) for f, b in zip(fwd, bwd)]
    matrix = stack_rows(states)
    att_proj = matmul(matrix, params["att.U"])
    init = tanh(matvec(params["dec_init.W"], bwd[0]) + params["dec_init.b"])
    init = _maybe_mask(init, _mask(h_dim, dropout))
    return EncodedSource(states=states, matrix=matrix, att_proj=att_proj,
                         init_state=init)


def attention_context(state, enc, params):
    """Attention weights over the states of an :class:`EncodedSource` and
    the resulting context.

    Returns ``(context, alpha)`` where alpha is a softmax over the
    alignment energies ``v . tanh(W state + U h_t)``.
    """
    alpha = attention_weights(state, enc.att_proj, params["att.W"],
                              params["att.v"])
    context = weighted_rows(alpha, enc.matrix)
    return context, alpha


def decoder_step(prev_id, prev_state, enc, params, dropout=None):
    """One decoder transition: returns (logits over V, new state, alpha)."""
    context, alpha = attention_context(prev_state, enc, params)
    emb = embedding_lookup(params["tgt_emb"], prev_id)
    emb = _maybe_mask(emb, _mask(params.embed_size, dropout))
    state = _gru(params, "dec", concat([emb, context]), prev_state)
    pre_out = concat([state, context])
    pre_out = _maybe_mask(pre_out, _mask(3 * params.hidden_size, dropout))
    logits = matvec(params["out.W"], pre_out) + params["out.b"]
    return logits, state, alpha


def forced_logits(source, inputs, params, dropout=None):
    """Roll the decoder over a fixed input-token sequence.

    ``inputs[t]`` is the token fed at step t (so ``inputs[0]`` is START);
    returns one logits tensor per step.
    """
    enc = encode_full(source, params, dropout=dropout)
    state = enc.init_state
    logits_per_step = []
    for tok in inputs:
        logits, state, _ = decoder_step(tok, state, enc, params,
                                        dropout=dropout)
        logits_per_step.append(logits)
    return logits_per_step


def _forced_log_prob(logits_per_step, tokens, negated_step=0):
    """Differentiable sum over steps of log p(tokens[t]) under the step-t
    logits; the negative distribution applies only at the 1-based step
    ``negated_step``."""
    total = token_log_prob(logits_per_step[0], tokens[0], negated_step == 1)
    for t in range(1, len(tokens)):
        total = total + token_log_prob(logits_per_step[t], tokens[t],
                                       negated_step == t + 1)
    return total


def sequence_log_prob(source, target, params, dropout=None):
    """Differentiable log-probability of ``target`` teacher-forced on its
    own prefix: sum over steps of log p(y_t | y_<t, x)."""
    if len(target) == 0:
        raise ValueError("sequence_log_prob: target must be non-empty")
    inputs = [START] + list(target[:-1])
    logits_per_step = forced_logits(source, inputs, params, dropout=dropout)
    return _forced_log_prob(logits_per_step, target)


def pair_log_prob(source, pair, params):
    """Recompute both halves of a sampled pair's joint log-probability.

    Both members are conditioned on the recorded greedy prefix; the
    negative distribution applies only at the recorded perturbation
    position. Returns ``(lp_pos, lp_perturbed)`` whose sum reproduces the
    pair's accumulated log-probability.
    """
    inputs = [START] + list(pair.greedy[: len(pair.tokens_pos) - 1])
    logits_per_step = forced_logits(source, inputs, params)
    return (_forced_log_prob(logits_per_step, pair.tokens_pos),
            _forced_log_prob(logits_per_step, pair.tokens_neg, pair.position))


@dataclass
class SampledSequence:
    """A sequence drawn token-by-token from the model, with its log-prob."""

    tokens: list
    log_prob: float


@dataclass
class SampledPair:
    """A positive sample and a one-position perturbation, both conditioned
    on the same greedy prefix."""

    tokens_pos: list
    tokens_neg: list
    greedy: list
    position: int      # 1-based step at which the perturbation was drawn
    log_prob: float


def output_log_probs(logits, negated=False):
    """Log-probabilities of the positive distribution ``softmax(o)`` or,
    ``negated``, the negative one ``softmax(-o)``, from logit values. The
    negative distribution ranks candidates in exactly the reverse order."""
    x = -logits if negated else logits
    m = x.max()
    return x - (m + np.log(np.exp(x - m).sum()))


def _draw(probs, rng):
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


def _encode_values(ids, p):
    """Graph-free :func:`encode_full` of equal-length sources ``ids``
    [n, L] with parameter arrays ``p``; returns the encoder states
    [n, L, 2H], their attention projections [n, L, A] and the decoder's
    initial states [n, H]."""
    vocab = len(p["src_emb"])
    if ids.min() < 0 or ids.max() >= vocab:
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"rollout: source id {bad} out of range for "
                         f"vocabulary size {vocab}")
    emb = p["src_emb"][ids]
    n, length = ids.shape
    h_dim = len(p["dec_init.b"])
    matrix = np.empty((n, length, 2 * h_dim))
    h = np.zeros((n, h_dim))
    for t in range(length):
        h = gru_values(emb[:, t], h, *p["enc_fwd"])[0]
        matrix[:, t, :h_dim] = h
    h = np.zeros((n, h_dim))
    for t in reversed(range(length)):
        h = gru_values(emb[:, t], h, *p["enc_bwd"])[0]
        matrix[:, t, h_dim:] = h
    init = np.tanh(matvec_rows(p["dec_init.W"], h) + p["dec_init.b"])
    return matrix, matrix @ p["att.U"], init


def rollout(sources, params, max_len, policy):
    """Run the decoder over a batch of sources for up to ``max_len`` steps,
    on arrays only (no graph is recorded).

    Sources of equal length run together, one array operation per step for
    all of them. Each step calls ``policy(rows, logits, alpha)`` with the
    indices into ``sources`` of the rows still running, their logits
    [n, V] and attention weights [n, T]. The policy returns the tokens fed
    to those rows' next step and a boolean mask of the rows that go on.
    Greedy decoding, sampling and pair sampling are policies over this one
    loop.
    """
    p = {name: t.data for name, t in params.tensors.items()}
    for prefix in ("enc_fwd", "enc_bwd", "dec"):
        p[prefix] = [p[f"{prefix}.{s}"] for s in ModelParams.GRU_SUFFIXES]
    by_length = {}
    for i, source in enumerate(sources):
        if len(source) == 0:
            raise ValueError("rollout: source sequences must be non-empty")
        by_length.setdefault(len(source), []).append(i)
    for rows in by_length.values():
        rows = np.array(rows)
        ids = np.array([sources[i] for i in rows], dtype=np.int64)
        matrix, proj, state = _encode_values(ids, p)
        prev = np.full(len(rows), START)
        for _ in range(max_len):
            alpha = attention_values(state, proj, p["att.W"], p["att.v"])[0]
            context = weighted_rows_values(alpha, matrix)
            x = np.concatenate([p["tgt_emb"][prev], context], axis=1)
            state = gru_values(x, state, *p["dec"])[0]
            logits = matvec_rows(p["out.W"], np.concatenate(
                [state, context], axis=1)) + p["out.b"]
            prev, keep = policy(rows, logits, alpha)
            prev = np.asarray(prev)
            keep = np.asarray(keep, dtype=bool)
            if not keep.all():
                if not keep.any():
                    break
                rows, prev, state = rows[keep], prev[keep], state[keep]
                matrix, proj = matrix[keep], proj[keep]


def greedy_decode(sources, params, max_len, return_attention=False):
    """Deterministic decode of each source: argmax token each step (ties ->
    lowest id), stopping after END or ``max_len`` tokens. END, when
    reached, is kept as the final token. Returns one token list per source,
    in order, or with ``return_attention`` one ``(tokens, attention)``
    pair per source holding each step's attention weights."""
    if max_len < 1:
        raise ValueError("greedy_decode: max_len must be >= 1")
    tokens = [[] for _ in sources]
    attention = [[] for _ in sources]

    def argmax(rows, logits, alpha):
        best = logits.argmax(axis=1)
        for row, tok, weights in zip(rows.tolist(), best.tolist(), alpha):
            tokens[row].append(tok)
            attention[row].append(weights)
        return best, best != END

    rollout(sources, params, max_len, argmax)
    if return_attention:
        return list(zip(tokens, attention))
    return tokens


def sample_sequence(source, params, max_len, rng):
    """Draw one sequence from the positive distribution, conditioning each
    step on the tokens already drawn; accumulates the log-probability and
    stops after END or ``max_len`` tokens."""
    tokens = []
    log_prob = 0.0

    def draw(_, logits, __):
        nonlocal log_prob
        log_p = output_log_probs(logits[0])
        tok = _draw(np.exp(log_p), rng)
        log_prob += float(log_p[tok])
        tokens.append(tok)
        return (tok,), (tok != END,)

    rollout([source], params, max_len, draw)
    return SampledSequence(tokens=tokens, log_prob=log_prob)


def sample_pair(source, params, max_len, rng):
    """Draw a (positive, perturbed) pair conditioned on the greedy roll-out.

    A perturbation position i is drawn uniformly from 1..max_len first.
    Each step then draws the positive member's token, draws the perturbed
    member's token — from the negative distribution at step i, from the
    positive one elsewhere — and feeds the greedy token, which extends the
    shared conditioning prefix. All ``max_len`` steps are taken; END does
    not stop the roll-out here, feedback simply ignores anything an END
    precedes. The joint log-probability accumulates every factor.
    """
    if max_len < 1:
        raise ValueError("sample_pair: max_len must be >= 1")
    position = int(rng.integers(1, max_len + 1))
    tokens_pos = []
    tokens_neg = []
    greedy = []
    log_prob = 0.0

    def draw_pair(_, logits, __):
        nonlocal log_prob
        logits = logits[0]
        log_p_pos = output_log_probs(logits)
        p_pos = np.exp(log_p_pos)
        w = _draw(p_pos, rng)
        log_prob += float(log_p_pos[w])
        if len(greedy) + 1 == position:
            log_p_neg = output_log_probs(logits, negated=True)
            w_prime = _draw(np.exp(log_p_neg), rng)
            log_prob += float(log_p_neg[w_prime])
        else:
            w_prime = _draw(p_pos, rng)
            log_prob += float(log_p_pos[w_prime])
        tokens_pos.append(w)
        tokens_neg.append(w_prime)
        greedy.append(int(np.argmax(logits)))
        return greedy[-1:], (True,)

    rollout([source], params, max_len, draw_pair)
    return SampledPair(tokens_pos=tokens_pos, tokens_neg=tokens_neg,
                       greedy=greedy, position=position, log_prob=log_prob)
