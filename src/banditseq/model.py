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
policies over one decoder roll-out (:func:`rollout`). Sampling draws one
sequence token by token from the positive distribution; pair sampling
additionally rolls a greedy sequence, conditions *both* pair members on that
greedy prefix, and swaps in the negative distribution at a single uniformly
chosen position.

There is one forward: the encoder loop (:func:`encode_full`) and the decoder
step run on plain arrays, for the roll-out and for scoring alike. A sampler
keeps its roll-out's per-step values (:class:`Forward`) on the sample, and
the sample is scored on those values: no second forward runs. References
and hand-built samples, which no roll-out drew, are replayed teacher-forced
(:func:`forced_logits`), a teacher-forcing policy over the same roll-out.
Either way the reverse pass through time is recorded on the tape as a
single node, and :func:`~banditseq.autodiff.log_likelihood` puts one node
per scored sequence on top. The reverse pass loops through time only for
the recurrent chain and then sums each weight gradient over the stacked
steps in one call (:func:`~banditseq.autodiff.step_sum`). It sums in the
order a tape of per-step nodes did, so its gradients equal that tape's bit
for bit (see :mod:`banditseq.autodiff` for why the order is pinned and
what keeps it). A kept forward reads the live parameter arrays, so it is
valid only until the parameters change.

The roll-out is batched: greedy decoding runs a whole corpus through it,
the samplers a batch of one. The recurrence stays sequential, but each step
is one array operation over every sentence still running. Sources are
grouped by length, so the encoder and the attention need no padding and no
mask, and a row leaves the batch once its policy stops it. Only a batch of
one keeps per-step values, and only when asked to. A weight product is
one ``x @ W.T`` over the rows. For a batch of one, which every training
roll-out is, that is one matrix-vector call; for a corpus batch, one GEMM
per product and step, whose logits and attention equal the
single-sentence decode's to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    attention_grads,
    attention_values,
    gru_grads,
    gru_values,
    log_likelihood,
    node,
    parameter,
    step_sum,
)

START, END, UNK = 0, 1, 2

__all__ = [
    "START",
    "END",
    "UNK",
    "Vocabulary",
    "ModelParams",
    "SampledSequence",
    "SampledPair",
    "Forward",
    "encode_full",
    "forced_logits",
    "sequence_log_prob",
    "pair_log_prob",
    "output_log_probs",
    "rollout",
    "greedy_decode",
    "greedy_rollout",
    "sample_sequence",
    "sample_pair",
]


class Vocabulary:
    """Bijection between token strings and ids with three reserved slots."""

    RESERVED = ("<s>", "</s>", "<unk>")

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
        return self._ids.get(token, UNK)

    def encode(self, tokens):
        return [self.id_of(t) for t in tokens]

    def decode(self, ids):
        return [self._tokens[i] for i in ids]

    @property
    def tokens(self):
        """All token strings in id order, reserved first."""
        return tuple(self._tokens)

    def save(self, path):
        """One token per line in id order, replacing ``path`` only once the
        whole file is written."""
        from .checkpoint import atomic_open  # checkpoint imports this module

        with atomic_open(path, "w", encoding="utf-8") as fh:
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

    def arrays(self):
        """Parameter values by name; each GRU's nine arrays are also listed
        under its prefix, in :func:`~banditseq.autodiff.gru_values` order."""
        p = {name: t.data for name, t in self.tensors.items()}
        for prefix in ("enc_fwd", "enc_bwd", "dec"):
            p[prefix] = [p[f"{prefix}.{s}"] for s in self.GRU_SUFFIXES]
        return p

    def copy_values(self):
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_values(self, arrays):
        for name, t in self.tensors.items():
            t.data[...] = arrays[name]


def _mask(shape, dropout):
    """Inverted-dropout mask, or None when dropout is off."""
    if dropout is None or dropout[0] <= 0.0:
        return None
    rate, rng = dropout
    return (rng.random(shape) >= rate).astype(np.float64) / (1.0 - rate)


def _masked(x, mask):
    return x if mask is None else x * mask


def _check_ids(ids, vocab, what):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"{what} id {bad} out of range for vocabulary size "
                         f"{vocab}")


def encode_full(sources, p, masks=None, record=None):
    """Bidirectional encode of equal-length sources ``sources`` [n, L] with
    the parameter arrays ``p`` (:meth:`ModelParams.arrays`).

    Returns the encoder states [n, L, 2H], their attention projections
    [n, L, A] and the decoder's initial states [n, H]. ``masks`` [L, E]
    drops out source embeddings. A ``record`` list receives, per GRU step
    in the order computed, ``(prefix, position, x, h, z, r, r*h, c)`` for
    the reverse pass.
    """
    ids = np.asarray(sources, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError("encode_full: sources must be equal-length and "
                         "non-empty")
    _check_ids(ids, len(p["src_emb"]), "source")
    emb = _masked(p["src_emb"][ids], masks)
    n, length = ids.shape
    h_dim = len(p["dec_init.b"])
    matrix = np.empty((n, length, 2 * h_dim))
    for prefix, half, order in (
            ("enc_fwd", slice(None, h_dim), range(length)),
            ("enc_bwd", slice(h_dim, None), range(length - 1, -1, -1))):
        h = np.zeros((n, h_dim))
        for t in order:
            x = emb[:, t]
            gates = gru_values(x, h, *p[prefix])
            if record is not None:
                record.append((prefix, t, x, h, *gates[1:]))
            h = gates[0]
            matrix[:, t, half] = h
    init = np.tanh(h @ p["dec_init.W"].T + p["dec_init.b"])
    return matrix, matrix @ p["att.U"], init


def _step(prev, state, matrix, proj, p, emb_mask=None, out_mask=None):
    """One decoder step for every row: attention over the row's encoder
    states, the GRU on [previous-token embedding; context], then the
    output layer. Returns the logits [n, V], the new states and the values
    the reverse pass needs: ``(alpha, tanh energies, GRU input, z, r, r*h,
    c, output-layer input)``."""
    alpha, energy = attention_values(state, proj, p["att.W"], p["att.v"])
    context = (alpha[..., None, :] @ matrix)[..., 0, :]
    x = np.concatenate([_masked(p["tgt_emb"][prev], emb_mask), context],
                       axis=-1)
    new_state, z, r, rh, c = gru_values(x, state, *p["dec"])
    pre_out = _masked(np.concatenate([new_state, context], axis=-1),
                      out_mask)
    logits = pre_out @ p["out.W"].T + p["out.b"]
    return logits, new_state, (alpha, energy, x, z, r, rh, c, pre_out)


class Forward:
    """The values a roll-out of one source computed, kept for the reverse
    pass through time (:func:`_backprop`): the encoder's per-step values,
    the decoder's initial state, the dropout masks and, per decoder step,
    the token fed, the step's masks, its incoming state, its values and its
    logits row. ``dropout`` is ``(rate, rng)``; masks are drawn for each
    source position, the initial state, then per step the target embedding
    and the output-layer input.

    A record reads the live parameter arrays, so it is valid only until
    the parameters change: score a sample before the optimizer steps.
    """

    def __init__(self, dropout=None):
        self.dropout = dropout
        self.encoder = []
        self.steps = []
        self.logits = []

    @property
    def inputs(self):
        """The tokens fed to the decoder, one per step."""
        return [step[0] for step in self.steps]

    def encode(self, source, params, p):
        if self.encoder:
            raise ValueError("a Forward records one roll-out only")
        self.params, self.p, self.source = params, p, source
        self.src_masks = _mask((len(source), params.embed_size), self.dropout)
        matrix, proj, self.init = encode_full([source], p, self.src_masks,
                                              self.encoder)
        self.matrix = matrix[0]
        self.init_mask = _mask(params.hidden_size, self.dropout)
        return matrix, proj, _masked(self.init, self.init_mask)

    def step(self, prev, state, matrix, proj, p):
        emb_mask = _mask(self.params.embed_size, self.dropout)
        out_mask = _mask(3 * self.params.hidden_size, self.dropout)
        logits, new_state, values = _step(prev, state, matrix, proj, p,
                                          emb_mask, out_mask)
        self.steps.append((int(prev[0]), emb_mask, out_mask, state, *values))
        self.logits.append(logits)
        return logits, new_state, values[0]


def _logits_node(forward):
    """The logits [T, V] of a kept forward as one node whose reverse rule
    is :func:`_backprop`."""
    return node(np.concatenate(forward.logits),
                lambda g: _backprop(g, forward))


def forced_logits(source, inputs, params, dropout=None):
    """Logits [T, V] of the decoder fed the tokens ``inputs`` (START, then
    the tokens after it), as one node: a teacher-forcing policy over
    :func:`rollout` for a batch of one, its values kept (:class:`Forward`)
    for the node's reverse rule, :func:`_backprop`. ``dropout`` is
    ``(rate, rng)``; see :class:`Forward` for the order masks are drawn
    in. The node is valid only until the parameters change."""
    if len(inputs) == 0:
        raise ValueError("forced_logits: inputs must be non-empty")
    if inputs[0] != START:
        raise ValueError(f"forced_logits: inputs must begin with START, "
                         f"got {inputs[0]}")
    _check_ids(inputs, params.vocab_size, "input")
    forward = Forward(dropout)
    following = iter(list(inputs[1:]))

    def teacher(*_):
        # the last step's returned token is never fed
        return [next(following, END)], [True]

    rollout([source], params, len(inputs), teacher, forward)
    return _logits_node(forward)


def _kept_logits(source, inputs, params, dropout, forward):
    """The logits of the decoder fed ``inputs``: read off the kept
    ``forward`` of the roll-out that fed them, or, with none, replayed
    teacher-forced (:func:`forced_logits`)."""
    if forward is None:
        return forced_logits(source, inputs, params, dropout)
    if dropout is not None:
        raise ValueError("a kept forward has no dropout; replay instead")
    if forward.params is not params or \
            list(forward.source) != list(source) or forward.inputs != inputs:
        raise ValueError("the kept forward did not feed these tokens from "
                         "this source with these parameters")
    return _logits_node(forward)


def _gru_weight_grads(prefix, deltas, x, h, rh, grads):
    """The nine weight gradients of GRU ``prefix`` from its per-step gate
    deltas ``(da_z, da_r, da_c)`` and inputs ``x``, ``h`` and ``r*h``, each
    stacked by step."""
    for gate, delta, recurrent in zip("zrh", deltas, (h, h, rh)):
        grads[f"{prefix}.W{gate}"] = step_sum(delta, x)
        grads[f"{prefix}.U{gate}"] = step_sum(delta, recurrent)
        grads[f"{prefix}.b{gate}"] = step_sum(delta)


def _backprop(d_logits, forward):
    """Backpropagation through time over a kept :class:`Forward`, from the
    gradient ``d_logits`` [T, V] of its logits; returns ``(parameter,
    gradient)`` pairs.

    The decoder loop, then the encoder loops, compute only the recurrent
    chain: state gradients, gate deltas, the context gradient and
    attention's. They keep the per-step deltas, and after each loop every
    weight gradient is one :func:`~banditseq.autodiff.step_sum` of deltas
    against the forward's stacked inputs. Sums run in the order of a tape
    of per-step nodes: parameter gradients from the last step to the first,
    the gradient of decoder state s_t as (from GRU step t+1 + from
    attention at step t+1) + from step t's output layer, embedding rows
    last to first into zeros.
    """
    params, p, source = forward.params, forward.p, forward.source
    matrix, init, init_mask = forward.matrix, forward.init, forward.init_mask
    h_dim, e_dim = params.hidden_size, params.embed_size
    tokens, emb_masks, out_masks, *values = zip(*forward.steps)
    state, alpha, energy, x, z, r, rh, c, pre_out = (
        np.concatenate(v) for v in values)
    n_steps, length = alpha.shape
    d_pre = (d_logits[:, None, :] @ p["out.W"])[:, 0]
    if out_masks[0] is not None:
        d_pre *= np.stack(out_masks)
    grads = {"tgt_emb": np.zeros_like(p["tgt_emb"]),
             "out.b": step_sum(d_logits),
             "out.W": step_sum(d_logits, pre_out)}
    deltas = np.empty((3, n_steps, h_dim))
    d_context = np.empty((n_steps, 2 * h_dim))
    d_v, d_q = np.empty((2, n_steps, h_dim))
    d_proj = np.empty((n_steps, length, h_dim))
    d_next = None
    for t in reversed(range(n_steps)):
        d_new = d_pre[t, :h_dim] if d_next is None \
            else d_next + d_pre[t, :h_dim]
        d_state, d_x, deltas[:, t] = gru_grads(d_new, state[t], z[t], r[t],
                                               c[t], p["dec"])
        grads["tgt_emb"][tokens[t]] += _masked(d_x[:e_dim], emb_masks[t])
        d_context[t] = d_pre[t, h_dim:] + d_x[e_dim:]
        d_v[t], d_proj[t], d_q[t], d_s = attention_grads(
            matrix @ d_context[t], alpha[t], energy[t], p["att.W"],
            p["att.v"])
        d_next = d_state + d_s
    _gru_weight_grads("dec", deltas, x, state, rh, grads)
    grads["att.v"] = step_sum(d_v)
    grads["att.W"] = step_sum(d_q, state)

    d_init = _masked(d_next, init_mask) * (1.0 - init[0] * init[0])
    grads["dec_init.b"] = d_init
    grads["dec_init.W"] = d_init[:, None] * matrix[0, h_dim:]
    # the encoder states and their projections sum like parameters
    d_matrix = step_sum(alpha, d_context)
    d_proj = step_sum(d_proj)
    d_matrix += d_proj @ p["att.U"].T
    grads["att.U"] = matrix.T @ d_proj
    d_matrix[0, h_dim:] += p["dec_init.W"].T @ d_init
    # backward GRU from position 0 up, then forward GRU from the end down;
    # a GRU's deltas and inputs are stacked in the order it ran its steps
    d_src = []
    for prefix, half, records in (
            ("enc_bwd", slice(h_dim, None), forward.encoder[len(source):]),
            ("enc_fwd", slice(None, h_dim), forward.encoder[:len(source)])):
        positions, *values = zip(*(record[1:] for record in records))
        x, h, z, r, rh, c = (np.concatenate(v) for v in values)
        deltas = np.empty((3, len(source), h_dim))
        d_x = np.empty((len(source), e_dim))  # by source position
        carry = None
        for k in reversed(range(len(source))):
            g = d_matrix[positions[k], half]
            carry, d_x[positions[k]], deltas[:, k] = gru_grads(
                g if carry is None else g + carry, h[k], z[k], r[k], c[k],
                p[prefix])
        _gru_weight_grads(prefix, deltas, x, h, rh, grads)
        d_src.append(d_x)
    d_src = _masked(d_src[0] + d_src[1], forward.src_masks)
    grads["src_emb"] = np.zeros_like(p["src_emb"])
    for pos in reversed(range(len(source))):
        grads["src_emb"][source[pos]] += d_src[pos]
    return [(params[name], g) for name, g in grads.items()]


def sequence_log_prob(source, target, params, dropout=None, forward=None):
    """Differentiable log-probability of ``target`` conditioned on its own
    prefix: sum over steps of log p(y_t | y_<t, x).

    ``forward`` is the kept forward of the roll-out that drew ``target``
    (:attr:`SampledSequence.forward`); the score then runs on its values
    and no second forward is computed. Without one, ``target`` is replayed
    teacher-forced (:func:`forced_logits`), as for references. A kept
    forward is valid only until the parameters change, and one that fed
    other tokens than ``[START] + target[:-1]`` raises ValueError.
    """
    if len(target) == 0:
        raise ValueError("sequence_log_prob: target must be non-empty")
    inputs = [START] + list(target[:-1])
    return log_likelihood(
        _kept_logits(source, inputs, params, dropout, forward), target)


def pair_log_prob(source, pair, params):
    """Both halves of a sampled pair's joint log-probability.

    Both members are conditioned on the recorded greedy prefix; the
    negative distribution applies only at the recorded perturbation
    position. The halves are scored on the pair's kept forward
    (:attr:`SampledPair.forward`), valid until the parameters change, or
    replayed teacher-forced on the greedy prefix when it has none. Returns
    ``(lp_pos, lp_perturbed)`` whose sum reproduces the pair's accumulated
    log-probability.
    """
    inputs = [START] + list(pair.greedy[: len(pair.tokens_pos) - 1])
    logits = _kept_logits(source, inputs, params, None, pair.forward)
    return (log_likelihood(logits, pair.tokens_pos),
            log_likelihood(logits, pair.tokens_neg, pair.position))


@dataclass
class SampledSequence:
    """A sequence drawn token-by-token from the model, with its log-prob
    and the kept forward of the roll-out that drew it (None when built by
    hand); the forward takes no part in comparisons."""

    tokens: list
    log_prob: float
    forward: Forward = field(default=None, compare=False, repr=False)


@dataclass
class SampledPair:
    """A positive sample and a one-position perturbation, both conditioned
    on the same greedy prefix, with the kept forward of the roll-out that
    fed that prefix."""

    tokens_pos: list
    tokens_neg: list
    greedy: list
    position: int      # 1-based step at which the perturbation was drawn
    log_prob: float
    forward: Forward = field(default=None, compare=False, repr=False)


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


def rollout(sources, params, max_len, policy, record=None):
    """Run the decoder over a batch of sources for up to ``max_len`` steps,
    on arrays only (no graph is recorded).

    Sources of equal length run together, one array operation per step for
    all of them. Every row is fed START at its first step. Each step
    calls ``policy(rows, logits, alpha)`` with the indices into
    ``sources`` of the rows still running, their logits [n, V] and
    attention weights [n, T]. The policy returns the tokens fed to those
    rows' next step and a boolean mask of the rows that go on. Greedy
    decoding, sampling, pair sampling and teacher forcing are policies over
    this one loop.

    A ``record`` (:class:`Forward`), valid for a batch of one source only,
    keeps every value the roll-out computes for the reverse pass; it is
    valid until the parameters change. Without one nothing is kept.
    """
    if record is not None and len(sources) != 1:
        raise ValueError(f"rollout: a record keeps the forward of one "
                         f"source, got {len(sources)}")
    p = params.arrays()
    by_length = {}
    for i, source in enumerate(sources):
        by_length.setdefault(len(source), []).append(i)
    for rows in by_length.values():
        rows = np.array(rows)
        if record is None:
            matrix, proj, state = encode_full([sources[i] for i in rows], p)
        else:
            matrix, proj, state = record.encode(sources[0], params, p)
        prev = np.full(len(rows), START)
        for _ in range(max_len):
            if record is None:
                logits, state, (alpha, *_) = _step(prev, state, matrix,
                                                   proj, p)
            else:
                logits, state, alpha = record.step(prev, state, matrix,
                                                   proj, p)
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
        rows = rows.tolist()
        for row, tok in zip(rows, best.tolist()):
            tokens[row].append(tok)
        if return_attention:
            for row, weights in zip(rows, alpha):
                attention[row].append(weights)
        return best, best != END

    rollout(sources, params, max_len, argmax)
    if return_attention:
        return list(zip(tokens, attention))
    return tokens


def sample_sequence(source, params, max_len, rng):
    """Draw one sequence from the positive distribution, conditioning each
    step on the tokens already drawn; accumulates the log-probability and
    stops after END or ``max_len`` tokens. The roll-out's values are kept
    on the sample (``forward``) for scoring it before the parameters
    change."""
    if max_len < 1:
        raise ValueError("sample_sequence: max_len must be >= 1")
    tokens = []
    log_prob = 0.0

    def draw(_, logits, __):
        nonlocal log_prob
        log_p = output_log_probs(logits[0])
        tok = _draw(np.exp(log_p), rng)
        log_prob += float(log_p[tok])
        tokens.append(tok)
        return (tok,), (tok != END,)

    forward = Forward()
    rollout([source], params, max_len, draw, forward)
    return SampledSequence(tokens=tokens, log_prob=log_prob, forward=forward)


def greedy_rollout(source, params, max_len):
    """The roll-out that conditions pair sampling: ``max_len`` argmax
    steps (ties -> lowest id) that do not stop at END. Returns the greedy
    tokens and the roll-out's kept :class:`Forward`, whose logits rows are
    the step distributions both pair members are drawn from; it is valid
    until the parameters change."""
    greedy = []

    def follow_argmax(_, logits, __):
        greedy.append(int(np.argmax(logits[0])))
        return greedy[-1:], (True,)

    forward = Forward()
    rollout([source], params, max_len, follow_argmax, forward)
    return greedy, forward


def sample_pair(source, params, max_len, rng):
    """Draw a (positive, perturbed) pair conditioned on the greedy roll-out
    (:func:`greedy_rollout`).

    A perturbation position i is drawn uniformly from 1..max_len first.
    Each step's logits then give the positive member's token and the
    perturbed member's token — from the negative distribution at step i,
    from the positive one elsewhere — both conditioned on the greedy
    prefix. All ``max_len`` steps are taken; END does not stop the roll-out
    here, feedback simply ignores anything an END precedes. The joint
    log-probability accumulates every factor. The roll-out's values are
    kept on the pair (``forward``) for scoring it before the parameters
    change.
    """
    if max_len < 1:
        raise ValueError("sample_pair: max_len must be >= 1")
    greedy, forward = greedy_rollout(source, params, max_len)
    position = int(rng.integers(1, max_len + 1))
    tokens_pos = []
    tokens_neg = []
    log_prob = 0.0
    for step, (logits,) in enumerate(forward.logits, start=1):
        log_p_pos = output_log_probs(logits)
        p_pos = np.exp(log_p_pos)
        w = _draw(p_pos, rng)
        log_prob += float(log_p_pos[w])
        if step == position:
            log_p_neg = output_log_probs(logits, negated=True)
            w_prime = _draw(np.exp(log_p_neg), rng)
            log_prob += float(log_p_neg[w_prime])
        else:
            w_prime = _draw(p_pos, rng)
            log_prob += float(log_p_pos[w_prime])
        tokens_pos.append(w)
        tokens_neg.append(w_prime)
    return SampledPair(tokens_pos=tokens_pos, tokens_neg=tokens_neg,
                       greedy=greedy, position=position, log_prob=log_prob,
                       forward=forward)
