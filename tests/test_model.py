import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from banditseq import model
from banditseq.autodiff import (
    Tape,
    add,
    attention_values,
    log_likelihood,
    neg,
)
from banditseq.model import (
    END,
    START,
    UNK,
    Forward,
    ModelParams,
    SampledPair,
    Vocabulary,
    encode_full,
    forced_logits,
    greedy_decode,
    output_log_probs,
    pair_log_prob,
    rollout,
    sample_pair,
    sample_sequence,
    sequence_log_prob,
)
from banditseq.objectives import el_gradient, mle_loss_and_grad, \
    pr_gradient, pr_halves

from conftest import random_source, reference_backprop, relative_gap, \
    tiny_params
from oracles import count_sequences, enumerate_pair_outcomes, \
    enumerate_sequences, finite_difference_check
from reference_ops import (
    concat,
    constant,
    dot,
    embedding_lookup,
    logsumexp,
    matmul,
    matvec,
    mul,
    pick,
    sigmoid,
    softmax,
    stack,
    stack_rows,
    tanh,
)


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary(["b", "a"])
        assert vocab.id_of("<s>") == START == 0
        assert vocab.id_of("</s>") == END == 1
        assert vocab.id_of("<unk>") == UNK == 2

    def test_frequency_then_lexicographic_order(self):
        vocab = Vocabulary.from_corpus([["a", "a", "b"]], cutoff=1)
        assert vocab.id_of("a") == 3
        assert vocab.id_of("b") == 4

    def test_tie_broken_lexicographically(self):
        vocab = Vocabulary.from_corpus([["z", "y"]], cutoff=1)
        assert vocab.id_of("y") < vocab.id_of("z")

    def test_cutoff_above_all_leaves_reserved_only(self):
        vocab = Vocabulary.from_corpus([["a", "b"]], cutoff=5)
        assert len(vocab) == 3

    def test_round_trip(self):
        vocab = Vocabulary.from_corpus([["hello", "world", "hello"]])
        tokens = ["hello", "world"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_oov_maps_to_unk(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode(["zzz"]) == [UNK]

    def test_reserved_collision_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["<unk>"])


class TestModelParams:
    def test_shapes_consistent(self):
        params = ModelParams(10, embed_size=5, hidden_size=6, seed=0)
        assert params["src_emb"].shape == (10, 5)
        assert params["dec.Wz"].shape == (6, 5 + 12)
        assert params["out.W"].shape == (10, 18)
        assert params["att.U"].shape == (12, 6)

    def test_deterministic_init(self):
        a = ModelParams(8, 4, 4, seed=3)
        b = ModelParams(8, 4, 4, seed=3)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data)

    def test_from_tensors_round_trip(self):
        params = ModelParams(8, 4, 4, seed=3)
        rebuilt = ModelParams.from_tensors(8, params.copy_values())
        assert rebuilt.embed_size == 4 and rebuilt.hidden_size == 4
        for name in params.tensors:
            assert np.array_equal(params[name].data, rebuilt[name].data)

    def test_from_tensors_shape_mismatch(self):
        params = ModelParams(8, 4, 4, seed=3)
        values = params.copy_values()
        values["out.b"] = np.zeros(9)
        with pytest.raises(ValueError, match="out.b"):
            ModelParams.from_tensors(8, values)


class TestEncode:
    def test_zero_parameters_give_zero_states(self):
        params = ModelParams(6, 3, 4, init="zeros")
        states, _, _ = encode_full([[3, 4]], params.arrays())
        assert np.array_equal(states, np.zeros((1, 2, 8)))

    def test_single_token_one_state(self):
        params = tiny_params()
        states, _, _ = encode_full([[4]], params.arrays())
        assert states.shape == (1, 1, 2 * params.hidden_size)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            encode_full([[]], tiny_params().arrays())

    def test_unknown_id_rejected(self):
        with pytest.raises(IndexError):
            encode_full([[99]], tiny_params().arrays())

    def test_reversal_pairing_with_tied_directions(self):
        # with forward and backward GRUs sharing weights, the backward half
        # on x equals the forward half on reversed x, mirrored in position
        params = tiny_params(seed=9)
        for gate in ("z", "r", "h"):
            for kind in ("W", "U", "b"):
                params[f"enc_bwd.{kind}{gate}"].data[...] = \
                    params[f"enc_fwd.{kind}{gate}"].data
        h = params.hidden_size
        src = [3, 4, 5, 3]
        fwd_on_rev = encode_full([src[::-1]], params.arrays())[0][0]
        bwd_on_src = encode_full([src], params.arrays())[0][0]
        t_x = len(src)
        for t in range(t_x):
            backward_half = bwd_on_src[t][h:]
            forward_half = fwd_on_rev[t_x - 1 - t][:h]
            assert np.max(np.abs(backward_half - forward_half)) < 1e-12


def _attend(state, matrix, params):
    """Attention weights and context of decoder state(s) over encoder
    states ``matrix``."""
    alpha, _ = attention_values(state, matrix @ params["att.U"].data,
                                params["att.W"].data, params["att.v"].data)
    return (alpha[..., None, :] @ matrix)[..., 0, :], alpha


class TestAttention:
    def test_single_state_gets_full_weight(self, rng):
        params = tiny_params()
        states, _, init = encode_full([[4]], params.arrays())
        ctx, alpha = _attend(init, states, params)
        assert np.allclose(alpha, [[1.0]])
        assert np.allclose(ctx, states[:, 0])

    def test_identical_states_give_that_state(self, rng):
        params = tiny_params()
        h = rng.normal(size=2 * params.hidden_size)
        state = rng.normal(size=params.hidden_size)
        ctx, _ = _attend(state, np.stack([h, h, h]), params)
        assert np.max(np.abs(ctx - h)) < 1e-12

    def test_weights_sum_to_one(self, rng):
        params = tiny_params(seed=2)
        states, _, _ = encode_full([random_source(rng, length=5)],
                                   params.arrays())
        state = rng.normal(size=(1, params.hidden_size))
        _, alpha = _attend(state, states, params)
        assert abs(alpha.sum() - 1.0) < 1e-12


class TestDecoderStep:
    def test_zero_parameters_uniform_logits(self):
        params = ModelParams(6, 3, 4, init="zeros")
        logits = forced_logits([3, 4], [START], params).data
        assert logits.shape == (1, 6)
        assert np.allclose(logits, logits[0, 0])

    def test_inputs_must_begin_with_start(self):
        params = tiny_params(seed=4)
        with pytest.raises(ValueError):
            forced_logits([3, 5], [3], params)

    def test_deterministic(self):
        params = tiny_params(seed=4)
        a = forced_logits([3, 5], [START], params).data
        b = forced_logits([3, 5], [START], params).data
        assert np.array_equal(a, b)

    def test_output_row_perturbation_moves_one_logit(self):
        params = tiny_params(seed=4)
        logits = forced_logits([3, 5], [START], params).data[0]
        delta = 0.125
        params["out.W"].data[4] += delta
        logits2 = forced_logits([3, 5], [START], params).data[0]
        diff = logits2 - logits
        # recompute the pre-output activation to predict the exact shift
        assert diff[4] != 0.0
        mask = np.ones(6, dtype=bool)
        mask[4] = False
        assert np.max(np.abs(diff[mask])) < 1e-15


def _scored(logits, tok, negated):
    """log p(tok) scored the way the estimators do, on one step."""
    return float(log_likelihood(constant(logits[None]), [tok],
                                1 if negated else 0).data)


class TestOutputDistribution:
    """The positive and negative distributions as the samplers draw from
    them (``output_log_probs``) and as the estimators score them
    (``log_likelihood``)."""

    def test_forced_values_both_modes(self):
        logits = np.array([np.log(2.0), 0.0])
        pos = np.exp(output_log_probs(logits))
        neg = np.exp(output_log_probs(logits, negated=True))
        assert np.allclose(pos, [2 / 3, 1 / 3])
        assert np.allclose(neg, [1 / 3, 2 / 3])
        for tok in (0, 1):
            for negated, probs in ((False, pos), (True, neg)):
                assert _scored(logits, tok, negated) == \
                    pytest.approx(np.log(probs[tok]), abs=1e-12)

    def test_uniform_logits_identical_modes(self):
        logits = np.full(5, 1.7)
        pos = output_log_probs(logits)
        neg = output_log_probs(logits, negated=True)
        assert np.allclose(pos, neg)
        assert np.allclose(np.exp(pos), 0.2)

    def test_rank_reversal(self, rng):
        for _ in range(200):
            logits = rng.normal(size=6, scale=2.0)
            pos = output_log_probs(logits)
            neg = output_log_probs(logits, negated=True)
            scored = np.array([_scored(logits, v, True) for v in range(6)])
            pos_desc = np.argsort(-pos, kind="stable")
            assert np.array_equal(np.argsort(-neg, kind="stable"),
                                  pos_desc[::-1])
            assert np.array_equal(np.argsort(-scored, kind="stable"),
                                  pos_desc[::-1])


class TestSequenceLogProb:
    def test_known_step_probabilities(self):
        # constant logits: token 3 has p=0.5, token 4 has p=0.25 every step
        params = ModelParams(6, 3, 4, init="zeros")
        probs = np.array([0.0625, 0.03125, 0.03125, 0.5, 0.25, 0.125])
        params["out.b"].data[...] = np.log(probs)
        with Tape():
            lp = sequence_log_prob([3], [3, 4], params)
        assert float(lp.data) == pytest.approx(np.log(0.125), abs=1e-12)

    def test_log_prob_nonpositive(self, rng):
        params = tiny_params(seed=6)
        for _ in range(10):
            tgt = random_source(rng, length=2) + [END]
            with Tape():
                lp = sequence_log_prob(random_source(rng), tgt, params)
            assert float(lp.data) <= 0.0

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            sequence_log_prob([3], [], tiny_params())

    def test_exhaustive_mass_sums_to_one(self):
        for seed in (0, 1, 2):
            params = tiny_params(seed=seed)
            seqs = enumerate_sequences([3, 4], params, 3)
            assert len(seqs) == count_sequences(6, 3)
            total = sum(np.exp(lp) for _, lp in seqs)
            assert abs(total - 1.0) < 1e-9

    def test_gradient_matches_finite_differences(self):
        params = tiny_params(seed=11)
        report = finite_difference_check(
            lambda p: sequence_log_prob([3, 4, 5], [4, 3, 1], params),
            params.tensors, step=1e-5, tolerance=1e-4)
        assert report.passed, report.max_rel_error


def _reference_log_prob(source, inputs, tokens, params, negated_step=0):
    """The model written once more as a tape graph of elementary ops, one
    node per product and nonlinearity."""
    w = params.tensors
    h_dim = params.hidden_size

    def gru(prefix, x, h):
        def gate(g, hh, act):
            return act(add(add(matvec(w[f"{prefix}.W{g}"], x),
                               matvec(w[f"{prefix}.U{g}"], hh)),
                           w[f"{prefix}.b{g}"]))

        z = gate("z", h, sigmoid)
        cand = gate("h", mul(gate("r", h, sigmoid), h), tanh)
        return add(mul(add(neg(z), 1.0), h), mul(z, cand))

    embs = [embedding_lookup(w["src_emb"], tok) for tok in source]
    fwd, bwd = [], []
    for prefix, steps, out in (("enc_fwd", embs, fwd),
                               ("enc_bwd", embs[::-1], bwd)):
        h = constant(np.zeros(h_dim))
        for x in steps:
            h = gru(prefix, x, h)
            out.append(h)
    bwd.reverse()
    states = [concat([f, b]) for f, b in zip(fwd, bwd)]
    proj = matmul(stack_rows(states), w["att.U"])
    state = tanh(add(matvec(w["dec_init.W"], bwd[0]), w["dec_init.b"]))
    total = None
    for t, (prev, tok) in enumerate(zip(inputs, tokens)):
        q = matvec(w["att.W"], state)
        alpha = softmax(stack([
            dot(w["att.v"], tanh(add(embedding_lookup(proj, i), q)))
            for i in range(len(source))]))
        context = mul(pick(alpha, 0), states[0])
        for i in range(1, len(source)):
            context = add(context, mul(pick(alpha, i), states[i]))
        x = concat([embedding_lookup(w["tgt_emb"], prev), context])
        state = gru("dec", x, state)
        pre_out = concat([state, context])
        logits = add(matvec(w["out.W"], pre_out), w["out.b"])
        if negated_step == t + 1:
            logits = neg(logits)
        term = add(pick(logits, tok), neg(logsumexp(logits)))
        total = term if total is None else add(total, term)
    return total


def _value_and_grads(score, params):
    with Tape() as tape:
        out = score()
    return float(out.data), tape.backward(out, params.tensors)


class TestReverseAgainstReference:
    """The one forward with its hand-written reverse pass against the
    elementary-op graph: values to 1e-12, gradients to 1e-10 relative."""

    def _check(self, ours, reference, params):
        got, got_grads = _value_and_grads(ours, params)
        want, want_grads = _value_and_grads(reference, params)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert relative_gap(got_grads, want_grads) <= 1e-10

    def test_scores_match_reference(self, rng):
        for seed in range(24):
            params = _doubled_model(rng, 900 + seed)
            vocab = params.vocab_size
            source = random_source(rng, vocab_size=vocab,
                                   length=int(rng.integers(1, 6)))
            length = int(rng.integers(1, 7))
            target = [int(t) for t in rng.integers(vocab, size=length)]
            inputs = [START] + target[:-1]
            self._check(
                lambda: sequence_log_prob(source, target, params),
                lambda: _reference_log_prob(source, inputs, target, params),
                params)
            greedy = [int(t) for t in rng.integers(vocab, size=length)]
            pair = SampledPair(
                tokens_pos=target,
                tokens_neg=[int(t) for t in rng.integers(vocab, size=length)],
                greedy=greedy, position=int(rng.integers(1, length + 1)))
            fed = [START] + greedy[:-1]
            for half, tokens, negated in ((0, pair.tokens_pos, 0),
                                          (1, pair.tokens_neg, pair.position)):
                self._check(
                    lambda: pair_log_prob(source, pair, params)[half],
                    lambda: _reference_log_prob(source, fed, tokens, params,
                                                negated),
                    params)

    def test_negated_half_matches_finite_differences(self):
        params = tiny_params(seed=21)
        pair = SampledPair(tokens_pos=[4, 3, 1], tokens_neg=[3, 5, 4],
                           greedy=[4, 3, 5], position=2)
        report = finite_difference_check(
            lambda p: pair_log_prob([3, 4, 5], pair, params)[1],
            params.tensors, step=1e-5, tolerance=1e-4)
        assert report.passed, report.max_rel_error

    def test_score_records_fixed_number_of_nodes(self):
        params = tiny_params(seed=5)
        counts = set()
        for length in (1, 4, 12):
            with Tape() as tape:
                sequence_log_prob([3] * length, [4] * length, params)
            counts.add(len(tape.nodes))
        assert counts == {2}


class TestGreedyDecode:
    def test_zero_parameters_tie_break_lowest_id(self):
        params = ModelParams(6, 3, 4, init="zeros")
        assert greedy_decode([[3]], params, 4) == [[0, 0, 0, 0]]

    def test_mass_concentrated_model_recovers_sequence(self):
        # bias the output layer so token 4 dominates, END after is blocked
        # by construction: with constant logits greedy repeats token 4
        params = ModelParams(6, 3, 4, init="zeros")
        bias = np.zeros(6)
        bias[4] = 40.0
        params["out.b"].data[...] = bias
        assert greedy_decode([[3]], params, 3) == [[4, 4, 4]]

    def test_stops_at_end(self):
        params = ModelParams(6, 3, 4, init="zeros")
        bias = np.zeros(6)
        bias[END] = 40.0
        params["out.b"].data[...] = bias
        assert greedy_decode([[3]], params, 5) == [[END]]

    def test_rerun_identical(self, rng):
        params = tiny_params(seed=12)
        src = random_source(rng)
        assert greedy_decode([src], params, 6) == greedy_decode([src], params, 6)

    def test_attention_vectors_align(self, rng):
        params = tiny_params(seed=12)
        src = random_source(rng, length=4)
        [(tokens, attn)] = greedy_decode([src], params, 6,
                                         return_attention=True)
        assert len(tokens) == len(attn)
        assert all(a.shape == (4,) for a in attn)


def _doubled_model(rng, seed):
    """A random tiny model whose greedy token changes from step to step
    (doubled weights) and that sometimes stops early (END bias)."""
    vocab = int(rng.integers(6, 12))
    params = tiny_params(vocab_size=vocab, seed=seed)
    for t in params.tensors.values():
        t.data *= 2.0
    params["out.b"].data[END] += rng.uniform(0.0, 1.0)
    return params


def _shuffled_batch(rng, vocab, size=12):
    # lengths 1-5, each at least once, in shuffled order
    lengths = [1, 2, 3, 4, 5, *rng.integers(1, 6, size=size - 5)]
    lengths = [lengths[i] for i in rng.permutation(len(lengths))]
    return [random_source(rng, vocab_size=vocab, length=int(n))
            for n in lengths]


def _assert_same_decode(got, want, batched):
    """A row decoded in a batch of one equals the single-sentence decode
    bit for bit, as training's roll-outs need. A row of a larger batch
    went through one GEMM per weight product, which rounds differently,
    so it equals it to rounding."""
    if batched:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(got, want)


class TestBatchedRollout:
    def test_policy_sees_teacher_forced_logits(self, rng):
        # every row, every step: the logits the batched roll-out hands the
        # policy equal the teacher-forced logits of what that row was fed;
        # the length-6 source is always a batch of one
        stops = {"full": 0, "early": 0}
        widths = {"alone": 0, "batched": 0}
        for seed in range(20):
            params = _doubled_model(rng, 700 + seed)
            sources = _shuffled_batch(rng, params.vocab_size) + [
                random_source(rng, vocab_size=params.vocab_size, length=6)]
            max_len = int(rng.integers(2, 8))
            seen = {i: [] for i in range(len(sources))}
            width = {}

            def argmax(rows, logits, alpha):
                assert logits.shape == (len(rows), params.vocab_size)
                assert alpha.shape == (len(rows),
                                       len(sources[int(rows[0])]))
                best = logits.argmax(axis=1)
                for row, lg, tok in zip(rows, logits, best):
                    seen[int(row)].append((lg.copy(), int(tok)))
                    width.setdefault(int(row), len(rows))
                return best, best != END

            rollout(sources, params, max_len, argmax)
            for i, steps in seen.items():
                fed = [START] + [tok for _, tok in steps[:-1]]
                forced = forced_logits(sources[i], fed, params)
                assert len(forced.data) == len(steps)
                for t, (lg, _) in enumerate(steps):
                    _assert_same_decode(lg, forced.data[t], width[i] > 1)
                stops["full" if len(steps) == max_len else "early"] += 1
                widths["batched" if width[i] > 1 else "alone"] += 1
        assert min(stops.values()) >= 20, stops
        assert min(widths.values()) >= 20, widths

    def test_greedy_decode_keeps_order_and_equals_single(self, rng):
        for seed in range(10):
            params = _doubled_model(rng, 800 + seed)
            sources = _shuffled_batch(rng, params.vocab_size) + [
                random_source(rng, vocab_size=params.vocab_size, length=6)]
            lengths = Counter(len(src) for src in sources)
            batch = greedy_decode(sources, params, 6, return_attention=True)
            assert len(batch) == len(sources)
            for src, (tokens, attn) in zip(sources, batch):
                [(alone, alone_attn)] = greedy_decode([src], params, 6,
                                                      return_attention=True)
                assert tokens == alone
                _assert_same_decode(attn, alone_attn, lengths[len(src)] > 1)
            assert greedy_decode(sources, params, 6) == \
                [tokens for tokens, _ in batch]

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_rejected(self, max_len):
        params = tiny_params(seed=19)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="greedy_decode: max_len"):
            greedy_decode([[3, 4]], params, max_len)
        with pytest.raises(ValueError, match="sample_sequence: max_len"):
            sample_sequence([3, 4], params, max_len, rng)
        with pytest.raises(ValueError, match="sample_pair: max_len"):
            sample_pair([3, 4], params, max_len, rng)

    def test_empty_batch_and_empty_source(self):
        params = tiny_params(seed=19)
        assert greedy_decode([], params, 4) == []
        with pytest.raises(ValueError):
            greedy_decode([[3, 4], []], params, 4)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_source_id(self, bad):
        # numpy indexing would wrap -1 to the last row without a check
        params = tiny_params(seed=19)
        with pytest.raises(IndexError):
            greedy_decode([[3], [4, bad]], params, 4)


class TestSampling:
    def test_near_deterministic_model_matches_greedy(self, rng):
        params = ModelParams(6, 3, 4, init="zeros")
        bias = np.zeros(6)
        bias[4] = 35.0  # > 30 nats of separation
        params["out.b"].data[...] = bias
        sample = sample_sequence([3], params, 3, rng)
        assert [sample.tokens] == greedy_decode([[3]], params, 3)

    def test_fixed_seed_reproducible(self):
        params = tiny_params(seed=13)
        a = sample_sequence([3, 4], params, 5, np.random.default_rng(7))
        b = sample_sequence([3, 4], params, 5, np.random.default_rng(7))
        assert a.tokens == b.tokens

    def test_sampling_frequencies_match_enumeration(self, rng):
        params = tiny_params(seed=15)
        src = [3, 4]
        seqs = enumerate_sequences(src, params, 2)
        probs = {tuple(t): np.exp(lp) for t, lp in seqs}
        n = 20000
        counts = {}
        for _ in range(n):
            s = sample_sequence(src, params, 2, rng)
            key = tuple(s.tokens)
            counts[key] = counts.get(key, 0) + 1
        for key, p in probs.items():
            if p < 5e-3:
                continue
            freq = counts.get(key, 0) / n
            se = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * se, (key, freq, p)


class TestSamplePairs:
    def test_t1_forces_position_one(self, rng):
        params = tiny_params(seed=16)
        pair = sample_pair([3, 4], params, 1, rng)
        assert pair.position == 1
        assert len(pair.tokens_pos) == len(pair.tokens_neg) == 1

    def test_pair_frequencies_match_enumeration(self, rng):
        # the sampler's step distributions against the ones the scorer
        # enumerates: a perturbed token drawn at another step than the
        # recorded position, or from the positive distribution, moves
        # these frequencies; quadrupled weights leave enough outcomes
        # above the cut-off
        params = tiny_params(seed=17)
        for t in params.tensors.values():
            t.data *= 4.0
        src = [3, 4]
        outcomes = enumerate_pair_outcomes(src, params, 2)
        n = 10000
        counts = Counter()
        for _ in range(n):
            pair = sample_pair(src, params, 2, rng)
            assert pair.greedy == outcomes[0][0].greedy
            counts[pair.position, tuple(pair.tokens_pos),
                   tuple(pair.tokens_neg)] += 1
        checked = 0
        for outcome, p in outcomes:
            if p < 5e-3:
                continue
            key = (outcome.position, tuple(outcome.tokens_pos),
                   tuple(outcome.tokens_neg))
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[key] / n - p) <= 4 * se, (key, counts[key], p)
            checked += 1
        assert checked >= 20, checked

    def test_uniform_model_members_exchangeable(self, rng):
        # with uniform logits the negative distribution equals the positive
        # one, so both members have identical marginals
        params = ModelParams(6, 3, 4, init="zeros")
        n = 8000
        counts = np.zeros((2, 6))
        for _ in range(n):
            pair = sample_pair([3], params, 1, rng)
            counts[0, pair.tokens_pos[0]] += 1
            counts[1, pair.tokens_neg[0]] += 1
        p = 1.0 / 6.0
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 4 * se)

    def test_greedy_track_matches_greedy_decode(self, rng):
        # the pair's conditioning prefix is the greedy decode, which stops
        # after its first END while the pair keeps rolling; doubled weights
        # make the greedy token change from step to step
        outcomes = {"full": 0, "stopped mid-way": 0}
        for seed in range(100):
            vocab = int(rng.integers(6, 12))
            params = tiny_params(vocab_size=vocab, seed=400 + seed)
            for t in params.tensors.values():
                t.data *= 2.0
            params["out.b"].data[END] += rng.uniform(0.0, 1.0)
            src = random_source(rng, vocab_size=vocab,
                                length=int(rng.integers(1, 5)))
            max_len = int(rng.integers(2, 9))
            [greedy] = greedy_decode([src], params, max_len)
            pair = sample_pair(src, params, max_len, rng)
            assert pair.greedy[:len(greedy)] == greedy
            # past END the pair keeps feeding its argmax tokens
            full = []

            def argmax(_, logits, __):
                full.append(int(np.argmax(logits[0])))
                return full[-1:], (True,)

            rollout([src], params, max_len, argmax)
            assert pair.greedy == full
            if len(greedy) == max_len:
                outcomes["full"] += 1
            elif len(greedy) > 1:
                outcomes["stopped mid-way"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_draws_pinned(self):
        # tokens, greedy prefix and position of fixed-seed draws: a change
        # to the roll-out or to the order of the draws changes them
        rng = np.random.default_rng(21)
        digest = hashlib.sha256()
        for seed in range(50):
            params = _battery_model(rng, 500 + seed)
            src = random_source(rng, vocab_size=params.vocab_size,
                                length=int(rng.integers(1, 5)))
            pair = sample_pair(src, params, int(rng.integers(1, 9)),
                               np.random.default_rng(seed))
            digest.update(repr((pair.tokens_pos, pair.tokens_neg,
                                pair.greedy, pair.position)).encode())
        assert digest.hexdigest() == \
            "1dc5d5a18cde5bef2c91c88bc341daea4de50c48806f7b00a60edd4d4327f3bc"

    def test_runs_full_length_even_past_end(self, rng):
        # pair sampling never stops early; END can appear mid-sequence
        params = tiny_params(seed=18)
        pair = sample_pair([3, 4], params, 4, rng)
        assert len(pair.tokens_pos) == 4
        assert len(pair.greedy) == 4


def _battery_model(rng, seed):
    """A random tiny model: V 6-13, E 1-5, H 1-6, doubled weights and an
    END bias, so samples vary in length and greedy tokens change."""
    vocab = int(rng.integers(6, 14))
    params = tiny_params(vocab_size=vocab, embed_size=int(rng.integers(1, 6)),
                         hidden_size=int(rng.integers(1, 7)), seed=seed)
    for t in params.tensors.values():
        t.data *= 2.0
    params["out.b"].data[END] += rng.uniform(0.0, 1.0)
    return params


def _assert_same_gradients(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestKeptForward:
    """A sample is scored on the values its roll-out kept; that must equal
    the teacher-forced replay bit for bit."""

    def test_kept_score_equals_replay(self, rng, monkeypatch):
        lengths = set()
        for seed in range(30):
            params = _battery_model(rng, 900 + seed)
            src = random_source(rng, vocab_size=params.vocab_size,
                                length=int(rng.integers(1, 9)))
            max_len = int(rng.integers(1, 9))
            sample = sample_sequence(src, params, max_len, rng)
            pair = sample_pair(src, params, max_len, rng)
            lengths.add(len(sample.tokens))
            hand_built = replace(sample, forward=None), \
                replace(pair, forward=None)
            with Tape():
                replayed = (el_gradient(src, hand_built[0], params),
                            pr_gradient(src, hand_built[1], params),
                            sequence_log_prob(src, sample.tokens, params),
                            pair_log_prob(src, hand_built[1], params),
                            pr_halves(src, hand_built[1], params))
            with monkeypatch.context() as patched, Tape():
                # the kept score must not run the encoder again
                patched.setattr(model, "encode_full", None)
                kept = (el_gradient(src, sample, params),
                        pr_gradient(src, pair, params),
                        sequence_log_prob(src, sample.tokens, params,
                                          forward=sample.forward),
                        pair_log_prob(src, pair, params),
                        pr_halves(src, pair, params))
            _assert_same_gradients(kept[0], replayed[0])
            _assert_same_gradients(kept[1], replayed[1])
            for half in (0, 1):
                _assert_same_gradients(kept[4][half], replayed[4][half])
                assert kept[3][half].data == replayed[3][half].data
            assert kept[2].data == replayed[2].data
        assert len(lengths) >= 4, lengths

    def test_kept_forward_of_other_tokens_rejected(self):
        params = tiny_params(seed=13)
        pair = sample_pair([3, 4], params, 4, np.random.default_rng(3))
        sample = sample_sequence([3, 4], params, 4, np.random.default_rng(3))
        with pytest.raises(ValueError):
            sequence_log_prob([3, 4], sample.tokens + [3], params,
                              forward=sample.forward)
        with pytest.raises(ValueError):
            sequence_log_prob([3, 5], sample.tokens, params,
                              forward=sample.forward)
        changed = [(pair.greedy[0] + 1) % params.vocab_size] + pair.greedy[1:]
        with pytest.raises(ValueError):
            pr_gradient([3, 4], replace(pair, greedy=changed), params)
        with pytest.raises(ValueError):
            pr_halves([3, 4], replace(pair, greedy=changed), params)
        with pytest.raises(ValueError):
            el_gradient([3, 4], sample, tiny_params(seed=13))

    def test_record_needs_one_source(self):
        params = tiny_params(seed=13)
        with pytest.raises(ValueError):
            rollout([[3], [4]], params, 3,
                    lambda rows, logits, alpha: (logits.argmax(axis=1),
                                                 [True] * len(rows)),
                    Forward())

    def test_record_keeps_one_rollout(self):
        params = tiny_params(seed=13)
        sample = sample_sequence([3, 4], params, 3, np.random.default_rng(3))
        with pytest.raises(ValueError, match="one roll-out only"):
            rollout([[3, 4]], params, 3,
                    lambda rows, logits, alpha: ([START], [True]),
                    sample.forward)

    def test_same_seed_samples_compare_equal(self):
        params = tiny_params(seed=13)
        draws = [(sample_sequence([3, 4], params, 5, np.random.default_rng(7)),
                  sample_pair([3, 4], params, 5, np.random.default_rng(7)))
                 for _ in range(2)]
        for a, b in zip(*draws):
            assert a.forward is not None and b.forward is not None
            assert a.forward is not b.forward
            assert a == b
            assert "forward" not in repr(a)


def _scores_by_both_passes(monkeypatch, src, sample, pair, reference,
                           params):
    """The EL score, the PR score (one reverse pass over the pair's joint
    log-probability) and its two halves, and an MLE gradient, computed with
    the model's reverse pass and again with the per-step order oracle
    (``conftest.reference_backprop``) on the same forwards."""
    def scores():
        return (el_gradient(src, sample, params),
                pr_gradient(src, pair, params),
                *pr_halves(src, pair, params),
                mle_loss_and_grad(src, reference, params)[1])

    ours = scores()
    with monkeypatch.context() as patched:
        patched.setattr(model, "_backprop", reference_backprop)
        oracle = scores()
    return ours, oracle


class TestReverseOrder:
    """The reverse pass sums each weight gradient over the stacked steps;
    it must equal the per-step loop it replaced bit for bit."""

    def test_equals_per_step_order_on_tiny_models(self, rng, monkeypatch):
        lengths = set()
        for seed in range(32):
            params = _battery_model(rng, 700 + seed)
            src = random_source(rng, vocab_size=params.vocab_size,
                                length=int(rng.integers(1, 9)))
            max_len = int(rng.integers(1, 9))
            sample = sample_sequence(src, params, max_len, rng)
            pair = sample_pair(src, params, max_len, rng)
            reference = [int(t) for t in rng.integers(
                params.vocab_size, size=int(rng.integers(1, 9)))]
            lengths.add(len(sample.tokens))
            ours, oracle = _scores_by_both_passes(
                monkeypatch, src, sample, pair, reference, params)
            for got, want in zip(ours, oracle):
                _assert_same_gradients(got, want)
        assert len(lengths) >= 4, lengths

    def test_equals_per_step_order_at_default_size(self, rng, monkeypatch):
        params = ModelParams(195, seed=3)
        for t in params.tensors.values():
            t.data *= 2.0
        src = random_source(rng, vocab_size=195, length=8)
        sample = sample_sequence(src, params, 20, rng)
        pair = sample_pair(src, params, 20, rng)
        assert len(pair.greedy) == 20
        reference = [int(t) for t in rng.integers(3, 195, size=20)]
        ours, oracle = _scores_by_both_passes(
            monkeypatch, src, sample, pair, reference, params)
        for got, want in zip(ours, oracle):
            _assert_same_gradients(got, want)
