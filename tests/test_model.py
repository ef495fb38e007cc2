import numpy as np
import pytest

from banditseq.autodiff import Tape, constant, finite_difference_check, \
    matmul, no_grad, stack_rows, token_log_prob
from banditseq.model import (
    END,
    START,
    UNK,
    EncodedSource,
    ModelParams,
    Vocabulary,
    attention_context,
    decoder_step,
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
from banditseq.oracles import count_sequences, enumerate_sequences

from conftest import random_source, tiny_params


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

    def test_save_load(self, tmp_path):
        vocab = Vocabulary.from_corpus([["a", "b", "a"]])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens


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
        for state in encode_full([3, 4], params).states:
            assert np.array_equal(state.data, np.zeros(8))

    def test_single_token_one_state(self):
        params = tiny_params()
        states = encode_full([4], params).states
        assert len(states) == 1
        assert states[0].shape == (2 * params.hidden_size,)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            encode_full([], tiny_params())

    def test_unknown_id_rejected(self):
        with pytest.raises(IndexError):
            encode_full([99], tiny_params())

    def test_reversal_pairing_with_tied_directions(self):
        # with forward and backward GRUs sharing weights, the backward half
        # on x equals the forward half on reversed x, mirrored in position
        params = tiny_params(seed=9)
        for gate in ("z", "r", "h"):
            for kind in ("W", "U", "b"):
                params[f"enc_bwd.{kind}{gate}"].data = \
                    params[f"enc_fwd.{kind}{gate}"].data.copy()
        h = params.hidden_size
        src = [3, 4, 5, 3]
        fwd_on_rev = encode_full(src[::-1], params).states
        bwd_on_src = encode_full(src, params).states
        t_x = len(src)
        for t in range(t_x):
            backward_half = bwd_on_src[t].data[h:]
            forward_half = fwd_on_rev[t_x - 1 - t].data[:h]
            assert np.max(np.abs(backward_half - forward_half)) < 1e-12


class TestAttention:
    def test_single_state_gets_full_weight(self, rng):
        params = tiny_params()
        enc = encode_full([4], params)
        ctx, alpha = attention_context(enc.init_state, enc, params)
        assert np.allclose(alpha.data, [1.0])
        assert np.allclose(ctx.data, enc.states[0].data)

    def test_identical_states_give_that_state(self, rng):
        params = tiny_params()
        h = constant(rng.normal(size=2 * params.hidden_size))
        matrix = stack_rows([h, h, h])
        enc = EncodedSource(states=[h, h, h], matrix=matrix,
                            att_proj=matmul(matrix, params["att.U"]),
                            init_state=None)
        state = constant(rng.normal(size=params.hidden_size))
        ctx, alpha = attention_context(state, enc, params)
        assert np.max(np.abs(ctx.data - h.data)) < 1e-12

    def test_weights_sum_to_one(self, rng):
        params = tiny_params(seed=2)
        enc = encode_full(random_source(rng, length=5), params)
        state = constant(rng.normal(size=params.hidden_size))
        _, alpha = attention_context(state, enc, params)
        assert abs(alpha.data.sum() - 1.0) < 1e-12


class TestDecoderStep:
    def test_zero_parameters_uniform_logits(self):
        params = ModelParams(6, 3, 4, init="zeros")
        enc = encode_full([3, 4], params)
        logits, state, alpha = decoder_step(START, enc.init_state, enc, params)
        assert np.allclose(logits.data, logits.data[0])
        assert state.shape == (4,)

    def test_deterministic(self):
        params = tiny_params(seed=4)
        enc = encode_full([3, 5], params)
        a = decoder_step(3, enc.init_state, enc, params)[0].data
        b = decoder_step(3, enc.init_state, enc, params)[0].data
        assert np.array_equal(a, b)

    def test_output_row_perturbation_moves_one_logit(self):
        params = tiny_params(seed=4)
        enc = encode_full([3, 5], params)
        logits, _, _ = decoder_step(3, enc.init_state, enc, params)
        delta = 0.125
        params["out.W"].data[4] += delta
        enc2 = encode_full([3, 5], params)
        logits2, _, _ = decoder_step(3, enc2.init_state, enc2, params)
        diff = logits2.data - logits.data
        # recompute the pre-output activation to predict the exact shift
        assert diff[4] != 0.0
        mask = np.ones(6, dtype=bool)
        mask[4] = False
        assert np.max(np.abs(diff[mask])) < 1e-15


class TestOutputDistribution:
    """The positive and negative distributions as the samplers draw from
    them (``output_log_probs``) and as the estimators score them
    (``token_log_prob``)."""

    def test_forced_values_both_modes(self):
        logits = np.array([np.log(2.0), 0.0])
        pos = np.exp(output_log_probs(logits))
        neg = np.exp(output_log_probs(logits, negated=True))
        assert np.allclose(pos, [2 / 3, 1 / 3])
        assert np.allclose(neg, [1 / 3, 2 / 3])
        for tok in (0, 1):
            for negated, probs in ((False, pos), (True, neg)):
                lp = token_log_prob(constant(logits), tok, negated)
                assert float(lp.data) == pytest.approx(np.log(probs[tok]),
                                                       abs=1e-12)

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
            scored = np.array([
                float(token_log_prob(constant(logits), v, negated=True).data)
                for v in range(6)])
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
        params["out.b"].data = np.log(probs)
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

    def test_gradient_under_dropout_matches_finite_differences(self):
        # a fresh generator per evaluation draws the same masks each time,
        # so the masked function is deterministic and differentiable
        params = tiny_params(seed=13)

        def log_prob(p):
            dropout = (0.3, np.random.default_rng(8))
            return sequence_log_prob([3, 4, 5], [4, 3, 1], params,
                                     dropout=dropout)

        with Tape():
            masked = float(log_prob(params).data)
            plain = float(sequence_log_prob([3, 4, 5], [4, 3, 1],
                                            params).data)
        assert masked != plain
        report = finite_difference_check(log_prob, params.tensors, step=1e-5,
                                         tolerance=1e-4)
        assert report.passed, report.max_rel_error


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
        params["out.b"].data = bias
        assert greedy_decode([[3]], params, 3) == [[4, 4, 4]]

    def test_stops_at_end(self):
        params = ModelParams(6, 3, 4, init="zeros")
        bias = np.zeros(6)
        bias[END] = 40.0
        params["out.b"].data = bias
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
    # lengths 1-5, each at least twice, in shuffled order
    lengths = [1, 2, 3, 4, 5, *rng.integers(1, 6, size=size - 5)]
    lengths = [lengths[i] for i in rng.permutation(len(lengths))]
    return [random_source(rng, vocab_size=vocab, length=int(n))
            for n in lengths]


class TestBatchedRollout:
    def test_policy_sees_teacher_forced_logits(self, rng):
        # every row, every step: the logits the batched roll-out hands the
        # policy equal the graph's logits replayed on what that row was fed
        stops = {"full": 0, "early": 0}
        for seed in range(20):
            params = _doubled_model(rng, 700 + seed)
            sources = _shuffled_batch(rng, params.vocab_size)
            max_len = int(rng.integers(2, 8))
            seen = {i: [] for i in range(len(sources))}

            def argmax(rows, logits, alpha):
                assert logits.shape == (len(rows), params.vocab_size)
                assert alpha.shape == (len(rows),
                                       len(sources[int(rows[0])]))
                best = logits.argmax(axis=1)
                for row, lg, tok in zip(rows, logits, best):
                    seen[int(row)].append((lg.copy(), int(tok)))
                return best, best != END

            rollout(sources, params, max_len, argmax)
            for i, steps in seen.items():
                fed = [START] + [tok for _, tok in steps[:-1]]
                with no_grad():
                    forced = forced_logits(sources[i], fed, params)
                assert len(forced) == len(steps)
                for (lg, _), want in zip(steps, forced):
                    assert np.array_equal(lg, want.data)
                stops["full" if len(steps) == max_len else "early"] += 1
        assert min(stops.values()) >= 20, stops

    def test_greedy_decode_keeps_order_and_equals_single(self, rng):
        for seed in range(10):
            params = _doubled_model(rng, 800 + seed)
            sources = _shuffled_batch(rng, params.vocab_size)
            batch = greedy_decode(sources, params, 6, return_attention=True)
            assert len(batch) == len(sources)
            for src, (tokens, attn) in zip(sources, batch):
                [(alone, alone_attn)] = greedy_decode([src], params, 6,
                                                      return_attention=True)
                assert tokens == alone
                assert np.array_equal(attn, alone_attn)
            assert greedy_decode(sources, params, 6) == \
                [tokens for tokens, _ in batch]

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
        params["out.b"].data = bias
        sample = sample_sequence([3], params, 3, rng)
        assert [sample.tokens] == greedy_decode([[3]], params, 3)

    def test_fixed_seed_reproducible(self):
        params = tiny_params(seed=13)
        a = sample_sequence([3, 4], params, 5, np.random.default_rng(7))
        b = sample_sequence([3, 4], params, 5, np.random.default_rng(7))
        assert a.tokens == b.tokens and a.log_prob == b.log_prob

    def test_log_prob_matches_teacher_forced_recompute(self, rng):
        params = tiny_params(seed=14)
        for _ in range(20):
            src = random_source(rng)
            sample = sample_sequence(src, params, 5, rng)
            with Tape():
                lp = sequence_log_prob(src, sample.tokens, params)
            assert abs(float(lp.data) - sample.log_prob) < 1e-10

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

    def test_joint_log_prob_recomputable(self, rng):
        params = tiny_params(seed=17)
        for _ in range(20):
            src = random_source(rng)
            pair = sample_pair(src, params, 3, rng)
            with Tape():
                lp_pos, lp_neg = pair_log_prob(src, pair, params)
            recomputed = float(lp_pos.data) + float(lp_neg.data)
            assert abs(recomputed - pair.log_prob) < 1e-10

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

    def test_runs_full_length_even_past_end(self, rng):
        # pair sampling never stops early; END can appear mid-sequence
        params = tiny_params(seed=18)
        pair = sample_pair([3, 4], params, 4, rng)
        assert len(pair.tokens_pos) == 4
        assert len(pair.greedy) == 4
