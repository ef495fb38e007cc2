import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditseq import model, objectives
from banditseq.autodiff import Tape, add, neg
from banditseq.metrics import pairwise_feedback
from banditseq.model import (
    END,
    ModelParams,
    SampledSequence,
    pair_log_prob,
    sample_pair,
    sample_sequence,
    sequence_log_prob,
)
from banditseq.objectives import (
    ControlVariateState,
    OptimizerState,
    TrainingDiverged,
    adam_update,
    apply_score_function_cv,
    bandit_train_loop,
    clip_gradient,
    el_gradient,
    grad_norm,
    mle_loss_and_grad,
    pr_gradient,
    pr_halves,
)

from conftest import loop_config, max_abs, max_abs_diff, relative_gap, \
    tiny_params
from oracles import (
    enumerate_pair_outcomes,
    enumerate_sequences,
    exact_pr_risk_and_grad,
    exact_risk_and_grad,
    finite_difference_check,
)


class TestMleLossAndGrad:
    def test_uniform_model_per_token_loss(self):
        # zero parameters -> uniform over the 4 ids; two predicted tokens
        params = ModelParams(4, 3, 4, init="zeros")
        loss, grads = mle_loss_and_grad([3], [3, END], params)
        assert loss == pytest.approx(2 * math.log(4), abs=1e-12)
        assert grads.shape == params.vector.shape

    def test_peaked_model_near_zero_loss_and_gradient(self):
        params = ModelParams(6, 3, 4, init="zeros")
        bias = np.zeros(6)
        bias[4] = 50.0
        params["out.b"].data[...] = bias
        loss, grads = mle_loss_and_grad([3], [4, 4], params)
        assert loss < 1e-8
        assert max_abs(grads) < 1e-8

    def test_gradient_matches_finite_differences(self):
        params = tiny_params(seed=21)
        report = finite_difference_check(
            lambda p: neg(sequence_log_prob([3, 4], [5, 1], params)),
            params.tensors, tolerance=1e-4)
        assert report.passed

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            mle_loss_and_grad([3], [], tiny_params())


def _feedback_times(feedback, score):
    # with no history the sf variate's coefficient is zero, so this is the
    # plain estimate feedback * score
    return apply_score_function_cv(feedback, score, ControlVariateState())


class TestElGradient:
    def test_zero_feedback_zero_gradient(self, rng):
        params = tiny_params(seed=22)
        sample = sample_sequence([3, 4], params, 3, rng)
        score = el_gradient([3, 4], sample, params)
        assert max_abs(_feedback_times(0.0, score)) == 0.0
        assert max_abs(score) > 0.0

    def test_linear_in_feedback(self, rng):
        params = tiny_params(seed=23)
        sample = sample_sequence([3, 4], params, 3, rng)
        score = el_gradient([3, 4], sample, params)
        pos = _feedback_times(1.0, score)
        neg = _feedback_times(-1.0, score)
        assert np.array_equal(pos, -neg)

    def test_unbiased_for_exact_risk(self, rng):
        src = [3, 4]
        for seed in range(3):
            params = tiny_params(seed=seed)
            seqs = enumerate_sequences(src, params, 2)
            table = {tuple(t): float(rng.uniform(-1.0, 0.0)) for t, _ in seqs}
            _, exact = exact_risk_and_grad(src, params,
                                           lambda t: table[tuple(t)], 2)
            acc = np.zeros_like(exact)
            for tokens, lp in seqs:
                sample = SampledSequence(list(tokens))
                score = el_gradient(src, sample, params)
                acc += np.exp(lp) * table[tuple(tokens)] * score
            assert relative_gap(acc, exact) < 1e-5


class TestPairwiseFeedback:
    def test_binary_fires_only_on_misranking(self):
        # positive member has the higher loss -> misranked -> 1
        assert pairwise_feedback(-0.2, -0.8, "binary") == 1.0
        assert pairwise_feedback(-0.8, -0.2, "binary") == 0.0

    def test_binary_tie_is_zero(self):
        assert pairwise_feedback(-0.5, -0.5, "binary") == 0.0

    def test_continuous_signed_difference(self):
        assert pairwise_feedback(-0.2, -0.8, "continuous") == \
            pytest.approx(0.6)
        assert pairwise_feedback(-0.8, -0.2, "continuous") == \
            pytest.approx(-0.6)
        assert pairwise_feedback(-0.5, -0.5, "continuous") == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pairwise_feedback(float("nan"), 0.0, "binary")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            pairwise_feedback(0.0, 0.0, "hinge")

    @given(st.floats(-1, 0), st.floats(-1, 0))
    @settings(max_examples=100, deadline=None)
    def test_ranges(self, di, dj):
        assert pairwise_feedback(di, dj, "binary") in (0.0, 1.0)
        assert -1.0 <= pairwise_feedback(di, dj, "continuous") <= 1.0


class TestPrGradient:
    def test_zero_feedback_zero_gradient(self, rng):
        params = tiny_params(seed=24)
        pair = sample_pair([3, 4], params, 2, rng)
        score = pr_gradient([3, 4], pair, params)
        assert max_abs(_feedback_times(0.0, score)) == 0.0
        assert max_abs(score) > 0.0

    def test_parts_sum_to_score(self, rng):
        # reference: one backward pass through the pair's joint
        # log-probability, so dropping or doubling a half shows; each half
        # is its own backward pass, and the halves add up to the score up
        # to the rounding of adding before or after the reverse pass
        params = tiny_params(seed=25)
        for _ in range(5):
            pair = sample_pair([3, 4], params, 3, rng)
            score = pr_gradient([3, 4], pair, params)
            g_pos, g_neg = pr_halves([3, 4], pair, params)
            with Tape() as tape:
                lp_pos, lp_neg = pair_log_prob([3, 4], pair, params)
                joint = add(lp_pos, lp_neg)
            assert max_abs_diff(score, tape.backward(joint, params.tensors)) \
                == 0.0
            assert max_abs_diff(g_pos, tape.backward(lp_pos, params.tensors)) \
                == 0.0
            assert max_abs_diff(g_neg, tape.backward(lp_neg, params.tensors)) \
                == 0.0
            assert max_abs_diff(g_pos + g_neg, score) <= 1e-12

    def test_pair_outcome_probabilities_sum_to_one(self):
        params = tiny_params(seed=26)
        outcomes = enumerate_pair_outcomes([3, 4], params, 2)
        assert abs(sum(p for _, p in outcomes) - 1.0) < 1e-9

    def test_unbiased_for_exact_pr_risk(self, rng):
        src = [3, 5]
        params = tiny_params(seed=26)
        seqs = {}

        def seq_loss(tokens):
            key = tuple(tokens)
            if key not in seqs:
                seqs[key] = float(rng.uniform(-1.0, 0.0))
            return seqs[key]

        def pair_delta(w, wp):
            return pairwise_feedback(seq_loss(w), seq_loss(wp), "continuous")

        _, exact = exact_pr_risk_and_grad(src, params, pair_delta, 2)
        outcomes = enumerate_pair_outcomes(src, params, 2)
        acc = np.zeros_like(exact)
        for pair, prob in outcomes:
            fb = pair_delta(pair.tokens_pos, pair.tokens_neg)
            if fb == 0.0:
                continue
            acc += prob * fb * pr_gradient(src, pair, params)
        assert relative_gap(acc, exact) < 1e-5


def _norm(grads):
    # a vector that holds one tensor
    return grad_norm([grads])


class TestClipGradient:
    def test_below_norm_unchanged(self):
        grads = np.array([0.3, 0.4])
        assert clip_gradient(grads, 1.0, _norm(grads)) is grads

    def test_scales_to_max_norm(self):
        grads = np.array([3.0, 4.0])
        clipped = clip_gradient(grads, 1.0, _norm(grads))
        assert np.allclose(clipped, [0.6, 0.8])
        assert np.array_equal(grads, [3.0, 4.0])

    def test_post_clip_norm_bounded(self, rng):
        params = tiny_params(seed=59)
        for _ in range(100):
            grads = rng.normal(size=params.vector.size, scale=5)
            norm = grad_norm(params.parts(grads))
            clipped = clip_gradient(grads, 1.0, norm)
            assert grad_norm(params.parts(clipped)) <= 1.0 + 1e-12

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            clip_gradient(np.zeros(1), 0.0, 0.0)

    def test_given_norm_used(self, rng):
        # the clip reads the norm it is given, not one of its own
        grads = rng.normal(size=4, scale=5)
        assert clip_gradient(grads, 1.0, 0.5) is grads
        assert np.array_equal(clip_gradient(grads, 1.0, 4.0), grads * 0.25)

    def test_norm_sums_tensor_by_tensor(self, rng):
        # the same squares summed per tensor and then over tensors
        params = tiny_params(seed=61)
        grads = rng.normal(size=params.vector.size, scale=5)
        squares = [float(g.ravel() @ g.ravel())
                   for g in params.views(grads).values()]
        assert grad_norm(params.parts(grads)) == math.sqrt(sum(squares))


class TestAdam:
    def _params(self):
        params = tiny_params(seed=27)
        return params, OptimizerState.for_params(params, alpha=1e-3,
                                                 beta1=0.9, beta2=0.999,
                                                 eps=1e-8)

    def test_zero_gradient_leaves_parameters(self):
        params, state = self._params()
        before = params.vector.copy()
        adam_update(params, np.zeros_like(params.vector), state)
        assert np.array_equal(params.vector, before)
        assert state.t == 1

    def test_first_step_is_signed_alpha(self):
        params, state = self._params()
        before = params.copy_values()
        grads = np.zeros_like(params.vector)
        params.views(grads)["out.b"][...] = 0.7
        adam_update(params, grads, state)
        moved = before["out.b"] - params["out.b"].data
        assert np.allclose(moved, 1e-3, rtol=1e-6)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params, state = self._params()
            grads = np.full_like(params.vector, 0.1)
            adam_update(params, grads, state)
            adam_update(params, grads, state)
            runs.append(params.vector.copy())
        assert np.array_equal(runs[0], runs[1])


class TestExactRisk:
    def test_constant_loss_gives_constant_risk_zero_grad(self):
        params = tiny_params(seed=29)
        risk, grads = exact_risk_and_grad([3], params, lambda t: -0.25, 2)
        assert risk == pytest.approx(-0.25, abs=1e-12)
        assert max_abs(grads) < 1e-10

    def test_two_point_loss_weighted_mean(self):
        params = tiny_params(seed=30)
        seqs = enumerate_sequences([3], params, 1)
        target = tuple(seqs[0][0])
        risk, _ = exact_risk_and_grad(
            [3], params, lambda t: -1.0 if tuple(t) == target else 0.0, 1)
        assert risk == pytest.approx(-float(np.exp(seqs[0][1])), abs=1e-12)

    def test_enumeration_guard(self):
        params = ModelParams(40, 3, 4, seed=0)
        with pytest.raises(ValueError, match="guard"):
            exact_risk_and_grad([3], params, lambda t: 0.0, 4, guard=1000)

    def test_matches_monte_carlo(self, rng):
        params = tiny_params(seed=31)
        src = [4]
        table = {}

        def loss(tokens):
            key = tuple(tokens)
            if key not in table:
                table[key] = float(rng.uniform(-1.0, 0.0))
            return table[key]

        risk, _ = exact_risk_and_grad(src, params, loss, 2)
        n = 4000
        draws = [loss(sample_sequence(src, params, 2, rng).tokens)
                 for _ in range(n)]
        mean = float(np.mean(draws))
        se = float(np.std(draws) / np.sqrt(n))
        assert abs(mean - risk) <= 4 * max(se, 1e-6)


LOOP_MODES = list(itertools.product(["el", "pr"], ["none", "baseline", "sf"]))


def _toy_stream(sources):
    def gen():
        while True:
            for i, s in enumerate(sources):
                yield i, s

    return gen()


class TestBanditTrainLoop:
    def _setup(self, objective="el", cv="none", iters=8, **kwargs):
        params = tiny_params(seed=33)
        cfg = loop_config(objective=objective, cv_mode=cv, iters=iters,
                          valid_interval=4, seed=5, alpha=1e-3, max_len=3,
                          **kwargs)
        return params, cfg

    def test_zero_iterations_returns_initial(self):
        params, cfg = self._setup(iters=0)
        before = params.copy_values()
        result = bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                                   lambda sid, toks: -0.5)
        for name, t in params.tensors.items():
            assert np.array_equal(t.data, before[name])
            assert np.array_equal(result.best_values[name], before[name])

    def test_without_validator_returns_last_iterate(self):
        params, cfg = self._setup(iters=6)
        before = params.copy_values()
        result = bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                                   lambda sid, toks: -0.5)
        assert any(not np.array_equal(t.data, before[name])
                   for name, t in params.tensors.items())
        for name, t in params.tensors.items():
            assert np.array_equal(result.best_values[name], t.data)
        assert result.best_iteration == 6
        assert result.best_score == -math.inf

    def test_zero_feedback_no_movement(self):
        params, cfg = self._setup(iters=6)
        before = params.copy_values()
        bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                          lambda sid, toks: 0.0)
        for name, t in params.tensors.items():
            assert np.array_equal(t.data, before[name])

    @pytest.mark.parametrize("objective,cv", LOOP_MODES)
    def test_loop_runs_and_logs(self, objective, cv):
        params, cfg = self._setup(objective=objective, cv=cv, iters=8)
        calls = []

        def feedback(sid, tokens, *perturbed):
            calls.append(sid)
            return -0.5 if 4 in tokens else -0.1

        result = bandit_train_loop(cfg, params, _toy_stream([[3, 4], [5]]),
                                   feedback,
                                   validate_fn=lambda p: {"ggleu": 0.5})
        assert len(calls) == 8  # reference isolation: one call per update
        metrics = {(r["iteration"], r["metric"]) for r in result.rows}
        assert (4, "mean_feedback") in metrics
        assert (8, "grad_norm") in metrics
        assert (0, "ggleu") in metrics
        assert ((8, "cv_chat_mean") in metrics) == (cv == "sf")
        assert ((8, "antithetic_cov_mean") in metrics) == (objective == "pr")
        assert all(math.isfinite(r["value"]) for r in result.rows)

    def test_pr_loop_reports_antithetic_covariance(self):
        params, cfg = self._setup(objective="pr", iters=4)
        result = bandit_train_loop(
            cfg, params, _toy_stream([[3, 4]]),
            lambda sid, pos, neg: pairwise_feedback(-0.4, -0.6, "continuous"))
        assert any(r["metric"] == "antithetic_cov_mean" for r in result.rows)

    def test_pr_antithetic_tracker_sees_a_fixed_subset(self, monkeypatch):
        # valid_interval 20: the halves are taken on every second update,
        # ten per window, and each window still reports the covariance
        seen = []
        pulled = []
        update = objectives.AntitheticTracker.update

        def recording(tracker, *halves):
            seen.append(len(pulled))
            return update(tracker, *halves)

        def stream():
            for i in itertools.count():
                pulled.append(i)
                yield i % 2, [[3, 4], [5]][i % 2]

        monkeypatch.setattr(objectives.AntitheticTracker, "update", recording)
        runs = []
        for _ in range(2):
            seen.clear()
            pulled.clear()
            params = tiny_params(seed=33)
            cfg = loop_config(objective="pr", cv_mode="sf", iters=40,
                              valid_interval=20, seed=5, alpha=1e-3,
                              max_len=3)
            result = bandit_train_loop(
                cfg, params, stream(),
                lambda sid, pos, neg: -0.1 * len(pos) + 0.2 * (neg != pos))
            assert seen == list(range(2, 41, 2))
            covariances = [(r["iteration"], r["value"]) for r in result.rows
                           if r["metric"] == "antithetic_cov_mean"]
            assert [k for k, _ in covariances] == [20, 40]
            assert all(math.isfinite(v) and v != 0.0 for _, v in covariances)
            runs.append((result.rows, {name: t.data.tobytes()
                                       for name, t in params.tensors.items()}))
        assert runs[0] == runs[1]

    def test_best_checkpoint_tracks_validation(self):
        params, cfg = self._setup(iters=8)
        scores = iter([0.1, 0.9, 0.2, 0.3])

        def validate(p):
            return {"ggleu": next(scores)}

        result = bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                                   lambda sid, toks: -0.5,
                                   validate_fn=validate)
        assert result.best_iteration == 4
        assert result.best_score == 0.9

    def test_divergence_aborts_with_iteration(self):
        params, cfg = self._setup(iters=5)
        with pytest.raises(TrainingDiverged, match="iteration 1"):
            bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                              lambda sid, toks: float("nan"))

    @pytest.mark.parametrize("scores", [{"bleu": 0.5},
                                        {"ggleu": float("nan")}])
    def test_validator_without_usable_ggleu_rejected(self, scores):
        # raised by the validation before the first update, not after
        # training from a start that nothing could select against
        params, cfg = self._setup(iters=8)
        calls = []
        with pytest.raises(ValueError, match="'ggleu'"):
            bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                              lambda sid, toks: calls.append(sid) or -0.5,
                              validate_fn=lambda p: scores)
        assert calls == []

    @pytest.mark.parametrize("objective,cv", LOOP_MODES)
    def test_rows_and_parameters_deterministic(self, objective, cv):
        rows = []
        values = []
        for _ in range(2):
            params, cfg = self._setup(objective=objective, cv=cv, iters=10)
            result = bandit_train_loop(cfg, params, _toy_stream([[3, 4], [5]]),
                                       lambda sid, toks, *_: -0.3 * len(toks))
            rows.append(result.rows)
            values.append(params.copy_values())
        assert rows[0] == rows[1]
        assert max_abs_diff(values[0], values[1]) == 0.0

    @pytest.mark.parametrize("objective", ["el", "pr"])
    def test_first_baseline_update_leaves_parameters(self, objective):
        # with the current feedback in the average, the first centred
        # feedback is exactly zero, and Adam turns a zero gradient into a
        # zero step
        params, cfg = self._setup(objective=objective, cv="baseline", iters=1)
        before = params.copy_values()
        bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                          lambda sid, *samples: -0.7)
        assert max_abs_diff(params.copy_values(), before) == 0.0

    @pytest.mark.parametrize("objective", ["el", "pr"])
    def test_first_sf_update_matches_plain_update(self, objective):
        # no history yet, so chat = 0 and the sf update is feedback * score
        moved = []
        for cv in ("none", "sf"):
            params, cfg = self._setup(objective=objective, cv=cv, iters=1)
            before = params.copy_values()
            bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                              lambda sid, *samples: -0.7)
            moved.append(params.copy_values())
        assert max_abs_diff(moved[0], before) > 0.0
        assert max_abs_diff(moved[0], moved[1]) == 0.0

    @pytest.mark.parametrize("objective", ["el", "pr"])
    def test_one_encoder_call_per_update(self, objective, monkeypatch):
        # the score runs on the values the sampler's roll-out kept; a
        # teacher-forced replay would encode the source a second time
        calls = []
        encode_full = model.encode_full

        def counted(*args, **kwargs):
            calls.append(1)
            return encode_full(*args, **kwargs)

        monkeypatch.setattr(model, "encode_full", counted)
        params, cfg = self._setup(objective=objective, iters=5)
        bandit_train_loop(cfg, params, _toy_stream([[3, 4], [5]]),
                          lambda sid, *samples: -0.3 * len(samples[0]))
        assert len(calls) == 5

    @pytest.mark.parametrize("clip_norm", [1e6, 1e-6])
    def test_gradient_norm_computed_once_per_update(self, clip_norm,
                                                    monkeypatch):
        calls = []

        def counted(grads):
            calls.append(1)
            return grad_norm(grads)

        monkeypatch.setattr(objectives, "grad_norm", counted)
        params, cfg = self._setup(iters=6, clip_norm=clip_norm)
        bandit_train_loop(cfg, params, _toy_stream([[3, 4]]),
                          lambda sid, toks: -0.5)
        assert len(calls) == 6

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError):
            loop_config(objective="mle")

    @pytest.mark.parametrize("key,value", [
        ("iters", -1), ("valid_interval", 0), ("max_len", 0),
        ("clip_norm", 0.0), ("optimizer", "rmsprop"), ("sgd_decay", -1.0),
        ("alpha", 0.0), ("alpha", -1e-4), ("beta1", 1.0), ("beta2", 1.0),
        ("beta2", -0.5), ("eps", 0.0), ("epoch_size", -3), ("seed", -1),
    ])
    def test_out_of_range_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            loop_config(**{key: value})
