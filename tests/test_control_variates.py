import numpy as np
import pytest

from banditseq.model import SampledSequence, sample_sequence
from banditseq.objectives import (
    AntitheticTracker,
    ControlVariateState,
    TrainingConfig,
    apply_baseline_cv,
    apply_score_function_cv,
    el_gradient,
)
from banditseq.oracles import enumerate_sequences

from conftest import antithetic_variance_identity, max_abs, relative_gap, \
    tiny_params


def _flatten(grads):
    return np.concatenate([g.ravel() for g in grads.values()])


class TestBaselineCv:
    def test_first_update_vanishes_when_current_included(self):
        state = ControlVariateState(include_current=True)
        score = {"x": np.array([1.0, -2.0])}
        adjusted = apply_baseline_cv(-0.7, score, state)
        assert max_abs(adjusted) == 0.0

    def test_first_update_passes_through_when_excluded(self):
        state = ControlVariateState(include_current=False)
        score = {"x": np.array([1.0, -2.0])}
        adjusted = apply_baseline_cv(-0.7, score, state)
        assert np.allclose(adjusted["x"], -0.7 * score["x"])
        # second call centers by the first feedback only
        adjusted2 = apply_baseline_cv(-0.3, score, state)
        assert np.allclose(adjusted2["x"], (-0.3 + 0.7) * score["x"])

    def test_constant_feedback_always_zero(self):
        state = ControlVariateState()
        score = {"x": np.arange(3.0)}
        for _ in range(10):
            adjusted = apply_baseline_cv(-0.4, score, state)
            # the running mean of a constant is that constant up to one ulp
            assert max_abs(adjusted) < 1e-12

    def test_frozen_baseline_preserves_expected_gradient(self, rng):
        # E[(delta - b) grad log p] = E[delta grad log p] for constant b,
        # because the score function has zero mean under the model.
        src = [3, 4]
        params = tiny_params(seed=41)
        seqs = enumerate_sequences(src, params, 2)
        table = {tuple(t): float(rng.uniform(-1.0, 0.0)) for t, _ in seqs}
        b = -0.37
        plain = None
        shifted = None
        for tokens, lp in seqs:
            p = np.exp(lp)
            sample = SampledSequence(list(tokens), lp)
            delta = table[tuple(tokens)]
            score = el_gradient(src, sample, params)
            if plain is None:
                plain = {k: np.zeros_like(v) for k, v in score.items()}
                shifted = {k: np.zeros_like(v) for k, v in score.items()}
            for k in plain:
                plain[k] += p * delta * score[k]
                shifted[k] += p * (delta - b) * score[k]
        assert relative_gap(shifted, plain) < 1e-5

    def test_running_baseline_reduces_empirical_variance(self, rng):
        src = [3, 4]
        params = tiny_params(seed=42)
        seqs = enumerate_sequences(src, params, 2)
        table = {tuple(t): float(rng.uniform(-1.0, 0.0)) for t, _ in seqs}
        state = ControlVariateState()
        plain_draws = []
        adjusted_draws = []
        for _ in range(2000):
            sample = sample_sequence(src, params, 2, rng)
            delta = table[tuple(sample.tokens)]
            score = el_gradient(src, sample, params)
            plain_draws.append(delta * _flatten(score))
            adj = apply_baseline_cv(delta, score, state)
            adjusted_draws.append(_flatten(adj))
        var_plain = np.var(np.stack(plain_draws), axis=0).sum()
        var_adj = np.var(np.stack(adjusted_draws), axis=0).sum()
        assert var_adj < var_plain


class TestScoreFunctionCv:
    def test_no_history_passes_through(self):
        state = ControlVariateState()
        score = {"x": np.array([0.5, 1.5])}
        adjusted = apply_score_function_cv(-0.2, score, state)
        assert np.array_equal(adjusted["x"], -0.2 * score["x"])

    def test_chat_goes_to_one_when_s_equals_y(self, rng):
        state = ControlVariateState()
        for _ in range(50):
            y = {"x": rng.normal(size=3)}
            adjusted = apply_score_function_cv(1.0, y, state)
        chat = state.chat("x", y["x"])
        assert np.allclose(chat, 1.0, atol=1e-10)
        assert max_abs(adjusted) < 1e-10

    def test_variance_floor_gives_zero_coefficient(self):
        state = ControlVariateState()
        y = {"x": np.array([1.0, 1.0])}
        for _ in range(5):
            apply_score_function_cv(2.0, y, state)
        # y never varies, so Var(y)=0 and chat must fall back to zero
        assert np.array_equal(state.chat("x", y["x"]), np.zeros(2))

    def test_population_coefficient_reduces_variance(self, rng):
        # chat fitted on one sample, measured on a fresh one
        n = 4000
        y = rng.normal(size=(n, 4))
        deltas = rng.uniform(-1.0, 0.0, size=n)
        state = ControlVariateState()
        for i in range(n):
            apply_score_function_cv(deltas[i], {"x": y[i]}, state)
        chat = state.chat("x", y[0])
        y2 = rng.normal(size=(n, 4))
        d2 = rng.uniform(-1.0, 0.0, size=n)
        s2 = d2[:, None] * y2
        var_plain = np.var(s2, axis=0)
        var_adj = np.var(s2 - chat * y2, axis=0)
        assert np.all(var_adj < var_plain)


class TestAntithetic:
    def test_identity_is_algebraically_exact(self, rng):
        x1 = rng.normal(size=5000)
        x2 = 0.5 * x1 + rng.normal(size=5000)
        lhs, rhs = antithetic_variance_identity(x1, x2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_perfect_antithesis_zero_variance(self, rng):
        x1 = rng.normal(size=1000)
        lhs, _ = antithetic_variance_identity(x1, -x1)
        assert lhs < 1e-20

    def test_tracker_matches_numpy_cov(self, rng):
        tracker = AntitheticTracker()
        a_draws = rng.normal(size=(200, 3))
        b_draws = 0.3 * a_draws + rng.normal(size=(200, 3))
        for a, b in zip(a_draws, b_draws):
            tracker.update({"x": a}, {"x": b})
        expected = np.mean([np.cov(a_draws[:, j], b_draws[:, j], ddof=1)[0, 1]
                            for j in range(3)])
        assert tracker.cov_mean() == pytest.approx(expected, rel=1e-9)

    def test_tracker_startup(self):
        tracker = AntitheticTracker()
        assert tracker.cov_mean() == 0.0
        tracker.update({"x": np.ones(2)}, {"x": np.ones(2)})
        assert tracker.cov_mean() == 0.0


class TestStateValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="cv_mode"):
            TrainingConfig(cv_mode="antithetic")

    def test_average_feedback(self):
        state = ControlVariateState()
        assert state.average_feedback == 0.0
        state.register_feedback(-0.4)
        state.register_feedback(-0.8)
        assert state.average_feedback == pytest.approx(-0.6)
