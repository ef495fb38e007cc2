"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria 1-9 check the estimators and their building blocks on tiny models
against exact oracles (finite differences, full enumeration of sampling
outcomes, closed-form identities): gradient correctness, EL and PR
unbiasedness, the zero-mean score function, sampling fidelity, rank
reversal of the negative distribution, control-variate variance
reduction, the antithetic variance identity and the gGLEU oracle. The
module takes about two minutes on a 2-core machine (125 s), mostly in
the sampling-based criteria 5 and 7; no criterion trains on the default
task.
"""

import math
import time

import numpy as np
import pytest

from banditseq.autodiff import log_likelihood, neg
from banditseq.metrics import ggleu, pairwise_feedback
from banditseq.model import (
    SampledSequence,
    output_log_probs,
    sample_sequence,
    sequence_log_prob,
)
from banditseq.objectives import (
    ControlVariateState,
    apply_baseline_cv,
    el_gradient,
    pr_gradient,
)

from conftest import antithetic_variance_identity, relative_gap, \
    tiny_params
from oracles import (
    enumerate_pair_outcomes,
    enumerate_sequences,
    exact_pr_risk_and_grad,
    exact_risk_and_grad,
    finite_difference_check,
)
from reference_ops import constant
from test_metrics import brute_force_ggleu


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def _random_delta_table(seqs, rng):
    return {tuple(t): float(rng.uniform(-1.0, 0.0)) for t, _ in seqs}


class TestCriterion1GradientCorrectness:
    def test_sequence_log_prob_and_mle_loss_match_finite_differences(self):
        start = time.time()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng([1, seed])
            params = tiny_params(vocab_size=6, embed_size=4, hidden_size=4,
                                 seed=seed)
            source = [int(t) for t in rng.integers(3, 6, size=3)]
            target = [int(t) for t in rng.integers(3, 6, size=2)] + [1]
            rep = finite_difference_check(
                lambda p: sequence_log_prob(source, target, params),
                params.tensors, step=1e-5, tolerance=1e-4)
            assert rep.passed, f"seed {seed}: {rep.max_rel_error}"
            rep_mle = finite_difference_check(
                lambda p: neg(sequence_log_prob(source, target, params)),
                params.tensors, step=1e-5, tolerance=1e-4)
            assert rep_mle.passed, f"seed {seed} mle: {rep_mle.max_rel_error}"
            worst = max(worst, rep.max_rel_error, rep_mle.max_rel_error)
        elapsed = time.time() - start
        assert elapsed < 60.0
        report("1 gradient correctness",
               f"20 seeds, max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2ElUnbiasedness:
    def test_el_estimator_expectation_equals_exact_risk_gradient(self):
        start = time.time()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng([2, seed])
            params = tiny_params(seed=100 + seed)
            source = [int(t) for t in rng.integers(3, 6, size=2)]
            seqs = enumerate_sequences(source, params, 2)
            table = _random_delta_table(seqs, rng)
            _, exact = exact_risk_and_grad(source, params,
                                           lambda t: table[tuple(t)], 2)
            acc = np.zeros_like(exact)
            for tokens, lp in seqs:
                score = el_gradient(source, SampledSequence(list(tokens)),
                                    params)
                acc += np.exp(lp) * table[tuple(tokens)] * score
            gap = relative_gap(acc, exact)
            assert gap < 1e-5, f"seed {seed}: {gap}"
            worst = max(worst, gap)
        elapsed = time.time() - start
        assert elapsed < 60.0
        report("2 EL unbiasedness",
               f"20 models, worst relative gap {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3ScoreFunctionZeroMean:
    def test_expected_score_is_zero_entrywise(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng([3, seed])
            params = tiny_params(seed=200 + seed)
            source = [int(t) for t in rng.integers(3, 6, size=2)]
            acc = np.zeros_like(params.vector)
            for tokens, lp in enumerate_sequences(source, params, 2):
                score = el_gradient(source, SampledSequence(list(tokens)),
                                    params)
                acc += np.exp(lp) * score
            peak = float(np.max(np.abs(acc)))
            assert peak < 1e-6, f"seed {seed}: {peak}"
            worst = max(worst, peak)
        report("3 score-function zero mean", f"max |entry| {worst:.2e}")


class TestCriterion4PrUnbiasedness:
    def test_pr_estimator_expectation_equals_exact_pr_risk_gradient(self):
        start = time.time()
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng([4, seed])
            params = tiny_params(seed=300 + seed)
            source = [int(t) for t in rng.integers(3, 6, size=2)]
            losses = {}

            def seq_loss(tokens):
                key = tuple(tokens)
                if key not in losses:
                    losses[key] = float(rng.uniform(-1.0, 0.0))
                return losses[key]

            def pair_delta(w, w_prime):
                return pairwise_feedback(seq_loss(w), seq_loss(w_prime),
                                         "continuous")

            _, exact = exact_pr_risk_and_grad(source, params, pair_delta, 2)
            acc = np.zeros_like(exact)
            for pair, prob in enumerate_pair_outcomes(source, params, 2):
                feedback = pair_delta(pair.tokens_pos, pair.tokens_neg)
                if feedback == 0.0:
                    continue
                acc += prob * feedback * pr_gradient(source, pair, params)
            gap = relative_gap(acc, exact)
            assert gap < 1e-5, f"seed {seed}: {gap}"
            worst = max(worst, gap)
        elapsed = time.time() - start
        assert elapsed < 120.0
        report("4 PR unbiasedness",
               f"3 models x 2592 outcomes, worst gap {worst:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion5SamplingFidelity:
    def test_empirical_frequencies_match_enumeration(self):
        params = tiny_params(seed=55)
        source = [3, 4]
        probs = {tuple(t): float(np.exp(lp))
                 for t, lp in enumerate_sequences(source, params, 2)}
        # fixed stream: at a 3-SE bound over ~31 sequences a fresh seed has
        # an ~8% chance of one unlucky excursion, so the seed is part of
        # the test definition
        rng = np.random.default_rng(1234)
        n = 100_000
        counts = {}
        for _ in range(n):
            s = sample_sequence(source, params, 2, rng)
            key = tuple(s.tokens)
            counts[key] = counts.get(key, 0) + 1
        checked = 0
        worst_sigma = 0.0
        for key, p in probs.items():
            if p <= 1e-3:
                continue
            freq = counts.get(key, 0) / n
            se = math.sqrt(p * (1.0 - p) / n)
            sigmas = abs(freq - p) / se
            assert sigmas <= 3.0, (key, freq, p, sigmas)
            worst_sigma = max(worst_sigma, sigmas)
            checked += 1
        assert checked >= 10
        report("5 sampling fidelity",
               f"{checked} sequences with p>1e-3, worst {worst_sigma:.2f} SE "
               f"over {n} draws")


class TestCriterion6RankReversal:
    def test_negative_mode_exactly_reverses_ordering(self):
        # what pair sampling draws from (output_log_probs) and what the PR
        # estimator scores with (log_likelihood, negated)
        rng = np.random.default_rng(66)
        for _ in range(1000):
            size = int(rng.integers(2, 9))
            logits = rng.normal(size=size, scale=3.0)
            if len(np.unique(logits)) < size:
                continue
            pos_order = np.argsort(-output_log_probs(logits), kind="stable")
            sampled = output_log_probs(logits, negated=True)
            scored = np.array([
                float(log_likelihood(constant(logits[None]), [v], 1).data)
                for v in range(size)])
            for negd in (sampled, scored):
                neg_order = np.argsort(-negd, kind="stable")
                assert np.array_equal(neg_order, pos_order[::-1])
        report("6 rank reversal", "1000 random distinct-logit vectors, "
               "sampled and scored")


class TestCriterion7VarianceReduction:
    def _draw_estimates(self, source, params, table, rng, n):
        flat_s = []
        flat_y = []
        deltas = []
        for _ in range(n):
            s = sample_sequence(source, params, 2, rng)
            delta = table[tuple(s.tokens)]
            flat_y.append(el_gradient(source, s, params))
            flat_s.append(delta * flat_y[-1])
            deltas.append(delta)
        return np.stack(flat_s), np.stack(flat_y), np.array(deltas)

    def test_baseline_cv_lowers_total_variance(self):
        params = tiny_params(seed=77)
        source = [3, 4]
        rng = np.random.default_rng(707)
        seqs = enumerate_sequences(source, params, 2)
        table = _random_delta_table(seqs, rng)  # losses spread over [-1, 0]
        n = 10_000
        state = ControlVariateState()
        plain_rows = []
        adjusted_rows = []
        for _ in range(n):
            s = sample_sequence(source, params, 2, rng)
            delta = table[tuple(s.tokens)]
            score = el_gradient(source, s, params)
            plain_rows.append(delta * score)
            adjusted_rows.append(apply_baseline_cv(delta, score, state))
        var_plain = np.var(np.stack(plain_rows), axis=0).sum()
        var_adj = np.var(np.stack(adjusted_rows), axis=0).sum()
        assert var_adj < var_plain
        report("7a baseline variance reduction",
               f"total var {var_plain:.4e} -> {var_adj:.4e} over {n} draws")

    def test_score_function_cv_with_frozen_chat_reduces_entry_variance(self):
        params = tiny_params(seed=78)
        source = [3, 4]
        rng = np.random.default_rng(708)
        seqs = enumerate_sequences(source, params, 2)
        table = _random_delta_table(seqs, rng)
        n = 10_000
        s_fit, y_fit, _ = self._draw_estimates(source, params, table, rng, n)
        # freeze chat from the fitting sample
        cov = np.mean((s_fit - s_fit.mean(0)) * (y_fit - y_fit.mean(0)), axis=0)
        var_y = y_fit.var(axis=0)
        chat = np.where(var_y > 1e-12, cov / np.where(var_y > 0, var_y, 1.0),
                        0.0)
        s_new, y_new, _ = self._draw_estimates(source, params, table, rng, n)
        var_plain = s_new.var(axis=0)
        var_adj = (s_new - chat * y_new).var(axis=0)
        corr_num = np.mean((s_new - s_new.mean(0)) * (y_new - y_new.mean(0)),
                           axis=0)
        denom = s_new.std(axis=0) * y_new.std(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > 0, corr_num / denom, 0.0)
        mask = np.abs(corr) > 0.1
        assert mask.sum() > 50
        reduced = (var_adj[mask] < var_plain[mask]).mean()
        assert reduced >= 0.90, f"only {reduced:.3f} of entries reduced"
        report("7b score-function variance reduction",
               f"{reduced:.1%} of {int(mask.sum())} correlated entries "
               f"reduced")


class TestCriterion8AntitheticIdentity:
    def test_identity_and_perfect_antithesis(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            n = int(rng.integers(100, 2000))
            x1 = rng.normal(size=n)
            x2 = rng.uniform(-1, 1) * x1 + rng.normal(size=n)
            lhs, rhs = antithetic_variance_identity(x1, x2)
            assert lhs == pytest.approx(rhs, abs=1e-10)
        x1 = rng.normal(size=5000)
        var_antithetic, _ = antithetic_variance_identity(x1, -x1)
        assert var_antithetic < 1e-20
        report("8 antithetic identity",
               f"20 sampled joints exact; X2=-X1 variance {var_antithetic:.1e}")


class TestCriterion9GgleuOracle:
    def test_hand_example_and_random_cases_match_brute_force(self):
        assert ggleu("a b c".split(), "a b d".split()) == pytest.approx(0.5)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            hyp = [int(t) for t in
                   rng.integers(0, 6, size=int(rng.integers(0, 9)))]
            ref = [int(t) for t in
                   rng.integers(0, 6, size=int(rng.integers(1, 9)))]
            assert ggleu(hyp, ref) == pytest.approx(
                brute_force_ggleu(hyp, ref), abs=1e-12)
        report("9 gGLEU oracle", "hand example 0.5; 1000 random cases exact")
