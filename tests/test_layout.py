"""The parameters are one vector, and so is every gradient.

Each named tensor of a :class:`~banditseq.model.ModelParams` is a view of
its ``vector``, however the model was made or loaded and after training;
every gradient is one vector in the same layout. The updates run on those
vectors block by block and must equal the per-tensor arithmetic of
``tests/reference_updates.py`` bit for bit, with the clip binding, with
entries at the score-function variate's variance floor, and with sweeps
that cross blocks; at the default model size they must equal the
whole-vector arithmetic.
"""

import math

import numpy as np
import pytest

from banditseq import objectives, pipeline
from banditseq.checkpoint import Checkpoint
from banditseq.config import RunConfig
from banditseq.data import Corpus
from banditseq.model import ModelParams, Vocabulary, sample_pair, \
    sample_sequence
from banditseq.objectives import (
    AntitheticTracker,
    ControlVariateState,
    OptimizerState,
    adam_update,
    apply_baseline_cv,
    apply_score_function_cv,
    bandit_train_loop,
    clip_gradient,
    el_gradient,
    grad_norm,
    mle_loss_and_grad,
    pr_gradient,
    pr_halves,
)

import reference_updates as ref
from conftest import loop_config, tiny_params


def assert_views_of_vector(params):
    """Every tensor views its own stretch of ``params.vector``, in the
    tensors' order, and the stretches cover the vector."""
    start = 0
    base = params.vector.ctypes.data
    for name, t in params.tensors.items():
        assert np.shares_memory(t.data, params.vector), name
        assert t.data.ctypes.data == base + 8 * start, name
        start += t.data.size
    assert start == params.vector.size


def assert_one_gradient_vector(grad, params):
    assert grad.shape == params.vector.shape
    assert not np.shares_memory(grad, params.vector)
    parts = params.parts(grad)
    for part, (name, view) in zip(parts, params.views(grad).items()):
        assert np.shares_memory(view, grad), name
        assert view.shape == params[name].data.shape
        assert part.ctypes.data == view.ctypes.data, name
        assert part.size == view.size, name
    assert len(parts) == len(params.tensors)


class TestParameterLayout:
    def test_after_construction(self):
        params = ModelParams(11, 3, 4, seed=1)
        assert_views_of_vector(params)
        assert params.vector.size == sum(
            t.data.size for t in params.tensors.values())

    def test_after_from_tensors_and_load_values(self):
        values = tiny_params(seed=2).copy_values()
        params = ModelParams.from_tensors(6, values)
        assert_views_of_vector(params)
        for name, value in values.items():
            assert np.array_equal(params[name].data, value)
            assert not np.shares_memory(params[name].data, value)
        params.load_values(tiny_params(seed=3).copy_values())
        assert_views_of_vector(params)
        assert np.array_equal(params.vector, tiny_params(seed=3).vector)

    def test_copy_values_is_a_copy(self):
        params = tiny_params(seed=4)
        values = params.copy_values()
        params.vector += 1.0
        assert not np.shares_memory(values["out.W"], params.vector)
        assert np.array_equal(values["out.W"] + 1.0, params["out.W"].data)

    def test_after_checkpoint_to_model(self):
        vocab = Vocabulary(["x", "y", "z"])
        ckpt = Checkpoint(vocab=vocab,
                          tensors=tiny_params(seed=5).copy_values())
        assert_views_of_vector(ckpt.to_model())

    @pytest.mark.parametrize("objective,optimizer", [("el", "adam"),
                                                     ("pr", "adam")])
    def test_after_bandit_training(self, objective, optimizer):
        params = tiny_params(seed=6)
        config = loop_config(objective=objective, cv_mode="sf", iters=5,
                             valid_interval=2, seed=1, max_len=3,
                             optimizer=optimizer, alpha=1e-2)
        before = params.vector.copy()

        def stream():
            while True:
                yield 0, [3, 4]

        bandit_train_loop(config, params, stream(),
                          lambda sid, *samples: -0.1 * len(samples[0]))
        assert_views_of_vector(params)
        assert not np.array_equal(params.vector, before)

    def test_after_mle_training(self):
        corpus = Corpus(pairs=[([w], [w, w]) for w in "abcde"])
        vocab = Vocabulary.from_corpus(corpus.sources + corpus.targets)
        cfg = RunConfig(embedding_size=3, hidden_size=4, mle_epochs=1,
                        mle_batch=2, max_len=3, seed=2)
        params, _ = pipeline.train_mle(cfg, vocab, corpus, corpus)
        assert_views_of_vector(params)


class TestGradientLayout:
    def test_every_estimator_returns_one_vector(self, rng):
        params = tiny_params(seed=8)
        sample = sample_sequence([3, 4], params, 3, rng)
        pair = sample_pair([3, 4], params, 3, rng)
        grads = [el_gradient([3, 4], sample, params),
                 pr_gradient([3, 4], pair, params),
                 *pr_halves([3, 4], pair, params),
                 mle_loss_and_grad([3, 4], [5, 1], params)[1]]
        for grad in grads:
            assert_one_gradient_vector(grad, params)
        assert len({id(grad) for grad in grads}) == len(grads)
        # or written into given vectors
        out = np.empty((5, params.vector.size))
        given = [el_gradient([3, 4], sample, params, out[0]),
                 pr_gradient([3, 4], pair, params, out[1]),
                 *pr_halves([3, 4], pair, params, out[2:4]),
                 mle_loss_and_grad([3, 4], [5, 1], params, out[4])[1]]
        for grad, into, want in zip(given, out, grads):
            assert grad.ctypes.data == into.ctypes.data
            assert np.array_equal(grad, want)


# (objective, control variate, optimizer, baseline includes the current
# feedback): every CV, and both halves' moments for PR; Adam is the only
# optimizer
FLAT_CASES = [
    ("el", "none", "adam", True),
    ("el", "baseline", "adam", True),
    ("el", "baseline", "adam", False),
    ("el", "sf", "adam", True),
    ("pr", "sf", "adam", True),
    ("pr", "baseline", "adam", True),
]


def _named(params, vector):
    return {name: view.copy() for name, view in params.views(vector).items()}


def _assert_equal(params, vector, named):
    views = params.views(vector)
    assert list(views) == list(named)
    for name, value in named.items():
        assert views[name].tobytes() == value.tobytes(), name


# Each case at the real block size, and at a small odd one that splits the
# tiny model's vectors into many blocks and a partial last one.
@pytest.mark.parametrize(
    "objective,cv_mode,optimizer,includes_current,block",
    [pytest.param(*case, block, id="-".join(map(str, case)) + suffix)
     for block, suffix in ((None, ""), (37, "-block37"))
     for case in FLAT_CASES])
def test_flat_updates_equal_per_tensor_reference(rng, monkeypatch, objective,
                                                 cv_mode, optimizer,
                                                 includes_current, block):
    """50 updates of real scores from a tiny model, each CV, norm, clip and
    step on the parameter-layout vectors against the per-tensor reference.
    The clip binds on every other update; the source embedding rows of the
    reserved tokens are never used, so their scores stay zero and their
    entries sit at the score-function variate's variance floor."""
    assert optimizer == "adam"
    params = tiny_params(seed=9)
    if block:
        monkeypatch.setattr(objectives, "_BLOCK", block)
        assert params.vector.size // block > 10 and params.vector.size % block
    values = {name: t.data.copy() for name, t in params.tensors.items()}
    opt = OptimizerState.for_params(params, alpha=1e-2, beta1=0.9,
                                    beta2=0.999, eps=1e-8)
    ref_opt = ref.Adam(values, alpha=1e-2)
    cv = ControlVariateState(include_current=includes_current)
    ref_cv = ref.ControlVariates(include_current=includes_current)
    tracker, ref_tracker = AntitheticTracker(), ref.CoMoments()
    clipped = 0
    for k in range(50):
        length = int(rng.integers(1, 4))
        source = [int(t) for t in rng.integers(3, 6, size=length)]
        feedback = float(rng.uniform(-1.0, 0.0))
        if objective == "el":
            sample = sample_sequence(source, params, 3, rng)
            score = el_gradient(source, sample, params)
        else:
            pair = sample_pair(source, params, 3, rng)
            score = pr_gradient(source, pair, params)
            halves = pr_halves(source, pair, params)
            ref_tracker.update(*(_named(params, h) for h in halves))
            tracker.update(*halves)
            assert tracker.cov_mean(params.views) == ref_tracker.cov_mean()
        ref_score = _named(params, score)
        if cv_mode == "none":
            score *= feedback
            grads = score
            ref_grads = {name: feedback * s for name, s in ref_score.items()}
        elif cv_mode == "baseline":
            grads = apply_baseline_cv(feedback, score, cv)
            ref_grads = ref_cv.baseline(feedback, ref_score)
        else:
            grads = apply_score_function_cv(feedback, score, cv)
            ref_grads = ref_cv.score_function(feedback, ref_score)
            assert cv.chat_mean(params.views) == ref_cv.chat_mean()
        _assert_equal(params, grads, ref_grads)
        norm = grad_norm(params.parts(grads))
        assert norm == ref.grad_norm(ref_grads)
        max_norm = norm * (0.5 if k % 2 else 2.0) or 1.0
        grads = clip_gradient(grads, max_norm, norm)
        ref_grads = ref.clip_gradient(ref_grads, max_norm, norm)
        clipped += k % 2 and norm > 0
        _assert_equal(params, grads, ref_grads)
        adam_update(params, grads, opt)
        ref_opt.step(values, ref_grads)
        _assert_equal(params, params.vector, values)
    assert clipped >= 20
    if cv_mode == "sf":
        m2 = cv.sf_moments.m2_y
        assert (m2 <= cv.VAR_FLOOR).any() and (m2 > cv.VAR_FLOOR).any()
        assert not params.views(m2)["src_emb"][:3].any()


def test_blocked_updates_equal_whole_vector_arithmetic_at_default_size():
    """At the default model size (147,075 entries: 8 blocks of 16,384 and
    one of 16,003), three score-function draws and one Adam step equal the
    whole-vector expressions bit for bit. The third draw is the first whose
    coefficient is not zero; a tenth of the score entries are exactly zero,
    so their entries sit at the variance floor."""
    params = ModelParams(195, 32, 64, seed=0)
    n = params.vector.size
    assert (n, n // objectives._BLOCK, n % objectives._BLOCK) == \
        (147_075, 8, 16_003)
    rng = np.random.default_rng(5)
    state = ControlVariateState()
    mean_x, mean_y, co_xy, m2_y = (np.zeros(n) for _ in range(4))
    for k, feedback in enumerate((-0.3, -0.7, -0.1), 1):
        score = rng.standard_normal(n) * (rng.random(n) < 0.9)
        chat = np.zeros(n)
        np.divide(co_xy, m2_y, out=chat, where=m2_y > state.VAR_FLOOR)
        grads = score * feedback
        want = grads - chat * score
        dx = grads - mean_x
        mean_x += dx / k
        dy = score - mean_y
        mean_y += dy / k
        co_xy += dx * (score - mean_y)
        m2_y += dy * (score - mean_y)
        got = apply_score_function_cv(feedback, score, state)
        assert got.tobytes() == want.tobytes()
        assert (k < 3) == (not chat.any())
    moments = state.sf_moments
    for got, want in ((moments.mean_x, mean_x), (moments.mean_y, mean_y),
                      (moments.co_xy, co_xy), (moments.m2_y, m2_y)):
        assert got.tobytes() == want.tobytes()
    assert (m2_y <= state.VAR_FLOOR).any()

    opt = OptimizerState.for_params(params, alpha=1e-3, beta1=0.9,
                                    beta2=0.999, eps=1e-8)
    opt.m[:], opt.v[:], opt.t = rng.standard_normal(n), rng.random(n), 3
    theta, m, v = params.vector.copy(), opt.m * 0.9, opt.v * 0.999
    grads = rng.standard_normal(n)
    m += grads * (1.0 - 0.9)
    v += (grads * grads) * (1.0 - 0.999)
    sqrt_bc2 = math.sqrt(1.0 - 0.999 ** 4)
    update = m / (np.sqrt(v) + 1e-8 * sqrt_bc2)
    update *= 1e-3 * sqrt_bc2 / (1.0 - 0.9 ** 4)
    theta -= update
    adam_update(params, grads, opt)
    for got, want in ((params.vector, theta), (opt.m, m), (opt.v, v)):
        assert got.tobytes() == want.tobytes()
