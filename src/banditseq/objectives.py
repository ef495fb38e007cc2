"""Training objectives, gradient estimators, and the update loop.

MLE pretraining and the bandit objectives are one stochastic-gradient
update, :func:`run_updates`, on three gradient estimates: MLE's negative
log-likelihood and two score-function estimators. The expected-loss (EL)
score is ``d(log p(sample))/d(theta)`` of one sampled output, the
pairwise-ranking (PR) score the gradient of a (positive, perturbed) pair's
joint log-probability, taken in one reverse pass: the tape adds the two
halves' logit gradients before backpropagating. The update scales the score
by the scalar feedback in exactly one step, which the control variate
chooses; with none it is ``delta * score``. Both estimators are unbiased for
the corresponding expected-risk objectives, which the test suite's
enumeration oracles (``tests/oracles.py``) check on tiny instances.

Control variates reduce estimator variance without touching its mean. The
running-average baseline scales the score by the recentered feedback; the
score-function variate subtracts ``chat * d(log p)/d(theta)`` with a
per-entry coefficient ``chat = Cov(s, y) / Var(y)`` maintained by a
streaming co-moment accumulator, which also tracks the covariance of the
PR score's two halves (the antithetic variates) on a subset of updates.

A gradient is one vector in the parameters' layout
(:class:`~banditseq.model.ModelParams`). The score-function variate, the
moments and the Adam step run all their per-entry passes on one
cache-sized block before the next, with temporaries in three block-sized
work arrays; each entry sees the operations of whole-vector passes in
their order. The clip is one pass, on the whole vector. A sum that
reduces a vector to a number (the gradient norm, the diagnostic means)
runs tensor by tensor over its views, in the tensors' order: one sum over
the whole vector would add in another order and change the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, add, neg
from .model import pair_log_prob, sample_pair, sample_sequence, \
    sequence_log_prob

__all__ = [
    "TrainingDiverged",
    "mle_loss_and_grad",
    "el_gradient",
    "pr_gradient",
    "pr_halves",
    "CoMoments",
    "ControlVariateState",
    "apply_baseline_cv",
    "apply_score_function_cv",
    "clip_gradient",
    "grad_norm",
    "OptimizerState",
    "adam_update",
    "TrainingConfig",
    "BanditResult",
    "run_updates",
    "bandit_train_loop",
    "AntitheticTracker",
]


class TrainingDiverged(RuntimeError):
    """Raised when an update produces non-finite gradients."""


# Entries per block of a per-entry pass: a step streams about nine operands,
# and nine blocks of 16,384 float64 entries (128 KB each) fit in a 2 MB L2
# cache, where nine whole 147,075-entry vectors (1.18 MB each) do not.
_BLOCK = 16384
_WORK = []
_CLIPPED = []  # the clip's output, one vector in the parameters' layout


def _blocks(n):
    """Yield each block of a length-``n`` vector as a slice, with three
    work arrays of its length for the block's temporaries: a workspace
    kept between updates, which no caller reads after its block."""
    if not _WORK or _WORK[0].size != _BLOCK:
        _WORK[:] = [np.empty(_BLOCK) for _ in range(3)]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        yield slice(start, stop), [w[:stop - start] for w in _WORK]


def mle_loss_and_grad(source, reference, params, out=None):
    """Negative log-likelihood of the reference and its gradient vector,
    written into ``out`` when given."""
    if len(reference) == 0:
        raise ValueError("mle_loss_and_grad: reference must be non-empty")
    with Tape() as tape:
        lp = sequence_log_prob(source, reference, params)
        loss = neg(lp)
    return float(loss.data), tape.backward(loss, params.tensors, out)


def el_gradient(source, sample, params, out=None):
    """Score of one sampled sequence for the expected-loss estimator: the
    gradient of its log-probability. A sample drawn by
    :func:`~banditseq.model.sample_sequence` is scored on the values its
    roll-out kept, with no second forward; that record is valid only until
    the parameters change, so score a sample before the optimizer steps. A
    sample with no kept forward is replayed teacher-forced on its own
    prefix. The gradient vector is written into ``out`` when given."""
    with Tape() as tape:
        lp = sequence_log_prob(source, sample.tokens, params,
                               forward=sample.forward)
    return tape.backward(lp, params.tensors, out)


def pr_gradient(source, pair, params, out=None):
    """Score of one sampled pair for the pairwise-ranking estimator: the
    gradient of the pair's joint log-probability.

    Both halves of the joint log-probability are scored on the pair's
    recorded greedy prefix, with the negative distribution applied only at
    the recorded perturbation position: on the values the pair's roll-out
    kept (valid only until the parameters change), or replayed
    teacher-forced when it kept none. Both halves read one logits node, so
    the tape adds their logit gradients and the model's reverse pass runs
    once. The gradient vector is written into ``out`` when given.
    """
    with Tape() as tape:
        lp_pos, lp_neg = pair_log_prob(source, pair, params)
        joint = add(lp_pos, lp_neg)
    return tape.backward(joint, params.tensors, out)


def pr_halves(source, pair, params, out=(None, None)):
    """The separate gradients ``(g_pos, g_neg)`` of the two halves of a
    pair's joint log-probability, the antithetic variates, by one reverse
    pass each. Like :func:`pr_gradient` it reads the pair's kept forward,
    so call it before the parameters change. The halves add up to
    :func:`pr_gradient`'s score up to rounding, not bit for bit: the score
    adds the halves' logit gradients before its reverse pass. ``out``
    gives the two vectors to write them into.
    """
    with Tape() as tape:
        lp_pos, lp_neg = pair_log_prob(source, pair, params)
    return (tape.backward(lp_pos, params.tensors, out[0]),
            tape.backward(lp_neg, params.tensors, out[1]))


class CoMoments:
    """Streaming per-entry means of two gradient vectors ``x`` and ``y`` and
    the co-moment sum of (x, y), plus that of (y, y) with ``track_var_y``,
    by Welford's update. A co-moment divided by n - 1 is a sample
    covariance. The vectors are allocated at the first update."""

    def __init__(self, track_var_y=False):
        self.n = 0
        self.track_var_y = track_var_y
        self.mean_x = self.mean_y = self.co_xy = self.m2_y = None

    def update(self, x, y):
        n = self._count(x.size)
        for s, work in _blocks(x.size):
            self._welford(n, s, x[s], y[s], *work)

    def _count(self, size):
        """Count a draw, allocating zero moments at the first; return n."""
        self.n += 1
        if self.n == 1:
            self.mean_x, self.mean_y, self.co_xy = (np.zeros(size)
                                                    for _ in range(3))
            if self.track_var_y:
                self.m2_y = np.zeros(size)
        return self.n

    def _welford(self, n, s, x, y, dx, dy, tmp):
        """Welford's step of draw ``n`` on block ``s``; ``x`` may be ``dx``."""
        mean_x, mean_y, co_xy = self.mean_x[s], self.mean_y[s], self.co_xy[s]
        np.subtract(x, mean_x, out=dx)
        mean_x += np.divide(dx, n, out=tmp)
        np.subtract(y, mean_y, out=dy)
        mean_y += np.divide(dy, n, out=tmp)
        y_resid = np.subtract(y, mean_y, out=tmp)
        co_xy += np.multiply(dx, y_resid, out=dx)
        if self.track_var_y:
            self.m2_y[s] += np.multiply(dy, y_resid, out=dy)


class ControlVariateState:
    """Running statistics behind the two control variates.

    For the baseline it tracks the count and sum of observed feedback; for
    the score-function variate it keeps the co-moments of (s, y) and
    (y, y), from which ``chat = Cov(s, y) / Var(y)`` is read off per entry.
    Entries whose variance is below 1e-12 fall back to chat = 0.
    """

    VAR_FLOOR = 1e-12

    def __init__(self, include_current=True):
        self.include_current = include_current
        self.k = 0
        self.feedback_sum = 0.0
        self.sf_moments = CoMoments(track_var_y=True)
        self.adjusted = None  # the sf variate's result, kept between draws

    # -- average-feedback baseline -------------------------------------
    def register_feedback(self, delta):
        self.k += 1
        self.feedback_sum += delta

    @property
    def average_feedback(self):
        if self.k == 0:
            return 0.0
        return self.feedback_sum / self.k

    # -- score-function coefficient -------------------------------------
    def chat(self, out):
        """Write the coefficient of every entry into ``out`` and return it:
        zero before the first draw and where Var(y) is below the floor."""
        out.fill(0.0)
        for s, _ in _blocks(out.size if self.sf_moments.n else 0):
            self._coefficient(s, out[s])
        return out

    def _coefficient(self, s, out):
        """Write the coefficient of block ``s`` into ``out``; return it."""
        m2_y = self.sf_moments.m2_y[s]
        out.fill(0.0)
        return np.divide(self.sf_moments.co_xy[s], m2_y, out=out,
                         where=m2_y > self.VAR_FLOOR)

    def chat_mean(self, views):
        """The mean coefficient, summed tensor by tensor over ``views(c)``
        (:meth:`ModelParams.views`); 0 before the first draw."""
        if not self.sf_moments.n:
            return 0.0
        coefficient = self.chat(np.empty_like(self.sf_moments.co_xy))
        return (sum(float(c.sum()) for c in views(coefficient).values())
                / coefficient.size)


def apply_baseline_cv(feedback, score, state):
    """Scale the score, in place, by the feedback recentered by the running
    average.

    With ``include_current`` (the default) the current feedback enters the
    average first, so the very first gradient is exactly zero.
    """
    if state.include_current:
        state.register_feedback(feedback)
        centered = feedback - state.average_feedback
    else:
        centered = feedback - state.average_feedback
        state.register_feedback(feedback)
    score *= centered
    return score


def apply_score_function_cv(feedback, score, state):
    """Scale the score by the feedback and subtract ``chat * score``
    entrywise, into a vector the state keeps and overwrites at its next
    call, then fold the draw into the moments, in one sweep over the
    blocks. With no history chat is zero and the gradient is
    ``feedback * score``."""
    if state.adjusted is None:
        state.adjusted = np.empty_like(score)
    n = state.sf_moments._count(score.size)
    for s, (grads, dy, tmp) in _blocks(score.size):
        y = score[s]
        np.multiply(y, feedback, out=grads)
        adjusted = state._coefficient(s, state.adjusted[s])
        adjusted *= y
        np.subtract(grads, adjusted, out=adjusted)
        state.sf_moments._welford(n, s, grads, y, grads, dy, tmp)
    return state.adjusted


def grad_norm(parts):
    """Global L2 norm of a gradient given tensor by tensor
    (:meth:`ModelParams.parts`): each tensor's squares summed on their own,
    then the sums in order."""
    total = 0.0
    for g in parts:
        flat = g.ravel()
        total += float(flat @ flat)
    return math.sqrt(total)


def clip_gradient(grads, max_norm, norm):
    """Scale the gradient vector down to ``max_norm`` when its global L2
    ``norm`` (:func:`grad_norm`) exceeds it, into one vector kept between
    updates and valid until the next clip; otherwise return it unchanged
    (the same object)."""
    if max_norm <= 0:
        raise ValueError("clip_gradient: max_norm must be positive")
    if norm <= max_norm:
        return grads
    if not _CLIPPED or _CLIPPED[0].size != grads.size:
        _CLIPPED[:] = [np.empty_like(grads)]
    return np.multiply(grads, max_norm / norm, out=_CLIPPED[0])


@dataclass
class OptimizerState:
    """Adam moments (vectors in the parameters' layout) and
    hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    t: int
    alpha: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def for_params(cls, params, alpha, beta1, beta2, eps):
        return cls(m=np.zeros_like(params.vector),
                   v=np.zeros_like(params.vector), t=0, alpha=alpha,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_update(params, grads, state):
    """Bias-corrected Adam step; parameters move against the gradient.

    Uses the algebraically identical folded form
    ``theta -= alpha*sqrt(bc2)/bc1 * m / (sqrt(v) + eps*sqrt(bc2))`` to
    avoid materializing the bias-corrected moments.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    sqrt_bc2 = math.sqrt(1.0 - b2 ** state.t)
    step_size = state.alpha * sqrt_bc2 / bc1
    eps_t = state.eps * sqrt_bc2
    for s, (term, denom, _) in _blocks(grads.size):
        g, m, v, theta = grads[s], state.m[s], state.v[s], params.vector[s]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=term)
        v *= b2
        np.multiply(g, g, out=term)
        term *= 1.0 - b2
        v += term
        np.sqrt(v, out=denom)
        denom += eps_t
        update = np.divide(m, denom, out=term)
        update *= step_size
        theta -= update
    return params, state


class AntitheticTracker(CoMoments):
    """Streaming per-entry covariance between the two halves of the PR
    gradient (:func:`pr_halves`); its mean is reported as a diagnostic
    during PR training."""

    def cov_mean(self, views):
        """The mean covariance, summed tensor by tensor over
        ``views(co_xy)`` (:meth:`ModelParams.views`); 0 before the second
        draw."""
        if self.n < 2:
            return 0.0
        total = sum(float(co.sum()) / (self.n - 1)
                    for co in views(self.co_xy).values())
        return total / self.co_xy.size


@dataclass(frozen=True, kw_only=True)
class TrainingConfig:
    """Knobs of the bandit update loop. Its checks are the only ones of the
    bandit keys: ``RunConfig.training_config`` builds one when a run config
    is parsed. The settings a run config also holds have no default here,
    so a loop's settings come from that method or are written out in
    full."""

    OBJECTIVES = ("el", "pr")
    CV_MODES = ("none", "baseline", "sf")

    objective: str                    # one of OBJECTIVES
    pair_feedback: str = "continuous"  # unread, kept for the benchmark
    cv_mode: str                      # one of CV_MODES
    iters: int
    valid_interval: int
    clip_norm: float
    seed: int = 0
    alpha: float
    beta1: float
    beta2: float
    eps: float
    baseline_includes_current: bool
    optimizer: str = "adam"           # unread, adam only: SGD was removed
    sgd_decay: float = 0.0            # unread, 0 only: SGD was removed
    max_len: int
    epoch_size: int = 0               # examples per epoch, for the log only

    def __post_init__(self):
        for key, low in (("iters", 0), ("valid_interval", 1), ("max_len", 1),
                         ("epoch_size", 0), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        for key in ("clip_norm", "alpha", "eps"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if (self.optimizer, self.sgd_decay) != ("adam", 0):
            raise ValueError(f"optimizer {self.optimizer!r}, sgd_decay "
                             f"{self.sgd_decay!r}: SGD was removed")
        for key, allowed in (("objective", self.OBJECTIVES),
                             ("cv_mode", self.CV_MODES)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got "
                                 f"{getattr(self, key)!r}")


@dataclass
class BanditResult:
    """Outcome of a training run (MLE or bandit): the selected iterate."""

    best_values: dict
    best_score: float
    best_iteration: int
    rows: list = field(default_factory=list)


def run_updates(params, step, opt_state, clip_norm, windows, gradients,
                where, window_rows, validate_fn=None, validate_first=False):
    """The update every training stage runs on its own gradient estimate.
    Update ``k`` takes the next vector of the iterator ``gradients``, raises
    :class:`TrainingDiverged` naming ``where(k)`` if its norm is not finite,
    and steps on it clipped to ``clip_norm``. ``windows`` lists ``(k, epoch)``
    for each window's last update ``k``; there ``window_rows(norms)`` of the
    window's raw norms gives the train rows, and ``validate_fn`` (also before
    update 1 with ``validate_first``) the valid rows, whose finite "ggleu"
    selects the best iterate (online-to-batch conversion). With no validation
    the result holds the last iterate, and ``best_score`` is -inf.
    """
    rows = []
    best_values, best_score, best_iteration = None, -math.inf, 0

    def emit(k, epoch, split, pairs):
        rows.extend({"iteration": k, "epoch": epoch, "split": split,
                     "metric": metric, "value": float(value)}
                    for metric, value in pairs)

    def validate(k, epoch):
        nonlocal best_values, best_score, best_iteration
        if validate_fn is None:
            return
        scores = validate_fn(params)
        score = scores.get("ggleu")
        if score is None or not math.isfinite(score):
            raise ValueError(f"validate_fn must return a finite 'ggleu', "
                             f"got {scores!r}")
        emit(k, epoch, "valid", sorted(scores.items()))
        if score > best_score:
            best_values, best_score, best_iteration = \
                params.copy_values(), score, k

    if validate_first:
        validate(0, 0)
    k = 0
    for last, epoch in windows:
        norms = []
        while k < last:
            k += 1
            grads = next(gradients)
            norm = grad_norm(params.parts(grads))
            if not math.isfinite(norm):
                raise TrainingDiverged(f"non-finite gradient at {where(k)}")
            step(params, clip_gradient(grads, clip_norm, norm), opt_state)
            norms.append(norm)
        emit(k, epoch, "train", window_rows(norms))
        validate(k, epoch)
    if best_values is None:
        best_values, best_iteration = params.copy_values(), k
    return BanditResult(best_values, best_score, best_iteration, rows)


def bandit_train_loop(config, params, stream, feedback_fn, validate_fn=None):
    """Online learning from per-sample feedback: the EL/PR gradient source
    of :func:`run_updates`, validated before the first update and after
    every ``valid_interval``. Each update draws ``(sentence_id, source)``
    from ``stream``, samples an output or pair, asks ``feedback_fn`` for a
    scalar (the loop never sees references) and scales the score by it
    through the control variate. The score reads the values the roll-out
    kept, valid only until the parameters change, so it precedes the step.

    A PR run also reports ``antithetic_cov_mean``, the mean covariance of
    the score's two halves, with each window's train rows. The halves cost
    two more reverse passes, so they are taken on a fixed subset that draws
    no randomness: every ``max(1, valid_interval // 10)``-th update, ten
    per window when ``valid_interval`` is a multiple of ten.
    """
    rng = np.random.default_rng(config.seed)
    cv_state = ControlVariateState(
        include_current=config.baseline_includes_current)
    opt_state = OptimizerState.for_params(
        params, config.alpha, config.beta1, config.beta2, config.eps)
    antithetic = AntitheticTracker() if config.objective == "pr" else None
    antithetic_every = max(1, config.valid_interval // 10)
    feedback = []  # of the current window
    # every update's score and the halves, written in place
    score, *halves = (np.empty_like(params.vector)
                      for _ in range(3 if antithetic else 1))

    def gradients():
        for k in range(1, config.iters + 1):
            sentence_id, source = next(stream)
            if config.objective == "el":
                sample = sample_sequence(source, params, config.max_len, rng)
                delta = feedback_fn(sentence_id, sample.tokens)
                el_gradient(source, sample, params, score)
            else:
                pair = sample_pair(source, params, config.max_len, rng)
                delta = feedback_fn(sentence_id, pair.tokens_pos,
                                    pair.tokens_neg)
                pr_gradient(source, pair, params, score)
                if k % antithetic_every == 0:
                    antithetic.update(*pr_halves(source, pair, params,
                                                 halves))
            feedback.append(delta)
            if config.cv_mode == "baseline":
                yield apply_baseline_cv(delta, score, cv_state)
            elif config.cv_mode == "sf":
                yield apply_score_function_cv(delta, score, cv_state)
            else:
                yield np.multiply(score, delta, out=score)

    def window_rows(norms):
        yield "mean_feedback", sum(feedback) / len(feedback)
        yield "grad_norm", sum(norms) / len(norms)
        if config.cv_mode == "sf":
            yield "cv_chat_mean", cv_state.chat_mean(params.views)
        if antithetic is not None:
            yield "antithetic_cov_mean", antithetic.cov_mean(params.views)
        feedback.clear()

    windows = [(k, k // config.epoch_size if config.epoch_size else 0)
               for k in range(1, config.iters + 1)
               if k % config.valid_interval == 0 or k == config.iters]
    return run_updates(
        params, adam_update, opt_state, config.clip_norm, windows,
        gradients(),
        lambda k: f"iteration {k} (objective={config.objective}, "
                  f"feedback={feedback[-1]!r})",
        window_rows, validate_fn, validate_first=True)
