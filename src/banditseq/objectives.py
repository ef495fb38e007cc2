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
    "SgdState",
    "sgd_update",
    "TrainingConfig",
    "BanditResult",
    "run_updates",
    "bandit_train_loop",
    "AntitheticTracker",
]


class TrainingDiverged(RuntimeError):
    """Raised when an update produces non-finite gradients."""


def _scaled(grads, c):
    return {name: c * g for name, g in grads.items()}


def mle_loss_and_grad(source, reference, params, dropout=None):
    """Negative log-likelihood of the reference and its gradient map."""
    if len(reference) == 0:
        raise ValueError("mle_loss_and_grad: reference must be non-empty")
    with Tape() as tape:
        lp = sequence_log_prob(source, reference, params, dropout=dropout)
        loss = neg(lp)
    return float(loss.data), tape.backward(loss, params.tensors)


def el_gradient(source, sample, params):
    """Score of one sampled sequence for the expected-loss estimator: the
    gradient of its log-probability. A sample drawn by
    :func:`~banditseq.model.sample_sequence` is scored on the values its
    roll-out kept, with no second forward; that record is valid only until
    the parameters change, so score a sample before the optimizer steps. A
    sample with no kept forward is replayed teacher-forced on its own
    prefix."""
    with Tape() as tape:
        lp = sequence_log_prob(source, sample.tokens, params,
                               forward=sample.forward)
    return tape.backward(lp, params.tensors)


def pr_gradient(source, pair, params):
    """Score of one sampled pair for the pairwise-ranking estimator: the
    gradient of the pair's joint log-probability.

    Both halves of the joint log-probability are scored on the pair's
    recorded greedy prefix, with the negative distribution applied only at
    the recorded perturbation position: on the values the pair's roll-out
    kept (valid only until the parameters change), or replayed
    teacher-forced when it kept none. Both halves read one logits node, so
    the tape adds their logit gradients and the model's reverse pass runs
    once.
    """
    with Tape() as tape:
        lp_pos, lp_neg = pair_log_prob(source, pair, params)
        joint = add(lp_pos, lp_neg)
    return tape.backward(joint, params.tensors)


def pr_halves(source, pair, params):
    """The separate gradients ``(g_pos, g_neg)`` of the two halves of a
    pair's joint log-probability, the antithetic variates, by one reverse
    pass each. Like :func:`pr_gradient` it reads the pair's kept forward,
    so call it before the parameters change. The halves add up to
    :func:`pr_gradient`'s score up to rounding, not bit for bit: the score
    adds the halves' logit gradients before its reverse pass.
    """
    with Tape() as tape:
        lp_pos, lp_neg = pair_log_prob(source, pair, params)
    return (tape.backward(lp_pos, params.tensors),
            tape.backward(lp_neg, params.tensors))


class CoMoments:
    """Streaming per-entry means of two gradient maps ``x`` and ``y`` and
    the co-moment sum of (x, y), plus that of (y, y) with ``track_var_y``,
    by Welford's update. A co-moment divided by n - 1 is a sample
    covariance."""

    def __init__(self, track_var_y=False):
        self.n = 0
        self.mean_x = {}
        self.mean_y = {}
        self.co_xy = {}
        self.m2_y = {} if track_var_y else None

    def update(self, xs, ys):
        self.n += 1
        n = self.n
        for name, x in xs.items():
            y = ys[name]
            if name not in self.co_xy:
                self.mean_x[name] = np.zeros_like(x)
                self.mean_y[name] = np.zeros_like(x)
                self.co_xy[name] = np.zeros_like(x)
                if self.m2_y is not None:
                    self.m2_y[name] = np.zeros_like(x)
            dx = x - self.mean_x[name]
            self.mean_x[name] += dx / n
            dy = y - self.mean_y[name]
            self.mean_y[name] += dy / n
            y_resid = y - self.mean_y[name]
            self.co_xy[name] += dx * y_resid
            if self.m2_y is not None:
                self.m2_y[name] += dy * y_resid


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
    def _coefficient(self, name):
        m2 = self.sf_moments.m2_y[name]
        out = np.zeros_like(m2)
        np.divide(self.sf_moments.co_xy[name], m2, out=out,
                  where=m2 > self.VAR_FLOOR)
        return out

    def chat(self, name, like):
        if name not in self.sf_moments.co_xy:
            return np.zeros_like(like)
        return self._coefficient(name)

    def chat_mean(self):
        coefficients = [self._coefficient(name)
                        for name in self.sf_moments.co_xy]
        if not coefficients:
            return 0.0
        return (sum(float(c.sum()) for c in coefficients)
                / sum(c.size for c in coefficients))


def apply_baseline_cv(feedback, score, state):
    """Scale the score by the feedback recentered by the running average.

    With ``include_current`` (the default) the current feedback enters the
    average first, so the very first gradient is exactly zero.
    """
    if state.include_current:
        state.register_feedback(feedback)
        centered = feedback - state.average_feedback
    else:
        centered = feedback - state.average_feedback
        state.register_feedback(feedback)
    return _scaled(score, centered)


def apply_score_function_cv(feedback, score, state):
    """Scale the score by the feedback and subtract ``chat * score``
    entrywise, then fold the draw into the running moment estimates. With
    no history chat is zero and the gradient is ``feedback * score``."""
    grads = _scaled(score, feedback)
    adjusted = {name: s - state.chat(name, s) * score[name]
                for name, s in grads.items()}
    state.sf_moments.update(grads, score)
    return adjusted


def grad_norm(grads):
    """Global L2 norm over all entries of a gradient map."""
    total = 0.0
    for g in grads.values():
        flat = g.ravel()
        total += float(flat @ flat)
    return math.sqrt(total)


def clip_gradient(grads, max_norm, norm=None):
    """Scale the whole map down to ``max_norm`` when its global L2 norm
    exceeds it; otherwise return it unchanged (the same object). ``norm``
    is that norm when the caller has already computed it."""
    if max_norm <= 0:
        raise ValueError("clip_gradient: max_norm must be positive")
    if norm is None:
        norm = grad_norm(grads)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return _scaled(grads, scale)


@dataclass
class OptimizerState:
    """Adam moments and hyperparameters."""

    m: dict
    v: dict
    t: int
    alpha: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def for_params(cls, params, alpha=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        m = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}
        v = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}
        return cls(m=m, v=v, t=0, alpha=alpha, beta1=beta1, beta2=beta2, eps=eps)


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
    for name, tensor in params.tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        denom = np.sqrt(v)
        denom += eps_t
        update = m / denom
        update *= step_size
        tensor.data -= update
    return params, state


@dataclass
class SgdState:
    """Plain SGD with the step-size schedule gamma_k = gamma0 / (1 + decay*k)."""

    gamma0: float
    decay: float = 0.0
    t: int = 0


def sgd_update(params, grads, state):
    gamma = state.gamma0 / (1.0 + state.decay * state.t)
    state.t += 1
    for name, tensor in params.tensors.items():
        tensor.data -= gamma * grads[name]
    return params, state


class AntitheticTracker(CoMoments):
    """Streaming per-entry covariance between the two halves of the PR
    gradient (:func:`pr_halves`); its mean is reported as a diagnostic
    during PR training."""

    def cov_mean(self):
        if self.n < 2 or not self.co_xy:
            return 0.0
        total = sum(float(co.sum()) / (self.n - 1) for co in self.co_xy.values())
        return total / sum(co.size for co in self.co_xy.values())


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the bandit update loop. Its checks are the only ones of the
    bandit keys: ``RunConfig.training_config`` builds one when a run config
    is parsed."""

    OBJECTIVES = ("el", "pr")
    CV_MODES = ("none", "baseline", "sf")
    OPTIMIZERS = ("adam", "sgd")

    objective: str = "el"             # one of OBJECTIVES
    pair_feedback: str = "continuous"  # "binary" | "continuous"
    cv_mode: str = "none"             # one of CV_MODES
    iters: int = 1000
    valid_interval: int = 100
    clip_norm: float = 1.0
    seed: int = 0
    alpha: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    baseline_includes_current: bool = True
    optimizer: str = "adam"           # one of OPTIMIZERS
    sgd_decay: float = 0.0
    max_len: int = 20
    epoch_size: int = 0               # examples per epoch, for the log only

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        if self.valid_interval < 1:
            raise ValueError("valid_interval must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.epoch_size < 0:
            raise ValueError("epoch_size must be >= 0")
        for key in ("clip_norm", "alpha", "eps"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.sgd_decay < 0:
            raise ValueError("sgd_decay must be >= 0")
        for key, allowed in (("objective", self.OBJECTIVES),
                             ("cv_mode", self.CV_MODES),
                             ("optimizer", self.OPTIMIZERS)):
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
    Update ``k`` takes the next map of the iterator ``gradients``, raises
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
            norm = grad_norm(grads)
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
    if config.optimizer == "adam":
        opt_state = OptimizerState.for_params(
            params, config.alpha, config.beta1, config.beta2, config.eps)
        step = adam_update
    else:
        opt_state = SgdState(gamma0=config.alpha, decay=config.sgd_decay)
        step = sgd_update
    antithetic = AntitheticTracker() if config.objective == "pr" else None
    antithetic_every = max(1, config.valid_interval // 10)
    feedback = []  # of the current window

    def gradients():
        for k in range(1, config.iters + 1):
            sentence_id, source = next(stream)
            if config.objective == "el":
                sample = sample_sequence(source, params, config.max_len, rng)
                delta = feedback_fn(sentence_id, sample.tokens)
                score = el_gradient(source, sample, params)
            else:
                pair = sample_pair(source, params, config.max_len, rng)
                delta = feedback_fn(sentence_id, pair.tokens_pos,
                                    pair.tokens_neg)
                score = pr_gradient(source, pair, params)
                if k % antithetic_every == 0:
                    antithetic.update(*pr_halves(source, pair, params))
            feedback.append(delta)
            if config.cv_mode == "baseline":
                yield apply_baseline_cv(delta, score, cv_state)
            elif config.cv_mode == "sf":
                yield apply_score_function_cv(delta, score, cv_state)
            else:
                yield _scaled(score, delta)

    def window_rows(norms):
        yield "mean_feedback", sum(feedback) / len(feedback)
        yield "grad_norm", sum(norms) / len(norms)
        if config.cv_mode == "sf":
            yield "cv_chat_mean", cv_state.chat_mean()
        if antithetic is not None:
            yield "antithetic_cov_mean", antithetic.cov_mean()
        feedback.clear()

    windows = [(k, k // config.epoch_size if config.epoch_size else 0)
               for k in range(1, config.iters + 1)
               if k % config.valid_interval == 0 or k == config.iters]
    return run_updates(
        params, step, opt_state, config.clip_norm, windows, gradients(),
        lambda k: f"iteration {k} (objective={config.objective}, "
                  f"feedback={feedback[-1]!r})",
        window_rows, validate_fn, validate_first=True)
