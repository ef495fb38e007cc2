"""The update arithmetic tensor by tensor: the reference the flat-vector
updates of :mod:`banditseq.objectives` are checked against.

Gradients here are maps of named arrays, and every operation is a loop
over the tensors, with the same elementwise expressions in the same order
as the program's passes over one vector. The two must agree bit for bit;
see ``tests/test_layout.py``. No program path calls these.
"""

from __future__ import annotations

import math

import numpy as np


def grad_norm(grads):
    total = 0.0
    for g in grads.values():
        flat = g.ravel()
        total += float(flat @ flat)
    return math.sqrt(total)


def clip_gradient(grads, max_norm, norm):
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: scale * g for name, g in grads.items()}


class Adam:
    """Adam moments per tensor and the bias-corrected step in folded form."""

    def __init__(self, values, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {name: np.zeros_like(v) for name, v in values.items()}
        self.v = {name: np.zeros_like(v) for name, v in values.items()}
        self.t = 0
        self.alpha, self.beta1, self.beta2, self.eps = alpha, beta1, beta2, eps

    def step(self, values, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        sqrt_bc2 = math.sqrt(1.0 - b2 ** self.t)
        step_size = self.alpha * sqrt_bc2 / bc1
        eps_t = self.eps * sqrt_bc2
        for name, value in values.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            denom = np.sqrt(v)
            denom += eps_t
            update = m / denom
            update *= step_size
            value -= update


class CoMoments:
    """Welford's per-entry means and co-moments, one tensor at a time."""

    def __init__(self, track_var_y=False):
        self.n = 0
        self.mean_x, self.mean_y, self.co_xy = {}, {}, {}
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

    def cov_mean(self):
        if self.n < 2 or not self.co_xy:
            return 0.0
        total = sum(float(co.sum()) / (self.n - 1)
                    for co in self.co_xy.values())
        return total / sum(co.size for co in self.co_xy.values())


class ControlVariates:
    """The running baseline and the score-function coefficient."""

    VAR_FLOOR = 1e-12

    def __init__(self, include_current=True):
        self.include_current = include_current
        self.k = 0
        self.feedback_sum = 0.0
        self.moments = CoMoments(track_var_y=True)

    def _average(self):
        return self.feedback_sum / self.k if self.k else 0.0

    def baseline(self, feedback, score):
        if self.include_current:
            self.k += 1
            self.feedback_sum += feedback
            centered = feedback - self._average()
        else:
            centered = feedback - self._average()
            self.k += 1
            self.feedback_sum += feedback
        return {name: centered * s for name, s in score.items()}

    def _coefficient(self, name):
        m2 = self.moments.m2_y[name]
        out = np.zeros_like(m2)
        np.divide(self.moments.co_xy[name], m2, out=out,
                  where=m2 > self.VAR_FLOOR)
        return out

    def chat(self, name, like):
        if name not in self.moments.co_xy:
            return np.zeros_like(like)
        return self._coefficient(name)

    def score_function(self, feedback, score):
        grads = {name: feedback * s for name, s in score.items()}
        adjusted = {name: s - self.chat(name, s) * score[name]
                    for name, s in grads.items()}
        self.moments.update(grads, score)
        return adjusted

    def chat_mean(self):
        coefficients = [self._coefficient(name) for name in self.moments.co_xy]
        if not coefficients:
            return 0.0
        return (sum(float(c.sum()) for c in coefficients)
                / sum(c.size for c in coefficients))
