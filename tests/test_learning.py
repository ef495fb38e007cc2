"""Exact learning curves on an enumerable task: does the bandit loop lower
the expected loss it is meant to lower?

The task is small enough that every output can be enumerated: the 6-id
``tiny_params(seed=7)`` model, three fixed sources and their fixed
references, and outputs of at most ``max_len`` 2 tokens (31 per source).
The feedback is -gGLEU (``max_n`` 2) of the sample with its END stripped,
against the reference of the sample's source. The exact risk of a model is
``oracles.exact_risk_and_grad`` averaged over the three sources; lower is
better.

The threshold was fixed before any run: after 400 EL updates at step size
0.02, with a clip that never binds, the exact risk averaged over sources
and loop seeds 1-4 lies at least 0.1 below its value before training, for
each control variate. A set-up like this one measured drops of 0.51-0.73.
The second claim was fixed before any run too: averaged over the same
loop seeds, the exact risk after training with the ``baseline`` CV is no
higher than with ``none``, and neither is the one with ``sf``. Each CV's
runs are made once and shared by both claims.
"""

import functools
import time

import numpy as np
import pytest

from banditseq.metrics import FeedbackOracle
from banditseq.objectives import bandit_train_loop

from conftest import loop_config, random_source, tiny_params
from oracles import exact_risk_and_grad

MAX_LEN = 2
MAX_N = 2
UPDATES = 400
LOOP_SEEDS = (1, 2, 3, 4)
REQUIRED_DROP = 0.1


def _task():
    rng = np.random.default_rng(0)
    sources = [random_source(rng) for _ in range(3)]
    references = [random_source(rng) for _ in range(3)]
    return sources, FeedbackOracle("ggleu-loss", dict(enumerate(references)),
                                   max_n=MAX_N, clean=True)


def _exact_risk(params, sources, oracle):
    """The exact expected loss, averaged over the sources."""
    risks = [exact_risk_and_grad(source, params,
                                 lambda tokens, i=i: oracle(i, tokens),
                                 MAX_LEN)[0]
             for i, source in enumerate(sources)]
    return sum(risks) / len(risks)


def _cycle(sources):
    while True:
        yield from enumerate(sources)


@functools.cache
def _el_risks(cv_mode):
    """The exact risk before training, the mean over loop seeds of the
    exact risk after EL training with ``cv_mode``, each seed's value, and
    the seconds it took."""
    start = time.time()
    sources, oracle = _task()
    before = _exact_risk(tiny_params(seed=7), sources, oracle)
    after = []
    for seed in LOOP_SEEDS:
        params = tiny_params(seed=7)
        config = loop_config(objective="el", cv_mode=cv_mode, iters=UPDATES,
                             valid_interval=UPDATES, clip_norm=1e6,
                             alpha=0.02, max_len=MAX_LEN, seed=seed)
        bandit_train_loop(config, params, _cycle(sources), oracle)
        after.append(_exact_risk(params, sources, oracle))
    return before, sum(after) / len(after), after, time.time() - start


@pytest.mark.parametrize("cv_mode", ["none", "baseline", "sf"])
def test_el_lowers_the_exact_risk(cv_mode):
    before, mean_after, after, seconds = _el_risks(cv_mode)
    assert mean_after <= before - REQUIRED_DROP, (before, after)
    assert seconds < 30.0


@pytest.mark.parametrize("cv_mode", ["baseline", "sf"])
def test_control_variate_ends_no_higher_than_none(cv_mode):
    with_cv, without = _el_risks(cv_mode)[1], _el_risks("none")[1]
    assert with_cv <= without, (cv_mode, with_cv, without)
