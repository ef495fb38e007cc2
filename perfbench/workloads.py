"""Inputs, workloads and correctness checks of the banditseq benchmark.

A workload is a *round* of fixed work that starts from the same state, so
every repeat of it must produce the same digest. A run repeats its
workload's round until the requested seconds have passed, at least twice,
and pools what the rounds measured. The benchmark times only the public
entry points users call (``pipeline.train_mle``,
``pipeline.evaluate_on_corpus``, ``objectives.bandit_train_loop``,
``checkpoint.save_checkpoint``/``load_checkpoint``, ``data.gen_data``,
``Vocabulary.from_corpus``); it supplies the inputs those take (corpora,
the bandit stream, the feedback oracle, the validation function) and
re-implements no loop of the program.

The learner is a closed loop with one client: each update waits for the
previous one, so throughput is reported at the stated input sizes below.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import banditseq
from banditseq import pipeline
from banditseq.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from banditseq.config import RunConfig
from banditseq.data import Corpus, gen_data
from banditseq.metrics import FeedbackOracle
from banditseq.model import ModelParams, Vocabulary
from banditseq.objectives import TrainingConfig, bandit_train_loop

from clock import Wall


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``DEFAULT`` is the repository's default task and model;
    ``TINY`` exists for the benchmark's own quick test."""

    sizes: dict                # train_a .. test_b of the synthetic task
    embedding_size: int
    hidden_size: int
    mle_sentences: int         # pretrain_eval: domain-A training slice
    mle_valid_sentences: int   # pretrain_eval: domain-A validation slice
    el_iters: int
    el_valid_interval: int
    pr_iters: int              # pr_sf validates only before and after
    setup_repeats: int         # set-ups timed before each round


DEFAULT = Scale(
    sizes=dict(train_a=10000, valid_a=1000, test_a=1000,
               train_b=2000, valid_b=500, test_b=500),
    embedding_size=32, hidden_size=64,
    mle_sentences=800, mle_valid_sentences=200,
    el_iters=1000, el_valid_interval=1000,
    pr_iters=300,
    setup_repeats=4,
)

TINY = Scale(
    sizes=dict(train_a=160, valid_a=16, test_a=16,
               train_b=24, valid_b=8, test_b=8),
    embedding_size=6, hidden_size=8,
    mle_sentences=24, mle_valid_sentences=8,
    el_iters=6, el_valid_interval=3,
    pr_iters=4,
    setup_repeats=1,
)


def pinned_config(scale):
    """Every RunConfig key the benchmark relies on, set explicitly so that
    a later change of the defaults does not move the benchmark. The trained
    seed uses it as is: default-config MLE on domain A for one epoch."""
    return RunConfig(
        embedding_size=scale.embedding_size, hidden_size=scale.hidden_size,
        vocab_cutoff=1, max_len=20, dropout=0.0, clip_norm=1.0,
        adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, optimizer="adam",
        mle_alpha=1e-3, mle_epochs=1, mle_batch=8, seed=13, ggleu_max_n=4,
        src_vocab_size=96, overlap=0.7, band_weight_a=0.1, band_weight_b=0.5,
        ambiguity=0.25, swap_a=True, swap_b=True, min_sent_len=3,
        max_sent_len=8, **scale.sizes,
    )


def bandit_config(scale, objective, seed, epoch_size):
    """The bandit loop's settings, all pinned. ``adam_alpha=5e-5`` with a
    clip that never binds is the setting under which the default task
    adapts."""
    el = objective == "el"
    return TrainingConfig(
        objective=objective, pair_feedback="continuous",
        cv_mode="baseline" if el else "sf",
        iters=scale.el_iters if el else scale.pr_iters,
        valid_interval=scale.el_valid_interval if el else scale.pr_iters,
        clip_norm=1e6, seed=seed, alpha=5e-5, beta1=0.9, beta2=0.999,
        eps=1e-8, baseline_includes_current=True, optimizer="adam",
        sgd_decay=0.0, max_len=20, epoch_size=epoch_size,
    )


# -- inputs -----------------------------------------------------------------


def tensors_sha256(arrays):
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype=np.float64)
        h.update(f"{name}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _corpora_and_vocab(cfg, tracer):
    with tracer.span("data.gen_data"):
        corpora = gen_data(pipeline.task_spec_from_config(cfg))
    train_a = corpora["a", "train"]
    with tracer.span("model.vocab_build"):
        vocab = Vocabulary.from_corpus(train_a.sources + train_a.targets,
                                       cutoff=cfg.vocab_cutoff)
    return corpora, vocab


def source_sha256():
    """Digest of the program's sources that the benchmark imports."""
    h = hashlib.sha256()
    for path in sorted(Path(banditseq.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def seed_path(cfg, workdir):
    # Keyed by the code as well as the recipe: a kept .bench_build/ must
    # not hand one commit's seed to another whose train_mle differs.
    recipe = pipeline.config_hash(cfg)[:16]
    return os.path.join(workdir, f"seed-{recipe}-{source_sha256()[:16]}.npz")


def build_seed(cfg, workdir, tracer):
    """Train the seed model once per recipe and store it as named arrays,
    so no checkpoint-format change can break it. Runs outside any timed
    region; later runs reuse the file."""
    path = seed_path(cfg, workdir)
    if os.path.exists(path):
        return path
    os.makedirs(workdir, exist_ok=True)
    corpora, vocab = _corpora_and_vocab(cfg, tracer)
    params, _ = pipeline.train_mle(cfg, vocab, corpora["a", "train"],
                                   corpora["a", "valid"])
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **params.copy_values())
    os.replace(tmp, path)
    return path


def load_seed(path, vocab_size):
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    return ModelParams.from_tensors(vocab_size, arrays).copy_values()


@dataclass
class Context:
    """What every workload starts from, built by ``set_up``."""

    scale: Scale
    cfg: RunConfig
    workdir: str
    corpora: dict
    vocab: Vocabulary
    seed_path: str
    seed_values: dict
    seed_sha256: str
    clock: object
    setup_spans: list = field(default_factory=list)   # filled by time_setup


def set_up(scale, workdir, tracer, clock=None):
    """Build the trained seed if needed, then the corpora, vocabulary and
    seed values every round starts from. ``clock`` times the workload
    (``clock.Wall`` by default)."""
    cfg = pinned_config(scale)
    path = build_seed(cfg, workdir, tracer)
    corpora, vocab = _corpora_and_vocab(cfg, tracer)
    seed_values = load_seed(path, len(vocab))
    return Context(scale=scale, cfg=cfg, workdir=workdir, corpora=corpora,
                   vocab=vocab, seed_path=path, seed_values=seed_values,
                   seed_sha256=tensors_sha256(seed_values),
                   clock=clock or Wall())


def time_setup(ctx, tracer):
    """Time once, from a collected heap, the set-up every run pays: corpus
    generation, vocabulary and loading the seed. Its outputs equal the
    context's and are dropped."""
    gc.collect()
    t0 = ctx.clock.now()
    _, vocab = _corpora_and_vocab(ctx.cfg, tracer)
    load_seed(ctx.seed_path, len(vocab))
    ctx.setup_spans.append((t0, ctx.clock.now()))


# -- rounds -----------------------------------------------------------------


@dataclass
class Round:
    """What one repeat of a workload did and measured. Times are kept as
    (start, end) spans on the context's clock, to be scaled at the end."""

    ops: int = 0                # updates + decoded sentences + oracle calls
    failures: list = field(default_factory=list)   # (reason, failed ops)
    digest: str | None = None   # of decoded outputs and metric rows
    wall_s: float = 0.0
    update_spans: list = field(default_factory=list)
    train_sentences: int = 0
    train_spans: list = field(default_factory=list)
    decode_sentences: int = 0   # in evaluation and validation passes
    decode_spans: list = field(default_factory=list)
    selected_ggleu: float = math.nan   # quality of the model handed back

    def fail(self, reason, ops):
        self.failures.append((reason, ops))


def _digest(*parts):
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_finite(rnd, arrays, what, ops):
    bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        rnd.fail(f"non-finite {what}: {', '.join(sorted(bad))}", ops)


def _evaluate(ctx, rnd, params, vocab, corpus, tracer):
    """Greedy-decode and score a corpus, counting it as decode work and
    checking every decode respects max_len."""
    t0 = ctx.clock.now()
    with tracer.span("pipeline.evaluate_on_corpus"):
        scores, hyps, hyps_unk = pipeline.evaluate_on_corpus(
            params, vocab, corpus, ctx.cfg.max_len, ctx.cfg.ggleu_max_n)
    rnd.decode_sentences += len(corpus)
    rnd.decode_spans.append((t0, ctx.clock.now()))
    too_long = sum(len(h) > ctx.cfg.max_len for h in hyps)
    if too_long:
        rnd.fail(f"{too_long} decodes longer than max_len", too_long)
    return scores, hyps, hyps_unk


def _checkpoint_round_trip(ctx, rnd, values, iteration, tracer):
    """Save and reload ``values`` as a .bnsq checkpoint; returns the
    reloaded model."""
    path = os.path.join(ctx.workdir, "round.bnsq")
    with tracer.span("checkpoint.save"):
        save_checkpoint(path, Checkpoint(
            vocab=ctx.vocab, tensors=values, iteration=iteration,
            seed=ctx.cfg.seed, config_hash=pipeline.config_hash(ctx.cfg)))
    tracer.count("checkpoint.bytes", os.path.getsize(path))
    with tracer.span("checkpoint.load"):
        ckpt = load_checkpoint(path)
    if tensors_sha256(ckpt.tensors) != tensors_sha256(values):
        rnd.fail("checkpoint round trip changed the parameters", 1)
    return ckpt


def pretrain_inputs(ctx, seed):
    """A seed-chosen contiguous slice of domain-A train and valid."""
    rng = np.random.default_rng([seed, 1])
    train = ctx.corpora["a", "train"].pairs
    valid = ctx.corpora["a", "valid"].pairs
    n, m = ctx.scale.mle_sentences, ctx.scale.mle_valid_sentences
    i = int(rng.integers(0, len(train) - n + 1))
    j = int(rng.integers(0, len(valid) - m + 1))
    return {"train": Corpus(pairs=train[i:i + n], domain="a", split="train"),
            "valid": Corpus(pairs=valid[j:j + m], domain="a", split="valid")}


def pretrain_eval_round(ctx, inputs, rnd, tracer):
    """MLE from the default init on the slice, then the trained seed saved
    and reloaded as a checkpoint and evaluated on both test sets."""
    cfg = ctx.cfg
    train, valid = inputs["train"], inputs["valid"]
    tests = [ctx.corpora[domain, "test"] for domain in ("a", "b")]
    planned_updates = math.ceil(len(train) / cfg.mle_batch)
    rnd.ops = planned_updates + len(valid) + sum(map(len, tests))
    # Optimizer steps are timestamped from outside: the interval between
    # two is one update, and everything after the last is validation. That
    # validation decodes with a barely trained model whose output lengths
    # swing with the slice, so it counts as neither training nor decoding.
    steps = []
    step = pipeline.adam_update

    def timed_step(*args, **kwargs):
        out = step(*args, **kwargs)
        steps.append(ctx.clock.now())
        return out

    t0 = ctx.clock.now()
    pipeline.adam_update = timed_step
    try:
        with tracer.span("pipeline.train_mle"):
            params, rows = pipeline.train_mle(cfg, ctx.vocab, train, valid)
    finally:
        pipeline.adam_update = step
    updates = len(steps)
    if updates != planned_updates:
        rnd.fail(f"{updates} MLE updates, expected {planned_updates}",
                 planned_updates)
    rnd.update_spans = list(zip(steps, steps[1:]))
    rnd.train_sentences = len(train)
    rnd.train_spans = [(t0, steps[-1])]
    _check_finite(rnd, params.copy_values(), "MLE parameters", updates)

    ckpt = _checkpoint_round_trip(ctx, rnd, ctx.seed_values, 0, tracer)
    model = ckpt.to_model()
    outputs = [_evaluate(ctx, rnd, model, ckpt.vocab, corpus, tracer)
               for corpus in tests]
    # A few hundred MLE updates from the init score near 0 and swing with
    # the slice, so quality is read off the trained seed on test A, the
    # domain it was trained on; the seed file is keyed by the sources, so
    # it is this checkout's own train_mle.
    rnd.selected_ggleu = outputs[0][0]["ggleu"]
    rnd.digest = _digest(rows, outputs)
    return rnd


def bandit_inputs(ctx, seed):
    """The domain-B stream order and the loop's sampling seed."""
    stream_seed, loop_seed = np.random.SeedSequence([seed, 2]).generate_state(2)
    return {"stream_seed": int(stream_seed), "loop_seed": int(loop_seed)}


def bandit_round(ctx, inputs, rnd, tracer, objective):
    """One bandit run from the trained seed on the domain-B stream, with
    best-iterate validation on valid B. As in the pipeline, the selected
    iterate is then saved as a checkpoint, reloaded and evaluated on
    test B."""
    cfg, vocab = ctx.cfg, ctx.vocab
    train_b = ctx.corpora["b", "train"]
    valid_b = ctx.corpora["b", "valid"]
    test_b = ctx.corpora["b", "test"]
    sources = [vocab.encode(src) for src in train_b.sources]
    references = {i: vocab.encode(tgt) for i, (_, tgt) in
                  enumerate(train_b.pairs)}
    kind = "ggleu-loss" if objective == "el" else "pair-continuous"
    oracle = FeedbackOracle(kind, references, max_n=cfg.ggleu_max_n, clean=True)
    tcfg = bandit_config(ctx.scale, objective, inputs["loop_seed"],
                         len(sources))
    # The loop validates before the first update, every valid_interval
    # updates and after the last; each update pulls once and asks the
    # oracle once.
    planned_validations = 1 + math.ceil(tcfg.iters / tcfg.valid_interval)
    rnd.ops = (2 * tcfg.iters + planned_validations * len(valid_b)
               + len(test_b))

    pulls = []

    def stream():
        rng = np.random.default_rng(inputs["stream_seed"])
        while True:
            for i in rng.permutation(len(sources)):
                pulls.append(ctx.clock.now())
                yield int(i), sources[int(i)]

    too_long = 0
    scored = tracer.wrap("metrics.oracle", oracle)

    def feedback(sentence_id, *samples):
        nonlocal too_long
        too_long += sum(len(s) > cfg.max_len for s in samples)
        value = scored(sentence_id, *samples)
        tracer.count("metrics.zero_feedback", value == 0.0)
        return value

    # The pipeline's own validator, as its bandit stage passes it; only
    # timed from outside. Its scores are digested through result.rows.
    validator = pipeline._make_validator(vocab, valid_b, cfg.max_len,
                                         cfg.ggleu_max_n)
    validations = []

    def validate(params):
        t0 = ctx.clock.now()
        scores = validator(params)
        validations.append((t0, ctx.clock.now()))
        rnd.decode_sentences += len(valid_b)
        rnd.decode_spans.append(validations[-1])
        return scores

    params = ModelParams.from_tensors(len(vocab), ctx.seed_values)
    t0 = ctx.clock.now()
    with tracer.span("objectives.bandit_train_loop"):
        result = bandit_train_loop(tcfg, params, stream(), feedback,
                                   tracer.wrap("pipeline.validate", validate))
    t1 = ctx.clock.now()

    # An update is the interval between two pulls from the stream; drop
    # the intervals that contain a validation.
    starts = [v[0] for v in validations]
    for a, b in zip(pulls, pulls[1:]):
        if bisect.bisect_left(starts, a) == bisect.bisect_left(starts, b):
            rnd.update_spans.append((a, b))
    rnd.train_sentences = len(pulls)
    # Training is the loop's time between its validations.
    edges = [t0, *(t for v in validations for t in v), t1]
    rnd.train_spans = list(zip(edges[0::2], edges[1::2]))
    # The best-validation iterate is what the run hands back; its score
    # moves less with the seed than the last iterate's.
    rnd.selected_ggleu = result.best_score
    if too_long:
        rnd.fail(f"{too_long} samples longer than max_len", too_long)
    if oracle.calls != tcfg.iters or len(pulls) != tcfg.iters:
        rnd.fail(f"{oracle.calls} oracle calls and {len(pulls)} stream pulls "
                 f"for {tcfg.iters} updates", tcfg.iters)
    if len(validations) != planned_validations:
        rnd.fail(f"{len(validations)} validations, expected "
                 f"{planned_validations}", len(valid_b))
    _check_finite(rnd, params.copy_values(), "final parameters", tcfg.iters)
    _check_finite(rnd, result.best_values, "selected parameters", tcfg.iters)
    ckpt = _checkpoint_round_trip(ctx, rnd, result.best_values,
                                  result.best_iteration, tracer)
    test = _evaluate(ctx, rnd, ckpt.to_model(), ckpt.vocab, test_b, tracer)
    rnd.digest = _digest(result.rows, result.best_iteration, test)
    return rnd


# Spans every workload fires, then those particular to each.
_COMMON_SPANS = {
    "data.gen_data", "model.vocab_build", "model.encode_full",
    "model.greedy_decode", "autodiff.backward", "objectives.optimizer",
    "objectives.clip", "metrics.corpus_score", "pipeline.evaluate_on_corpus",
    "pipeline.unk_replace", "checkpoint.save", "checkpoint.load",
}
_BANDIT_SPANS = {"objectives.cv", "metrics.oracle", "pipeline.validate",
                 "objectives.bandit_train_loop"}


@dataclass(frozen=True)
class Workload:
    inputs: object
    round: object
    expected_spans: frozenset


WORKLOADS = {
    "pretrain_eval": Workload(
        pretrain_inputs, pretrain_eval_round,
        frozenset(_COMMON_SPANS | {"model.sequence_log_prob",
                                   "objectives.mle_loss_and_grad",
                                   "pipeline.train_mle"})),
    "el_baseline": Workload(
        bandit_inputs,
        lambda ctx, inputs, rnd, tracer:
            bandit_round(ctx, inputs, rnd, tracer, "el"),
        frozenset(_COMMON_SPANS | _BANDIT_SPANS | {
            "model.sample_sequence", "model.sequence_log_prob",
            "objectives.el_gradient"})),
    "pr_sf": Workload(
        bandit_inputs,
        lambda ctx, inputs, rnd, tracer:
            bandit_round(ctx, inputs, rnd, tracer, "pr"),
        frozenset(_COMMON_SPANS | _BANDIT_SPANS | {
            "model.sample_pair", "model.pair_log_prob",
            "objectives.pr_gradient", "objectives.antithetic_update"})),
}


def run_rounds(workload, ctx, seed, seconds, tracer_for):
    """Repeat the workload's round until its rounds have taken ``seconds``
    (at least twice), timing the set-up before each. ``tracer_for(i)``
    gives the tracer of round ``i`` and of the set-ups before it. A round sets
    the ops it attempts before doing them, so one that raises counts all of
    them as failed."""
    spec = WORKLOADS[workload]
    inputs = spec.inputs(ctx, seed)
    rounds = []
    while len(rounds) < 2 or sum(r.wall_s for r in rounds) < seconds:
        tracer = tracer_for(len(rounds))
        # The processor's speed shifts every few seconds. Set-ups timed
        # before every round sample the whole run, not one stretch of it.
        for _ in range(ctx.scale.setup_repeats):
            time_setup(ctx, tracer)
        rnd = Round()
        t0 = ctx.clock.now()
        try:
            with tracer.installed():
                spec.round(ctx, inputs, rnd, tracer)
        except Exception as exc:  # a failing op is reported, not fatal
            rnd.fail(f"{type(exc).__name__}: {exc}", rnd.ops)
        rnd.wall_s = ctx.clock.now() - t0
        rounds.append(rnd)
    return rounds


def check_rounds(rounds):
    """Every repeat must reproduce the first digest. Returns the number of
    failed ops and the list of violations."""
    reference = next((r.digest for r in rounds if r.digest), None)
    failed = 0
    problems = []
    for i, rnd in enumerate(rounds):
        issues = list(rnd.failures)
        if rnd.digest is not None and rnd.digest != reference:
            issues.append(("output digest differs from the first repeat",
                           rnd.ops))
        failed += min(rnd.ops, sum(ops for _, ops in issues))
        problems += [f"round {i}: {reason}" for reason, _ in issues]
    return failed, problems


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(rounds, ctx, duration):
    """The end-to-end metrics of an untraced run, with every time taken as
    ``duration(start, end)``: the clock's scaled time, or the plain
    difference for the wall-time figures of the detail line. Training
    throughput is the median over rounds. Decode throughput pools every
    pass of the run: passes differ in size and kind (validation or
    evaluation), so a median over passes would mix them. A value no round
    could measure (every round raised) reads None."""
    ok = [r for r in rounds if r.digest is not None]

    def total(spans):
        return sum(duration(a, b) for a, b in spans)

    intervals = [duration(a, b) * 1e3 for r in ok for a, b in r.update_spans]
    quantiles = np.percentile(intervals, [50, 95]) if intervals else [None] * 2
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(
            duration(a, b) for a, b in ctx.setup_spans), "s"),
        "train_sentences_per_s": (_median(
            r.train_sentences / total(r.train_spans) for r in ok), "1/s"),
        "update_ms.p50": (quantiles[0], "ms"),
        "update_ms.p95": (quantiles[1], "ms"),
        "decode_sentences_per_s": (
            sum(r.decode_sentences for r in ok)
            / sum(total(r.decode_spans) for r in ok) if ok else None, "1/s"),
        "selected_ggleu": (ok[0].selected_ggleu if ok else None, "ggleu"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {name: {"value": None if v is None else float(v), "unit": u}
            for name, (v, u) in metrics.items()}
