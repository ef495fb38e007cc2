"""The pretrain -> adapt -> evaluate experiment pipeline.

Stages (selected by the ``stages`` config key):

* ``gen-data``     write synthetic corpora for both domains
* ``train-mle``    supervised pretraining on domain A (the seed model), in
                   the bandit stage's update loop, over a frequency vocabulary
                   of the domain-A training corpus that the checkpoint stores
* ``train-bandit`` one adaptation run per seed on domain-B feedback;
                   references stay behind the feedback oracle
* ``evaluate``     greedy-decode both test sets for the seed model and every
                   run's selected checkpoint; write decoded outputs (raw and
                   UNK-replaced) and mean/std rows across runs. As the only
                   stage, it names the decoded files after the seed
                   checkpoint's file stem

An invocation writes its metric rows to ``metrics.<objective>-<cv_mode>.csv``
when it runs ``train-bandit`` without ``train-mle``, to ``metrics.<stem>.csv``
when ``evaluate`` is its only stage, and to ``metrics.csv`` otherwise, so
that the stage commands replace no rows another one wrote. An invocation
with no rows writes no metrics file.

All randomness descends from the single config seed through fixed
per-stage offsets, so a rerun with the same config is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ConfigError, format_config
from .data import SPLITS, atomic_open, corpus_paths, gen_data, \
    read_parallel, write_corpus, write_parallel
from .metrics import CorpusCounts, FeedbackOracle, clean_hypothesis, \
    corpus_bleu, corpus_ggleu
from .model import END, ModelParams, START, UNK, Vocabulary, greedy_decode
from .objectives import OptimizerState, adam_update, bandit_train_loop, \
    mle_loss_and_grad, run_updates
from .objectives import clip_gradient  # noqa: F401  for perfbench/spans.py

__all__ = [
    "derive_seed",
    "unk_replace",
    "evaluate_on_corpus",
    "train_mle",
    "BanditRunOutcome",
    "PipelineResult",
    "run_pipeline",
    "write_metrics_csv",
]

CSV_FIELDS = ("run", "iteration", "epoch", "split", "metric", "value")

# Stage offsets under the master seed; runs add their index on top.
_SEED_MODEL_INIT = 11
_SEED_MLE_ORDER = 12
_SEED_MLE_DROPOUT = 13
_SEED_BANDIT_STREAM = 20
_SEED_BANDIT_LOOP = 40


def derive_seed(base, *offsets):
    """Fold offsets into a base seed; stable across platforms."""
    ss = np.random.SeedSequence([int(base), *[int(o) for o in offsets]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def unk_replace(tokens, attentions, source_tokens):
    """Replace UNK output tokens by the source token with the highest
    attention weight at that step (ties: lowest source position). Pure
    post-processing; non-UNK tokens pass through."""
    if len(attentions) != len(tokens):
        raise ValueError(
            f"unk_replace: {len(tokens)} tokens but {len(attentions)} "
            f"attention vectors"
        )
    out = []
    for tok, attn in zip(tokens, attentions):
        if tok == Vocabulary.RESERVED[UNK]:
            out.append(source_tokens[int(np.argmax(attn))])
        else:
            out.append(tok)
    return out


def _scores(hyps, refs, max_n, suffix=""):
    """gGLEU and BLEU of ``hyps``, counted once for both, against the
    counted references ``refs``."""
    hyps = CorpusCounts(hyps, max_n)
    return {"ggleu" + suffix: corpus_ggleu(hyps, refs, max_n),
            "bleu" + suffix: corpus_bleu(hyps, refs, max_n)}


def evaluate_on_corpus(params, vocab, corpus, max_len, max_n=4):
    """Greedy-decode a corpus and score it. Returns (scores, decoded,
    decoded with UNK replacement); scores carry ggleu/bleu for both."""
    hyps = []
    hyps_unk = []
    decoded = greedy_decode([vocab.encode(src) for src in corpus.sources],
                            params, max_len, return_attention=True)
    for src_tokens, (out_ids, attn) in zip(corpus.sources, decoded):
        # greedy decoding stops after END, so END can only come last
        kept = [(tok, a) for tok, a in zip(out_ids, attn)
                if tok not in (START, END)]
        tokens = vocab.decode([tok for tok, _ in kept])
        hyps.append(tokens)
        hyps_unk.append(unk_replace(tokens, [a for _, a in kept], src_tokens))
    refs = CorpusCounts(corpus.targets, max_n)
    scores = _scores(hyps, refs, max_n)
    if hyps_unk == hyps:  # no UNK replaced: the same tokens score the same
        scores.update({name + "_unk": value for name, value in scores.items()})
    else:
        scores.update(_scores(hyps_unk, refs, max_n, suffix="_unk"))
    return scores, hyps, hyps_unk


def _make_validator(vocab, corpus, max_len, max_n):
    sources = [vocab.encode(src) for src in corpus.sources]
    references = CorpusCounts(corpus.targets, max_n)

    def validate(params):
        hyps = [vocab.decode(clean_hypothesis(out_ids))
                for out_ids in greedy_decode(sources, params, max_len)]
        return _scores(hyps, references, max_n)

    return validate


def train_mle(cfg, vocab, train_corpus, valid_corpus):
    """Minibatch MLE pretraining by ``run_updates``, one window per epoch;
    returns the best-validation parameters and the metric rows."""
    params = ModelParams(len(vocab), cfg.embedding_size, cfg.hidden_size,
                         seed=derive_seed(cfg.seed, _SEED_MODEL_INIT))
    opt = OptimizerState.for_params(params, cfg.mle_alpha, cfg.adam_beta1,
                                    cfg.adam_beta2, cfg.adam_eps)
    examples = [(vocab.encode(src), vocab.encode(tgt) + [END])
                for src, tgt in train_corpus.pairs]
    order_rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_MLE_ORDER))
    dropout_rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_MLE_DROPOUT))
    dropout = (cfg.dropout, dropout_rng) if cfg.dropout > 0 else None
    batches = len(range(0, len(examples), cfg.mle_batch))  # per epoch
    epoch, epoch_loss = 0, 0.0

    def gradients():
        nonlocal epoch, epoch_loss
        for epoch in range(1, cfg.mle_epochs + 1):
            order = order_rng.permutation(len(examples))
            epoch_loss = 0.0
            for start in range(0, len(order), cfg.mle_batch):
                batch = order[start:start + cfg.mle_batch]
                acc = None
                for idx in batch:
                    src, ref = examples[int(idx)]
                    loss, grads = mle_loss_and_grad(src, ref, params,
                                                    dropout=dropout)
                    epoch_loss += loss
                    if acc is None:
                        acc = grads
                    else:
                        for name in acc:
                            acc[name] += grads[name]
                scale = 1.0 / len(batch)
                grads = {name: g * scale for name, g in acc.items()}
                yield grads

    result = run_updates(
        params, adam_update, opt, cfg.clip_norm,
        [(e * batches, e) for e in range(1, cfg.mle_epochs + 1)],
        gradients(), lambda k: f"MLE update {k} (epoch {epoch})",
        lambda norms: [("mle_loss", epoch_loss / len(examples))],
        _make_validator(vocab, valid_corpus, cfg.max_len, cfg.ggleu_max_n))
    params.load_values(result.best_values)
    return params, result.rows


@dataclass
class BanditRunOutcome:
    """One adaptation run: its log, selection, and test scores."""

    run: int
    best_iteration: int
    rows: list
    test_scores: dict = field(default_factory=dict)
    oracle_calls: int = 0


@dataclass
class PipelineResult:
    seed_test_scores: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    metrics_path: str = ""
    seed_checkpoint_path: str = ""


def _corpus_stream(examples, seed):
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(examples)):
            yield int(i), examples[int(i)]


def _train_bandit_run(cfg, vocab, seed_values, corpora, run_idx):
    params = ModelParams.from_tensors(len(vocab), seed_values)
    train_b = corpora["b", "train"]
    sources = [vocab.encode(src) for src in train_b.sources]
    references = {i: vocab.encode(tgt) for i, (_, tgt) in enumerate(train_b.pairs)}
    kind = "ggleu-loss" if cfg.objective == "el" \
        else f"pair-{cfg.pair_feedback}"
    oracle = FeedbackOracle(kind, references, max_n=cfg.ggleu_max_n, clean=True)
    stream = _corpus_stream(sources,
                            derive_seed(cfg.seed, _SEED_BANDIT_STREAM, run_idx))
    validate = _make_validator(vocab, corpora["b", "valid"], cfg.max_len,
                               cfg.ggleu_max_n)
    train_cfg = cfg.training_config(
        seed=derive_seed(cfg.seed, _SEED_BANDIT_LOOP, run_idx),
        epoch_size=len(sources))
    result = bandit_train_loop(train_cfg, params, stream, oracle,
                               validate_fn=validate)
    params.load_values(result.best_values)
    return BanditRunOutcome(
        run=run_idx + 1,
        best_iteration=result.best_iteration,
        rows=result.rows,
        oracle_calls=oracle.calls,
    ), params


def write_metrics_csv(path, rows):
    """Write the metrics rows as CSV, replacing ``path`` only once the whole
    file is written."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            formatted = dict(row)
            formatted["value"] = repr(float(row["value"]))
            writer.writerow(formatted)
    return path


def _write_decoded(out_dir, tag, domain, hyps, hyps_unk):
    """Write the decoded outputs, without and with UNK replacement."""
    base = os.path.join(out_dir, "decoded", f"{tag}.{domain}")
    write_parallel(base + ".txt", hyps, base + ".unk.txt", hyps_unk)


def _load_corpora(data_dir):
    corpora = {}
    for domain in ("a", "b"):
        for split in SPLITS:
            src_path, tgt_path = corpus_paths(data_dir, domain, split)
            if not (os.path.exists(src_path) and os.path.exists(tgt_path)):
                raise ConfigError(
                    f"missing corpus files for domain {domain!r} split "
                    f"{split!r} under {data_dir} (run the gen-data stage?)"
                )
            try:
                corpora[domain, split] = read_parallel(
                    src_path, tgt_path, domain=domain, split=split)
            except ValueError as exc:
                raise ConfigError(f"bad corpus: {exc}") from exc
    return corpora


def task_spec_from_config(cfg):
    """The synthetic task of ``cfg``: the config itself, whose task keys
    :func:`~banditseq.data.gen_data` reads. Kept for the benchmark's
    workloads, which call it."""
    return cfg


def config_hash(cfg):
    """Digest of the settings that shape the experiment. Where files are
    read and written and which stages run are left out, so a model trained
    in one go or stage by stage, into any directory, hashes the same."""
    # a namespace, not a RunConfig, since a config must name a stage
    settings = SimpleNamespace(**{**vars(cfg), "out_dir": "", "data_dir": "",
                                  "seed_checkpoint": "", "stages": ""})
    return hashlib.sha256(format_config(settings).encode("utf-8")).hexdigest()


def run_pipeline(cfg):
    """Execute the configured stages; returns a PipelineResult."""
    out_dir = cfg.out_dir
    data_dir = cfg.data_dir or os.path.join(out_dir, "data")
    stages = cfg.stage_list()
    result = PipelineResult()
    chash = config_hash(cfg)

    if "gen-data" in stages:
        corpora = gen_data(cfg)
        for corpus in corpora.values():
            write_corpus(corpus, data_dir)
    else:
        corpora = _load_corpora(data_dir)

    seed_path = cfg.seed_checkpoint or os.path.join(out_dir, "checkpoints",
                                                    "mle.bnsq")
    # named so that no invocation replaces the outputs another one wrote
    run_prefix = f"{cfg.objective}-{cfg.cv_mode}"
    seed_tag, metrics_name = "seed", "metrics.csv"
    if set(stages) == {"evaluate"}:
        seed_tag = os.path.splitext(os.path.basename(seed_path))[0]
        metrics_name = f"metrics.{seed_tag}.csv"
    elif "train-bandit" in stages and "train-mle" not in stages:
        metrics_name = f"metrics.{run_prefix}.csv"
    params = None
    if "train-mle" in stages:
        train_a = corpora["a", "train"]
        vocab = Vocabulary.from_corpus(train_a.sources + train_a.targets,
                                       cutoff=cfg.vocab_cutoff)
        params, mle_rows = train_mle(cfg, vocab, train_a,
                                     corpora["a", "valid"])
        for row in mle_rows:
            result.rows.append({"run": 0, **row})
        save_checkpoint(seed_path, Checkpoint(
            vocab=vocab, tensors=params.copy_values(), iteration=0,
            seed=cfg.seed, config_hash=chash))
    elif "train-bandit" in stages or "evaluate" in stages:
        if not os.path.exists(seed_path):
            raise ConfigError(
                f"no seed checkpoint at {seed_path}; run train-mle or set "
                f"seed_checkpoint"
            )
        ckpt = load_checkpoint(seed_path)
        vocab = ckpt.vocab
        params = ckpt.to_model()
    result.seed_checkpoint_path = seed_path
    if params is None:
        return result
    seed_values = params.copy_values()

    # (tag, run, iteration, parameters, test scores) of every model that
    # the evaluate stage decodes: the seed first, then each run's selection
    models = [(seed_tag, 0, 0, params, result.seed_test_scores)]
    if "train-bandit" in stages:
        for run_idx in range(cfg.runs):
            outcome, best_params = _train_bandit_run(cfg, vocab, seed_values,
                                                     corpora, run_idx)
            tag = f"{run_prefix}-run{outcome.run}"
            save_checkpoint(
                os.path.join(out_dir, "checkpoints", tag + ".bnsq"),
                Checkpoint(vocab=vocab, tensors=best_params.copy_values(),
                           iteration=outcome.best_iteration, seed=cfg.seed,
                           config_hash=chash))
            for row in outcome.rows:
                result.rows.append({"run": outcome.run, **row})
            result.runs.append(outcome)
            models.append((tag, outcome.run, outcome.best_iteration,
                           best_params, outcome.test_scores))

    if "evaluate" in stages:
        test_sets = {"test_a": corpora["a", "test"], "test_b": corpora["b", "test"]}
        per_metric = {}
        for tag, run, iteration, model, test_scores in models:
            for split, corpus in sorted(test_sets.items()):
                scores, hyps, hyps_unk = evaluate_on_corpus(
                    model, vocab, corpus, cfg.max_len, cfg.ggleu_max_n)
                test_scores[split] = scores
                _write_decoded(out_dir, tag, split, hyps, hyps_unk)
                for metric in sorted(scores):
                    result.rows.append({
                        "run": run, "iteration": iteration, "epoch": 0,
                        "split": split, "metric": metric,
                        "value": scores[metric]})
                    if run:  # the mean and std rows are over runs only
                        per_metric.setdefault((split, metric), []).append(
                            scores[metric])
        for (split, metric), values in sorted(per_metric.items()):
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            result.rows.append({"run": "mean", "iteration": 0, "epoch": 0,
                                "split": split, "metric": metric, "value": mean})
            result.rows.append({"run": "std", "iteration": 0, "epoch": 0,
                                "split": split, "metric": metric,
                                "value": math.sqrt(var)})

    if result.rows:
        result.metrics_path = write_metrics_csv(
            os.path.join(out_dir, metrics_name), result.rows)
    return result
