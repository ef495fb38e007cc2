"""Command-line entry points.

Subcommands map onto pipeline stages plus one inspection tool:

    gen-data     write the synthetic corpora
    train-mle    supervised pretraining (the seed model)
    train-bandit adaptation from weak feedback
    evaluate     score a checkpoint on both test sets
    sample       print sampled outputs (or pairs) from a checkpoint
    pipeline     run all four stages in one go

Common flags: --config <path> and --seed <int>, --out <dir> on the stage
commands and pipeline. Flags override config keys.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint
from .config import ConfigError, RunConfig, load_config, parse_config
from .data import read_sentences
from .model import pair_log_prob, sample_pair, sample_sequence, \
    sequence_log_prob
from .objectives import TrainingConfig, TrainingDiverged
from . import pipeline as pl


def _add_common(parser, out=True):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    if out:
        parser.add_argument("--out", dest="out_dir", metavar="OUT",
                            help="output directory")


def _load_cfg(args):
    """The config file's run config, overridden by every flag whose
    destination is a config key."""
    keys = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    if args.config:
        return load_config(args.config, overrides=overrides)
    return parse_config("", overrides=overrides)


def _positive_int(text):
    """An argparse type: an int above zero."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return int(text)


_positive_int.__name__ = "int"  # argparse names it in "invalid int value"


def cmd_train_mle(args):
    result = pl.run_pipeline(_load_cfg(args), args.stages)
    print(f"seed checkpoint written to {result.seed_checkpoint_path}")


def cmd_train_bandit(args):
    result = pl.run_pipeline(_load_cfg(args), args.stages)
    for outcome in result.runs:
        scores = outcome.test_scores.get("test_b", {})
        print(f"run {outcome.run}: best iteration {outcome.best_iteration}, "
              f"domain-B test ggleu {scores.get('ggleu', float('nan')):.4f}")
    print(f"metrics written to {result.metrics_path}")


def cmd_evaluate(args):
    cfg = _load_cfg(args)
    if not cfg.seed_checkpoint:
        raise ConfigError("evaluate needs --checkpoint or seed_checkpoint")
    result = pl.run_pipeline(cfg, args.stages)
    for split in sorted(result.seed_test_scores):
        scores = result.seed_test_scores[split]
        line = ", ".join(f"{m}={scores[m]:.4f}" for m in sorted(scores))
        print(f"{split}: {line}")
    print(f"metrics written to {result.metrics_path}")


def cmd_sample(args):
    cfg = _load_cfg(args)
    ckpt = load_checkpoint(args.checkpoint)
    params = ckpt.to_model()
    vocab = ckpt.vocab
    rng = np.random.default_rng(cfg.seed)
    try:
        sentences = [tokens for tokens in read_sentences(args.input) if tokens]
    except ValueError as exc:  # not UTF-8
        raise ConfigError(str(exc)) from None
    for tokens in sentences:
        ids = vocab.encode(tokens)
        print("# " + " ".join(tokens))
        for _ in range(args.n):
            if args.pairs:
                pair = sample_pair(ids, params, cfg.max_len, rng)
                lp = sum(t.data for t in pair_log_prob(ids, pair, params))
                pos = " ".join(vocab.decode(pair.tokens_pos))
                neg = " ".join(vocab.decode(pair.tokens_neg))
                print(f"{lp:.4f}\t{pos}\t|\t{neg} (i={pair.position})")
            else:
                sample = sample_sequence(ids, params, cfg.max_len, rng)
                lp = sequence_log_prob(ids, sample.tokens, params,
                                       forward=sample.forward).data
                print(f"{lp:.4f}\t" + " ".join(vocab.decode(sample.tokens)))


def cmd_pipeline(args):
    result = pl.run_pipeline(_load_cfg(args), args.stages)
    if result.metrics_path:
        print(f"metrics written to {result.metrics_path}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="banditseq",
        description="sequence-to-sequence learning from bandit feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "gen-data": (cmd_pipeline, ("gen-data",)),
        "train-mle": (cmd_train_mle, ("train-mle",)),
        "evaluate": (cmd_evaluate, ("evaluate",)),
        "pipeline": (cmd_pipeline, pl.STAGES),
    }
    for name, (fn, stages) in commands.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn, stages=stages)
        if name == "evaluate":
            p.add_argument("--checkpoint", dest="seed_checkpoint",
                           metavar="CHECKPOINT", help="checkpoint to evaluate")

    p = sub.add_parser("train-bandit")
    _add_common(p)
    p.add_argument("--objective", choices=TrainingConfig.OBJECTIVES)
    p.add_argument("--cv", dest="cv_mode", choices=TrainingConfig.CV_MODES)
    p.add_argument("--pair-feedback", dest="pair_feedback",
                   choices=["bin", "cont"])
    p.add_argument("--iters", type=int)
    p.add_argument("--alpha", dest="adam_alpha", metavar="ALPHA", type=float)
    p.set_defaults(fn=cmd_train_bandit, stages=("train-bandit", "evaluate"))

    p = sub.add_parser("sample")
    _add_common(p, out=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="file of whitespace-tokenized source sentences")
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--pairs", action="store_true")
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except CheckpointFormatError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
