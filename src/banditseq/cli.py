"""Command-line entry points.

Subcommands map onto pipeline stages plus two inspection tools:

    gen-data     write the synthetic corpora
    build-vocab  build and save the vocabulary
    train-mle    supervised pretraining (the seed model)
    train-bandit adaptation from weak feedback
    evaluate     score a checkpoint on both test sets
    sample       print sampled outputs (or pairs) from a checkpoint
    grad-check   finite-difference check of the model gradient
    pipeline     run all configured stages in one go

Common flags: --config <path>, --seed <int>, --out <dir>. Flags override
config-file keys.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint
from .config import ConfigError, load_config, parse_config
from .model import ModelParams, sample_pair, sample_sequence, \
    sequence_log_prob
from .objectives import TrainingConfig, TrainingDiverged
from .autodiff import finite_difference_check
from . import pipeline as pl


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", help="output directory")


def _load_cfg(args, extra=None):
    overrides = {"seed": getattr(args, "seed", None),
                 "out_dir": getattr(args, "out", None)}
    if extra:
        overrides.update(extra)
    if args.config:
        return load_config(args.config, overrides=overrides)
    return parse_config("", overrides=overrides)


def _stage_cfg(args, stages, extra=None):
    cfg = _load_cfg(args, extra)
    cfg.stages = stages
    return cfg


def cmd_gen_data(args):
    pl.run_pipeline(_stage_cfg(args, "gen-data"))
    return 0


def cmd_build_vocab(args):
    cfg = _stage_cfg(args, "build-vocab")
    result = pl.run_pipeline(cfg)
    print(f"vocabulary of {len(result.vocab)} tokens written to "
          f"{result.out_dir}/vocab.txt")
    return 0


def cmd_train_mle(args):
    cfg = _stage_cfg(args, "build-vocab,train-mle")
    result = pl.run_pipeline(cfg)
    print(f"seed checkpoint written to {result.seed_checkpoint_path}")
    return 0


def cmd_train_bandit(args):
    extra = {"objective": args.objective, "cv_mode": args.cv,
             "pair_feedback": args.pair_feedback, "iters": args.iters,
             "adam_alpha": args.alpha}
    cfg = _stage_cfg(args, "train-bandit,evaluate", extra)
    result = pl.run_pipeline(cfg)
    for outcome in result.runs:
        scores = outcome.test_scores.get("test_b", {})
        print(f"run {outcome.run}: best iteration {outcome.best_iteration}, "
              f"domain-B test ggleu {scores.get('ggleu', float('nan')):.4f}")
    print(f"metrics written to {result.metrics_path}")
    return 0


def cmd_evaluate(args):
    cfg = _load_cfg(args)
    ckpt_path = args.checkpoint or cfg.seed_checkpoint
    if not ckpt_path:
        raise ConfigError("evaluate needs --checkpoint or seed_checkpoint")
    cfg.seed_checkpoint = ckpt_path
    cfg.stages = "evaluate"
    result = pl.run_pipeline(cfg)
    for split in sorted(result.seed_test_scores):
        scores = result.seed_test_scores[split]
        line = ", ".join(f"{m}={scores[m]:.4f}" for m in sorted(scores))
        print(f"{split}: {line}")
    print(f"metrics written to {result.metrics_path}")
    return 0


def cmd_sample(args):
    cfg = _load_cfg(args)
    ckpt = load_checkpoint(args.checkpoint)
    params = ckpt.to_model()
    vocab = ckpt.vocab
    rng = np.random.default_rng(cfg.seed)
    with open(args.input, encoding="utf-8") as fh:
        sentences = [line.split() for line in fh if line.strip()]
    for tokens in sentences:
        ids = vocab.encode(tokens)
        print("# " + " ".join(tokens))
        for _ in range(args.n):
            if args.pairs:
                pair = sample_pair(ids, params, cfg.max_len, rng)
                pos = " ".join(vocab.decode(pair.tokens_pos))
                neg = " ".join(vocab.decode(pair.tokens_neg))
                print(f"{pair.log_prob:.4f}\t{pos}\t|\t{neg} (i={pair.position})")
            else:
                sample = sample_sequence(ids, params, cfg.max_len, rng)
                print(f"{sample.log_prob:.4f}\t"
                      + " ".join(vocab.decode(sample.tokens)))
    return 0


def cmd_grad_check(args):
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    vocab_size = args.tokens + 3
    params = ModelParams(vocab_size, embed_size=args.embed,
                         hidden_size=args.hidden,
                         seed=args.seed if args.seed is not None else 0)
    source = [int(rng.integers(3, vocab_size)) for _ in range(3)]
    target = [int(rng.integers(3, vocab_size)) for _ in range(2)] + [1]

    def f(tensors):
        return sequence_log_prob(source, target, params)

    report = finite_difference_check(f, params.tensors, step=args.step,
                                     tolerance=args.tolerance)
    for name in sorted(report.per_param):
        print(f"{name:16s} max rel err {report.per_param[name]:.3e}")
    print(f"overall {report.max_rel_error:.3e} "
          f"({'PASS' if report.passed else 'FAIL'} at {report.tolerance:g})")
    return 0 if report.passed else 1


def cmd_pipeline(args):
    cfg = _load_cfg(args)
    result = pl.run_pipeline(cfg)
    if result.metrics_path:
        print(f"metrics written to {result.metrics_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="banditseq",
        description="sequence-to-sequence learning from bandit feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "gen-data": cmd_gen_data,
        "build-vocab": cmd_build_vocab,
        "train-mle": cmd_train_mle,
        "evaluate": cmd_evaluate,
        "pipeline": cmd_pipeline,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "evaluate":
            p.add_argument("--checkpoint", help="checkpoint to evaluate")

    p = sub.add_parser("train-bandit")
    _add_common(p)
    p.add_argument("--objective", choices=TrainingConfig.OBJECTIVES)
    p.add_argument("--cv", choices=TrainingConfig.CV_MODES)
    p.add_argument("--pair-feedback", dest="pair_feedback",
                   choices=["bin", "cont"])
    p.add_argument("--iters", type=int)
    p.add_argument("--alpha", type=float)
    p.set_defaults(fn=cmd_train_bandit)

    p = sub.add_parser("sample")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="file of whitespace-tokenized source sentences")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--pairs", action="store_true")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("grad-check")
    _add_common(p)
    p.add_argument("--tokens", type=int, default=3,
                   help="regular (non-reserved) vocabulary size")
    p.add_argument("--embed", type=int, default=4)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_grad_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointFormatError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
