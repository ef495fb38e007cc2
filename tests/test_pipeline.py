import csv
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from banditseq.config import ConfigError, RunConfig, parse_config
from banditseq import pipeline
from banditseq.data import Corpus, gen_data
from banditseq.metrics import corpus_bleu, corpus_ggleu
from banditseq.model import END, START, UNK, Vocabulary
from banditseq.objectives import TrainingDiverged
from banditseq.pipeline import (
    _write_decoded,
    config_hash,
    derive_seed,
    evaluate_on_corpus,
    run_pipeline,
    train_mle,
    unk_replace,
    write_metrics_csv,
)


def tiny_run_config(out_dir, **kwargs):
    base = dict(
        src_vocab_size=12, overlap=0.75,
        train_a=60, valid_a=10, test_a=10,
        train_b=30, valid_b=8, test_b=8,
        min_sent_len=2, max_sent_len=4,
        embedding_size=6, hidden_size=8,
        mle_epochs=2, mle_batch=4, mle_alpha=5e-3,
        iters=10, valid_interval=5, runs=1,
        adam_alpha=1e-3, max_len=6, seed=3,
        out_dir=str(out_dir),
    )
    base.update(kwargs)
    return RunConfig(**base)


class TestUnkReplace:
    def test_no_unk_unchanged(self):
        tokens = ["x", "y"]
        attn = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
        assert unk_replace(tokens, attn, ["s1", "s2"]) == tokens

    def test_single_unk_takes_argmax_source(self):
        attn = [np.array([0.1, 0.7, 0.2])]
        assert unk_replace(["<unk>"], attn, ["s1", "s2", "s3"]) == ["s2"]

    def test_all_unk_copies_attended_sources(self):
        attn = [np.array([0.6, 0.4]), np.array([0.3, 0.7])]
        out = unk_replace(["<unk>", "<unk>"], attn, ["s1", "s2"])
        assert out == ["s1", "s2"]

    def test_tie_breaks_to_lowest_index(self):
        attn = [np.array([0.5, 0.5])]
        assert unk_replace(["<unk>"], attn, ["s1", "s2"]) == ["s1"]

    def test_missing_attention_rejected(self):
        with pytest.raises(ValueError, match="attention"):
            unk_replace(["x", "y"], [np.array([1.0])], ["s1"])


class TestEvaluateUnkScores:
    """The ``_unk`` scores come from the UNK-replaced outputs, and equal the
    plain ones where no UNK was replaced."""

    corpus = Corpus(pairs=[(["s1", "s2"], ["x", "s2"]), (["s3"], ["y"])],
                    domain="b", split="test")
    vocab = Vocabulary(["x", "y"])

    def _evaluate(self, monkeypatch, outputs):
        """evaluate_on_corpus with a decoder that emits ``outputs`` (token
        strings, then END), each attending to source position 1 (to 0 in
        a one-token source)."""
        def decode(sources, params, max_len, return_attention):
            assert return_attention
            decoded = []
            for src, tokens in zip(sources, outputs):
                ids = [START] + self.vocab.encode(tokens) + [END]
                attn = np.eye(len(src))[min(1, len(src) - 1)]
                decoded.append((ids, [attn] * len(ids)))
            return decoded

        monkeypatch.setattr(pipeline, "greedy_decode", decode)
        return evaluate_on_corpus(None, self.vocab, self.corpus, max_len=4)

    def test_replaced_outputs_score_on_their_own(self, monkeypatch):
        scores, hyps, hyps_unk = self._evaluate(
            monkeypatch, [["x", "s2"], ["y"]])
        assert self.vocab.id_of("s2") == UNK
        assert hyps == [["x", "<unk>"], ["y"]]
        assert hyps_unk == self.corpus.targets
        refs = self.corpus.targets
        assert scores == {"ggleu": corpus_ggleu(hyps, refs),
                          "bleu": corpus_bleu(hyps, refs),
                          "ggleu_unk": 1.0, "bleu_unk": 1.0}
        assert scores["ggleu"] == 0.5 and scores["bleu"] == 0.0

    def test_nothing_replaced_gives_the_plain_scores(self, monkeypatch):
        scores, hyps, hyps_unk = self._evaluate(monkeypatch, [["x"], ["y"]])
        assert hyps_unk == hyps == [["x"], ["y"]]
        assert list(scores) == ["ggleu", "bleu", "ggleu_unk", "bleu_unk"]
        assert scores["ggleu_unk"] == scores["ggleu"] == \
            corpus_ggleu(hyps, self.corpus.targets)
        assert scores["bleu_unk"] == scores["bleu"] == \
            corpus_bleu(hyps, self.corpus.targets)


class TestWriteMetricsCsv:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        row = {"run": 0, "iteration": 0, "epoch": 0, "split": "valid",
               "metric": "ggleu", "value": 0.5}
        write_metrics_csv(path, [row])
        before = path.read_bytes()
        rows = [row] * 1000 + [dict(row, value="not a number")]
        with pytest.raises(ValueError):
            write_metrics_csv(path, rows)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]


class TestWriteDecoded:
    def test_failed_write_keeps_previous_files(self, tmp_path):
        hyps = [["a", "b"], ["c"]]
        _write_decoded(tmp_path, "seed", "b", hyps, hyps)
        decoded = tmp_path / "decoded"
        names = sorted(os.listdir(decoded))
        before = [(decoded / name).read_bytes() for name in names]
        # the UNK-replaced outputs come last; a token that is not text
        # fails them after both files have many lines
        with pytest.raises(TypeError):
            _write_decoded(tmp_path, "seed", "b", hyps * 1000,
                           hyps * 1000 + [[1]])
        assert [(decoded / name).read_bytes() for name in names] == before
        assert names == ["seed.b.txt", "seed.b.unk.txt"]
        assert sorted(os.listdir(decoded)) == names


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(3, 7, 1) == derive_seed(3, 7, 1)

    def test_offsets_matter(self):
        assert derive_seed(3, 7, 1) != derive_seed(3, 7, 2)


class TestTrainMle:
    def test_memorizes_tiny_corpus_and_evaluation_hits_one(self):
        # five fixed sentences; enough updates to memorize them, after which
        # greedy decoding reproduces the references exactly and both corpus
        # metrics evaluate to 1.0
        pairs = [(["a"], ["x"]), (["b"], ["y"]), (["c"], ["z"]),
                 (["a", "b"], ["x", "y"]), (["c", "b"], ["z", "y"])]
        corpus = Corpus(pairs=pairs, domain="a", split="train")
        vocab = Vocabulary.from_corpus(corpus.sources + corpus.targets)
        cfg = RunConfig(embedding_size=8, hidden_size=8, mle_epochs=60,
                        mle_batch=5, mle_alpha=2e-2, max_len=4, seed=1)
        params, rows = train_mle(cfg, vocab, corpus, corpus)
        scores, hyps, _ = evaluate_on_corpus(params, vocab, corpus, 4)
        assert hyps == corpus.targets
        assert scores["ggleu"] == 1.0
        assert scores["bleu"] == 1.0
        assert rows[-1]["metric"] in ("ggleu", "bleu", "ggleu_unk",
                                      "bleu_unk", "mle_loss")

    def test_dropout_is_seeded_and_changes_training(self):
        pairs = [(["a", "b"], ["x", "y"]), (["c"], ["z"]), (["b"], ["y"])]
        corpus = Corpus(pairs=pairs, domain="a", split="train")
        vocab = Vocabulary.from_corpus(corpus.sources + corpus.targets)
        trained = {}
        for name, rate in (("first", 0.3), ("rerun", 0.3), ("plain", 0.0)):
            cfg = RunConfig(embedding_size=6, hidden_size=6, mle_epochs=2,
                            mle_batch=2, mle_alpha=1e-2, max_len=4, seed=5,
                            dropout=rate)
            params, _ = train_mle(cfg, vocab, corpus, corpus)
            trained[name] = params.copy_values()
        for name, value in trained["first"].items():
            assert value.tobytes() == trained["rerun"][name].tobytes()
        assert any(not np.array_equal(value, trained["plain"][name])
                   for name, value in trained["first"].items())


    @pytest.mark.parametrize("scores", [{"bleu": 0.5},
                                        {"ggleu": float("nan")}])
    def test_validator_without_usable_ggleu_rejected(self, pinned_seed,
                                                     monkeypatch, scores):
        cfg, corpora, vocab, _, _ = pinned_seed
        monkeypatch.setattr(pipeline, "_make_validator",
                            lambda *args: lambda params: scores)
        with pytest.raises(ValueError, match="'ggleu'"):
            train_mle(cfg, vocab, corpora["a", "train"], corpora["a", "valid"])

    def test_divergence_names_update_and_epoch(self, monkeypatch):
        # 5 sentences in batches of 2: updates 1-3 are epoch 1, and the
        # first sentence of update 4 is the seventh scored
        pairs = [([w], [w]) for w in "abcde"]
        corpus = Corpus(pairs=pairs, domain="a", split="train")
        vocab = Vocabulary.from_corpus(corpus.sources + corpus.targets)
        cfg = RunConfig(embedding_size=4, hidden_size=4, mle_epochs=2,
                        mle_batch=2, max_len=3, seed=1)
        scored = []
        loss_and_grad = pipeline.mle_loss_and_grad

        def poisoned(*args, **kwargs):
            scored.append(1)
            loss, grads = loss_and_grad(*args, **kwargs)
            if len(scored) == 7:
                grads = {name: g * np.nan for name, g in grads.items()}
            return loss, grads

        monkeypatch.setattr(pipeline, "mle_loss_and_grad", poisoned)
        with pytest.raises(TrainingDiverged,
                           match=r"^non-finite gradient at MLE update 4 "
                                 r"\(epoch 2\)$"):
            train_mle(cfg, vocab, corpus, corpus)


class TestRunPipeline:
    def test_full_tiny_pipeline_artifacts(self, tmp_path):
        cfg = tiny_run_config(tmp_path / "out")
        result = run_pipeline(cfg)
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
        assert not (out / "vocab.txt").exists()
        assert (out / "checkpoints" / "mle.bnsq").exists()
        assert (out / "checkpoints" / "el-none-run1.bnsq").exists()
        assert (out / "decoded" / "seed.test_b.txt").exists()
        assert (out / "decoded" / "el-none-run1.test_b.unk.txt").exists()
        assert result.seed_test_scores["test_b"]["ggleu"] >= 0.0
        assert len(result.runs) == 1
        # oracle consulted exactly once per bandit update
        assert result.runs[0].oracle_calls == cfg.iters

    def test_metrics_csv_schema(self, tmp_path):
        cfg = tiny_run_config(tmp_path / "out")
        result = run_pipeline(cfg)
        with open(result.metrics_path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["run", "iteration", "epoch", "split",
                                         "metric", "value"]
            rows = list(reader)
        metrics = {r["metric"] for r in rows}
        assert {"ggleu", "bleu", "mean_feedback", "grad_norm"} <= metrics
        runs = {r["run"] for r in rows}
        assert {"0", "1", "mean", "std"} <= runs

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for name in ("one", "two"):
            cfg = tiny_run_config(tmp_path / name)
            result = run_pipeline(cfg)
            blobs.append(open(result.metrics_path, "rb").read())
        assert blobs[0] == blobs[1]

    def test_stage_subset_with_seed_checkpoint(self, tmp_path):
        first = tiny_run_config(tmp_path / "one")
        run_pipeline(first)
        second = tiny_run_config(
            tmp_path / "two",
            data_dir=str(tmp_path / "one" / "data"),
            seed_checkpoint=str(tmp_path / "one" / "checkpoints" / "mle.bnsq"),
            stages="train-bandit,evaluate",
            objective="pr", pair_feedback="bin", iters=4,
        )
        result = run_pipeline(second)
        assert len(result.runs) == 1
        assert (tmp_path / "two" / "checkpoints" / "pr-none-run1.bnsq").exists()

    def test_config_hash_covers_settings_not_paths(self, tmp_path):
        cfg = tiny_run_config(tmp_path / "out")
        moved = tiny_run_config(tmp_path / "elsewhere", stages="train-mle",
                                data_dir="d", seed_checkpoint="s.bnsq")
        assert config_hash(moved) == config_hash(cfg)
        assert config_hash(tiny_run_config(tmp_path / "out", hidden_size=9)) \
            != config_hash(cfg)

    def test_missing_data_is_config_error(self, tmp_path):
        cfg = tiny_run_config(tmp_path / "out", stages="train-mle")
        with pytest.raises(ConfigError, match="missing corpus"):
            run_pipeline(cfg)

    def test_mle_objective_rejected_for_bandit(self):
        with pytest.raises(ConfigError, match="objective"):
            parse_config("objective = mle\n")

    def test_unknown_stage_rejected(self, tmp_path):
        # rejected when the config is built, before a stage can run
        with pytest.raises(ConfigError, match="unknown stages"):
            tiny_run_config(tmp_path / "out", stages="gen-data,fly-to-moon")
        with pytest.raises(ConfigError, match="'fly'"):
            parse_config("stages = gen-data,fly\n")
        # train-mle builds the vocabulary; no stage of its own does
        with pytest.raises(ConfigError, match="'build-vocab'"):
            parse_config("stages = gen-data,build-vocab\n")
        assert not (tmp_path / "out").exists()

    def test_gen_data_only_writes_corpora(self, tmp_path):
        cfg = tiny_run_config(tmp_path / "out", stages="gen-data")
        result = run_pipeline(cfg)
        assert (tmp_path / "out" / "data" / "b.train.tgt").exists()
        assert result.runs == []


def _training_digest(values, rows, best_iteration=None):
    """SHA-256 of a training result: every parameter's bytes in name
    order, then the metric rows and the selected iteration."""
    h = hashlib.sha256()
    for name in sorted(values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(values[name]).tobytes())
    h.update(repr((rows, best_iteration)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pinned_seed(tmp_path_factory):
    """A 2-epoch MLE seed on the tiny task, with its corpora and vocab."""
    cfg = tiny_run_config(tmp_path_factory.mktemp("pinned"), iters=30,
                          valid_interval=10)
    corpora = gen_data(cfg)
    train_a = corpora["a", "train"]
    vocab = Vocabulary.from_corpus(train_a.sources + train_a.targets)
    params, rows = train_mle(cfg, vocab, train_a, corpora["a", "valid"])
    return cfg, corpora, vocab, params, rows


class TestTrainingPinned:
    """The training path runs batch-of-one roll-outs only, and validation
    selects on batched greedy decodes of whole corpora; a change to how a
    corpus is decoded must leave every number here as it is."""

    def test_train_mle(self, pinned_seed):
        _, _, _, params, rows = pinned_seed
        assert _training_digest(params.copy_values(), rows) == \
            "350571ce957ed9ce52a5ebbc6b02726717d7ea8bfcbd5ac93d921f92de4685ac"

    @pytest.mark.parametrize("objective,cv_mode,digest", [
        ("el", "baseline",
         "278af26cc3ed8e45e630bc25fe193db48a4619760acb29873e3c09f0c2f6cff4"),
        ("pr", "sf",
         "0f1ef7416a2fcafaf1b8339edbe138918897cceb545cb6ef3111e87fa0456c02"),
    ])
    def test_bandit_train_loop(self, pinned_seed, objective, cv_mode,
                               digest):
        cfg, corpora, vocab, params, _ = pinned_seed
        cfg = replace(cfg, objective=objective, cv_mode=cv_mode)
        outcome, best = pipeline._train_bandit_run(
            cfg, vocab, params.copy_values(), corpora, 0)
        assert _training_digest(best.copy_values(), outcome.rows,
                                outcome.best_iteration) == digest

    def test_train_mle_dropout_partial_batch(self, pinned_seed):
        """Dropout's draw order and a last minibatch of 4 of 60 sentences,
        which the batches of 4 above never reach."""
        cfg, corpora, vocab, _, _ = pinned_seed
        cfg = replace(cfg, dropout=0.3, mle_batch=7)
        params, rows = train_mle(cfg, vocab, corpora["a", "train"],
                                 corpora["a", "valid"])
        assert _training_digest(params.copy_values(), rows) == \
            "16664fb7f7349d3cf508884db114f5183522b18d65b86cd4217221b788f97982"

    def test_bandit_train_loop_sgd_clipped(self, pinned_seed):
        """The SGD step, its decay, and a clip that binds on every update."""
        cfg, corpora, vocab, params, _ = pinned_seed
        cfg = replace(cfg, objective="el", cv_mode="none", optimizer="sgd",
                      sgd_decay=0.5, adam_alpha=1.0, clip_norm=1e-3)
        outcome, best = pipeline._train_bandit_run(
            cfg, vocab, params.copy_values(), corpora, 0)
        assert _training_digest(best.copy_values(), outcome.rows,
                                outcome.best_iteration) == \
            "594f96bc710c2fd4a27a16a21bc9196be7778919651c8d2cf5a2e58fe49d2488"
