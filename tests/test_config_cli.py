import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from banditseq import pipeline
from banditseq.checkpoint import Checkpoint, save_checkpoint
from banditseq.cli import main
from banditseq.config import ConfigError, RunConfig, format_config, \
    load_config, parse_config
from banditseq.model import ModelParams, Vocabulary


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.embedding_size == 32
        assert cfg.hidden_size == 64
        assert cfg.clip_norm == 1.0
        assert cfg.objective == "el"
        assert cfg.baseline_includes_current is True

    def test_values_comments_blank_lines(self):
        cfg = parse_config(
            "# a comment\n"
            "\n"
            "hidden_size = 16   # trailing comment\n"
            "adam_alpha = 2e-4\n"
            "swap_b = false\n"
            "objective = pr\n"
        )
        assert cfg.hidden_size == 16
        assert cfg.adam_alpha == 2e-4
        assert cfg.swap_b is False
        assert cfg.objective == "pr"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("hiden_size = 16\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("iters = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_bool_spellings(self):
        for text, expected in (("yes", True), ("0", False), ("on", True)):
            assert parse_config(f"swap_a = {text}\n").swap_a is expected

    def test_pair_feedback_normalized(self):
        assert parse_config("pair_feedback = bin\n").pair_feedback == "binary"
        assert parse_config("pair_feedback = cont\n").pair_feedback \
            == "continuous"

    def test_invalid_enum_values(self):
        with pytest.raises(ConfigError):
            parse_config("objective = risk\n")
        with pytest.raises(ConfigError):
            parse_config("cv_mode = magic\n")

    @pytest.mark.parametrize("key,value", [
        ("mle_batch", 0), ("max_len", 0), ("ggleu_max_n", 0),
        ("embedding_size", 0), ("hidden_size", -1), ("mle_epochs", -1),
        ("dropout", 1.0), ("dropout", -0.1), ("sgd_decay", -1.0),
        ("adam_alpha", 0.0), ("mle_alpha", -1e-3), ("adam_beta1", 1.0),
        ("adam_beta2", 1.0), ("adam_beta1", -0.1), ("adam_eps", 0.0),
        ("adam_alpha", float("nan")),
    ])
    def test_out_of_range_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("text,key", [
        ("overlap = 1.5", "overlap"),
        ("min_sent_len = 9\nmax_sent_len = 8", "min_sent_len"),
        ("train_b = 0", "train_b"),
        ("src_vocab_size = 20\noverlap = 0.95", "bijection"),  # band of 1
        ("band_weight_b = 1.5", "band_weight_b"),
        ("band_weight_a = -2", "band_weight_a"),
        ("band_weight_b = nan", "band_weight_b"),
    ], ids=["overlap", "sent_len_order", "split_size", "band_of_one",
            "band_weight_above_one", "band_weight_negative",
            "band_weight_nan"])
    def test_bad_task_key_rejected_when_parsed(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(text + "\n")

    def test_overrides_win(self):
        cfg = parse_config("seed = 1\n", overrides={"seed": 5})
        assert cfg.seed == 5

    def test_format_round_trip(self):
        cfg = RunConfig(hidden_size=24, overlap=0.5, swap_a=False)
        again = parse_config(format_config(cfg))
        assert again == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 77\n")
        assert load_config(path).seed == 77

    def test_readme_lists_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = re.search(r"^## Config format\n(.*?)^## ", text,
                            re.S | re.M).group(1)
        listed = set(re.findall(r"`([a-z0-9_]+)`", section))
        missing = [f.name for f in fields(RunConfig) if f.name not in listed]
        assert not missing, f"README config section lacks {missing}"


@pytest.fixture
def small_cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "src_vocab_size = 12\n"
        "overlap = 0.75\n"
        "train_a = 30\nvalid_a = 8\ntest_a = 8\n"
        "train_b = 16\nvalid_b = 6\ntest_b = 6\n"
        "min_sent_len = 2\nmax_sent_len = 4\n"
        "embedding_size = 4\nhidden_size = 6\n"
        "mle_epochs = 1\nmle_batch = 4\n"
        "iters = 6\nvalid_interval = 3\nruns = 1\n"
        "max_len = 6\nseed = 3\n"
    )
    return path


class TestCli:
    def test_gen_data_and_build_vocab(self, small_cfg_file, tmp_path,
                                      capsys):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 0
        assert (out / "data" / "a.train.src").exists()
        assert main(["build-vocab", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 0
        assert "vocabulary of" in capsys.readouterr().out
        assert (out / "vocab.txt").exists()

    def test_grad_check_passes(self, capsys):
        assert main(["grad-check", "--tokens", "3", "--embed", "3",
                     "--hidden", "3", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert main(["gen-data", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("line", ["band_weight_b = 1.5",
                                      "band_weight_a = -2",
                                      "band_weight_a = nan"])
    def test_band_weight_out_of_range_exits_2(self, small_cfg_file, tmp_path,
                                              capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(small_cfg_file.read_text() + line + "\n")
        assert main(["gen-data", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_mle_batch_is_config_error(self, small_cfg_file, tmp_path,
                                            capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(small_cfg_file.read_text() + "mle_batch = 0\n")
        assert main(["train-mle", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "mle_batch" in capsys.readouterr().err

    def test_sample_command(self, small_cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["gen-data", "--config", str(small_cfg_file), "--out", str(out)])
        main(["train-mle", "--config", str(small_cfg_file), "--out",
              str(out)])
        src_file = out / "data" / "b.test.src"
        assert main(["sample", "--checkpoint",
                     str(out / "checkpoints" / "mle.bnsq"),
                     "--input", str(src_file), "--n", "2", "--seed", "4"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("#") == 6
        assert main(["sample", "--checkpoint",
                     str(out / "checkpoints" / "mle.bnsq"),
                     "--input", str(src_file), "--n", "1", "--pairs",
                     "--seed", "4"]) == 0

    @pytest.mark.parametrize("broken", ["missing att.v", "mis-shaped dec.Wz",
                                        "rank-0 out.b"])
    def test_checkpoint_not_fitting_model_exits_3(self, tmp_path, capsys,
                                                  broken):
        vocab = Vocabulary(["aa", "bb", "cc"])
        tensors = ModelParams(len(vocab), 3, 2, seed=0).copy_values()
        name = broken.split()[1]
        if broken.startswith("missing"):
            del tensors[name]
        elif broken.startswith("rank-0"):
            tensors[name] = np.float64(0.0)
        else:
            tensors[name] = np.zeros((2, 4))
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, Checkpoint(vocab=vocab, tensors=tensors))
        src_file = tmp_path / "in.txt"
        src_file.write_text("aa bb\n")
        assert main(["sample", "--checkpoint", str(path), "--input",
                     str(src_file)]) == 3
        assert name in capsys.readouterr().err

    def test_missing_checkpoint_is_config_error(self, small_cfg_file,
                                                tmp_path):
        out = tmp_path / "out"
        main(["gen-data", "--config", str(small_cfg_file), "--out", str(out)])
        code = main(["train-bandit", "--config", str(small_cfg_file),
                     "--out", str(out), "--iters", "2"])
        assert code == 2  # no seed checkpoint yet

    def test_seed_checkpoint_same_staged_or_whole(self, small_cfg_file,
                                                  tmp_path):
        # the config hash covers the settings, not where files go or which
        # stages one invocation runs
        cfg = str(small_cfg_file)
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        assert main(["gen-data", "--config", cfg, "--out", str(staged)]) == 0
        assert main(["train-mle", "--config", cfg, "--out", str(staged)]) == 0
        assert main(["pipeline", "--config", cfg, "--out", str(whole)]) == 0
        seed = Path("checkpoints") / "mle.bnsq"
        assert (staged / seed).read_bytes() == (whole / seed).read_bytes()

    def test_pipeline_train_bandit_evaluate(self, small_cfg_file, tmp_path,
                                            capsys):
        cfg, out = str(small_cfg_file), tmp_path / "out"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            f"metrics written to {out}/metrics.csv\n"

        assert main(["train-bandit", "--config", cfg, "--out", str(out),
                     "--objective", "pr", "--cv", "sf", "--pair-feedback",
                     "bin", "--iters", "4"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"run 1: best iteration \d+, domain-B test "
                            r"ggleu \d\.\d{4}", printed[0])
        assert printed[1:] == [f"metrics written to {out}/metrics.pr-sf.csv"]

        # evaluating a checkpoint on its own replaces no file written before
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        ckpt = out / "checkpoints" / "pr-sf-run1.bnsq"
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 0
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert [p for p, blob in before.items() if after[p] != blob] == []
        written = out / "metrics.pr-sf-run1.csv"
        assert set(after) - set(before) == {written}
        assert len(written.read_text().splitlines()) == 9
        printed = capsys.readouterr().out.splitlines()
        metric = r"=\d\.\d{4}"
        for line, split in zip(printed, ("test_a", "test_b")):
            assert re.fullmatch(f"{split}: bleu{metric}, bleu_unk{metric}, "
                                f"ggleu{metric}, ggleu_unk{metric}", line)
        assert printed[2:] == [f"metrics written to {written}"]

    def test_readme_stage_by_stage_flow(self, small_cfg_file, tmp_path,
                                        capsys):
        # each stage command keeps the metric rows the earlier ones wrote
        cfg, out = str(small_cfg_file), tmp_path / "out"
        common = ["--config", cfg, "--out", str(out)]

        def metrics_files():
            return {p.name: p.read_bytes() for p in out.glob("metrics*.csv")}

        assert main(["gen-data", *common]) == 0
        assert main(["build-vocab", *common]) == 0
        assert metrics_files() == {}
        assert main(["train-mle", *common]) == 0
        kept = metrics_files()
        assert list(kept) == ["metrics.csv"]
        assert b",mle_loss," in kept["metrics.csv"]
        for objective, cv in (("el", "baseline"), ("pr", "sf")):
            capsys.readouterr()
            assert main(["train-bandit", *common, "--objective", objective,
                         "--cv", cv, "--iters", "2"]) == 0
            name = f"metrics.{objective}-{cv}.csv"
            assert capsys.readouterr().out.splitlines()[-1] == \
                f"metrics written to {out / name}"
            written = metrics_files()
            assert set(written) == {*kept, name}
            assert {n: written[n] for n in kept} == kept
            kept = written
        assert main(["evaluate", *common, "--checkpoint",
                     str(out / "checkpoints" / "el-baseline-run1.bnsq")]) == 0
        written = metrics_files()
        assert set(written) == {*kept, "metrics.el-baseline-run1.csv"}
        assert {n: written[n] for n in kept} == kept

    def test_non_finite_mle_gradient_exits_4(self, small_cfg_file, tmp_path,
                                             capsys, monkeypatch):
        cfg, out = str(small_cfg_file), tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        loss_and_grad = pipeline.mle_loss_and_grad

        def nan_gradient(*args, **kwargs):
            loss, grads = loss_and_grad(*args, **kwargs)
            grads["out.b"] = grads["out.b"] * np.nan
            return loss, grads

        monkeypatch.setattr(pipeline, "mle_loss_and_grad", nan_gradient)
        assert main(["train-mle", "--config", cfg, "--out", str(out)]) == 4
        assert "non-finite gradient at MLE update 1" in capsys.readouterr().err
        assert not (out / "checkpoints" / "mle.bnsq").exists()
