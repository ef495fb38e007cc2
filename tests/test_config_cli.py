import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import banditseq
from banditseq import cli, pipeline
from banditseq.checkpoint import Checkpoint, save_checkpoint
from banditseq.cli import build_parser, main
from banditseq.config import ConfigError, RunConfig, format_config, \
    load_config, parse_config
from banditseq.model import ModelParams, Vocabulary
from banditseq.objectives import OptimizerState, TrainingConfig

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_key_given_twice_rejected(self):
        with pytest.raises(ConfigError,
                           match="line 3: key 'iters' given twice"):
            parse_config("iters = 5\nseed = 2\niters = 7\n")
        # a flag still overrides the file's one value
        assert parse_config("iters = 5\n", overrides={"iters": 7}).iters == 7

    def test_built_configs_are_frozen(self):
        cfg = parse_config("")
        for obj, key, value in ((cfg, "objective", "pr"),
                                (cfg, "seed_checkpoint", "m.bnsq"),
                                (cfg.training_config(), "iters", 5)):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, key, value)
        assert cfg == parse_config("")

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
        ("dropout", 1.0), ("dropout", -0.1),
        ("adam_alpha", 0.0), ("mle_alpha", -1e-3), ("adam_beta1", 1.0),
        ("adam_beta2", 1.0), ("adam_beta1", -0.1), ("adam_eps", 0.0),
        ("adam_alpha", float("nan")), ("iters", -1), ("valid_interval", 0),
        ("clip_norm", 0.0), ("clip_norm", float("nan")),
        ("optimizer", "rmsprop"), ("cv_mode", "antithetic"),
        ("objective", "mle"), ("vocab_cutoff", 0), ("vocab_cutoff", -2),
        ("seed", -1),
    ])
    def test_out_of_range_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("text", ["stages =\n", "stages = ,\n"])
    def test_empty_stages_rejected(self, text):
        # the command picks the stages; no config key does
        with pytest.raises(ConfigError, match="unknown key 'stages'"):
            parse_config(text)

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

    def test_training_config_maps_every_field(self):
        cfg = RunConfig(objective="pr", cv_mode="sf",
                        iters=7, valid_interval=3, clip_norm=2.5,
                        adam_alpha=3e-4, adam_beta1=0.8, adam_beta2=0.99,
                        adam_eps=1e-7, baseline_includes_current=False,
                        max_len=11)
        train_cfg = cfg.training_config(seed=5, epoch_size=9)
        assert (train_cfg.seed, train_cfg.epoch_size) == (5, 9)
        renamed = {"alpha": "adam_alpha", "beta1": "adam_beta1",
                   "beta2": "adam_beta2", "eps": "adam_eps"}
        # the run's own, and the fields the loop never reads
        # (tests/test_bench_names.py)
        for f in fields(TrainingConfig):
            if f.name in ("seed", "epoch_size", "pair_feedback", "optimizer",
                          "sgd_decay"):
                continue
            value = getattr(train_cfg, f.name)
            # a field left at its default may have been copied from nowhere
            assert value != f.default, f.name
            assert value == getattr(cfg, renamed.get(f.name, f.name)), f.name

    def test_loop_settings_have_their_defaults_in_run_config_only(self):
        # a loop built by hand names every setting a run config holds;
        # only the run's own and the benchmark-only fields have defaults
        defaulted = {f.name for f in fields(TrainingConfig)
                     if f.default is not MISSING}
        assert defaulted == {"pair_feedback", "seed", "optimizer",
                             "sgd_decay", "epoch_size"}
        with pytest.raises(TypeError, match="11 required keyword-only"):
            TrainingConfig()
        signature = inspect.signature(OptimizerState.for_params)
        assert [p.default for p in signature.parameters.values()] == \
            [inspect.Parameter.empty] * 5

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
        text = README.read_text(encoding="utf-8")
        section = re.search(r"^## Config format\n(.*?)^## ", text,
                            re.S | re.M).group(1)
        listed = set(re.findall(r"`([a-z0-9_-]+)`", section))
        names = [f.name for f in fields(RunConfig)]
        missing = [name for name in names if name not in listed]
        assert not missing, f"README config section lacks {missing}"

    def test_readme_library_example_runs(self):
        (example,) = re.findall(r"^```python\n(.*?)^```\n",
                                README.read_text(encoding="utf-8"),
                                re.S | re.M)
        namespace = {}
        exec(compile(example, "README.md", "exec"), namespace)
        params = namespace["params"]
        assert namespace["grads"].shape == params.vector.shape
        assert namespace["named"].keys() == params.tensors.keys()
        # every name the example imports is used in it
        tree = ast.parse(example)
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported and imported <= used, imported - used


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
        # train-mle builds the vocabulary; there is no command of its own
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab", "--config", str(small_cfg_file),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'build-vocab'" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["data"]

    def test_grad_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--seed", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'grad-check'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,error", [
        (["sample", "--checkpoint", "c", "--input", "i", "--out", "y"],
         "unrecognized arguments: --out y"),
        (["sample", "--checkpoint", "c", "--input", "i", "--n", "0"],
         "argument --n: must be > 0"),
    ], ids=["sample --out", "sample --n 0"])
    def test_flag_a_command_does_not_read_is_usage_error(self, capsys, argv,
                                                          error):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["config", "checkpoint", "input"])
    def test_missing_input_file_exits_2_naming_it(self, tmp_path, capsys,
                                                  missing):
        vocab = Vocabulary(["aa", "bb"])
        ckpt, src_file = tmp_path / "m.bnsq", tmp_path / "in.txt"
        save_checkpoint(ckpt, Checkpoint(
            vocab=vocab, tensors=ModelParams(len(vocab), 3, 2).copy_values()))
        src_file.write_text("aa bb\n")
        gone = tmp_path / "gone" / f"{missing}.file"
        argv = {
            "config": ["gen-data", "--config", str(gone),
                       "--out", str(tmp_path / "out")],
            "checkpoint": ["sample", "--checkpoint", str(gone),
                           "--input", str(src_file)],
            "input": ["sample", "--checkpoint", str(ckpt),
                      "--input", str(gone)],
        }[missing]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(gone) in err

    @pytest.mark.parametrize("which", ["config", "input"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys, which):
        vocab = Vocabulary(["aa", "bb"])
        ckpt, src_file = tmp_path / "m.bnsq", tmp_path / "in.txt"
        save_checkpoint(ckpt, Checkpoint(
            vocab=vocab, tensors=ModelParams(len(vocab), 3, 2).copy_values()))
        src_file.write_text("aa bb\n")
        bad = tmp_path / f"{which}.file"
        bad.write_bytes(b"hidden_size = \xff\n" if which == "config"
                        else b"aa \xff bb\n")
        argv = {
            "config": ["gen-data", "--config", str(bad),
                       "--out", str(tmp_path / "out")],
            "input": ["sample", "--checkpoint", str(ckpt),
                      "--input", str(bad)],
        }[which]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert f"{bad}: not UTF-8 text" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_non_utf8_corpus_exits_2_naming_it(self, small_cfg_file,
                                               tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 0
        bad = out / "data" / "a.train.tgt"
        bad.write_bytes(bad.read_bytes() + b"t01 \xff\n")
        capsys.readouterr()
        assert main(["train-mle", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{bad}: not UTF-8 text" in err

    @pytest.mark.parametrize("name, token", [("a.train.src", "<unk>"),
                                             ("a.train.tgt", "</s>")])
    def test_reserved_token_in_training_corpus_exits_2_naming_it(
            self, small_cfg_file, tmp_path, capsys, name, token):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 0
        bad = out / "data" / name
        bad.write_text(f"{token} " + bad.read_text(encoding="utf-8"),
                       encoding="utf-8")
        written = sorted(out.rglob("*"))
        capsys.readouterr()
        assert main(["train-mle", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{bad}: corpus token collides with reserved token " \
            f"{token!r}" in err
        assert sorted(out.rglob("*")) == written

    def test_train_bandit_without_corpora_writes_nothing(self, small_cfg_file,
                                                         tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train-bandit", "--config", str(small_cfg_file),
                     "--out", str(out)]) == 2
        assert "missing corpus files" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_stage_exits_2_before_writing(self, small_cfg_file,
                                                  tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(small_cfg_file.read_text()
                       + "stages = gen-data,fly-to-moon\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
        assert "unknown key 'stages'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["stages =", "stages = ,"])
    def test_empty_stages_exits_2_before_writing(self, small_cfg_file,
                                                 tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(small_cfg_file.read_text() + line + "\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
        assert "unknown key 'stages'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_before_writing(self, small_cfg_file,
                                                  tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(small_cfg_file),
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt", ["blank line", "extra line"])
    def test_corrupt_corpus_exits_2_naming_the_file(self, small_cfg_file,
                                                    tmp_path, capsys,
                                                    corrupt):
        cfg, out = str(small_cfg_file), tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        path = out / "data" / "a.test.src"
        lines = path.read_text().splitlines(keepends=True)
        if corrupt == "blank line":
            lines[4] = "\n"
        else:
            lines.append("\n")
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["train-mle", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        if corrupt == "blank line":
            assert f"{path}: empty sentence at line 5" in err
        assert not (out / "checkpoints").exists()

    def test_empty_training_split_exits_2_naming_the_file(
            self, small_cfg_file, tmp_path, capsys):
        # an empty a.train once validated the untrained model and then
        # failed with a ZeroDivisionError, exit 1
        cfg, out = str(small_cfg_file), tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        for suffix in ("src", "tgt"):
            (out / "data" / f"a.train.{suffix}").write_text("")
        capsys.readouterr()
        assert main(["train-mle", "--config", cfg, "--out", str(out)]) == 2
        path = out / "data" / "a.train.src"
        assert f"{path}: empty corpus" in capsys.readouterr().err
        assert not (out / "checkpoints").exists()

    def test_empty_bandit_split_exits_2(self, small_cfg_file, tmp_path):
        """An empty b.train once made train-bandit draw from an empty
        stream forever, so the command runs in a child process that a
        timeout ends."""
        cfg, out = str(small_cfg_file), tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert main(["train-mle", "--config", cfg, "--out", str(out)]) == 0
        for suffix in ("src", "tgt"):
            (out / "data" / f"b.train.{suffix}").write_text("")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(banditseq.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "banditseq", "train-bandit", "--config",
             cfg, "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 2
        assert f"{out / 'data' / 'b.train.src'}: empty corpus" in done.stderr
        assert not list(out.glob("metrics.*.csv"))

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

    def test_seed_checkpoint_written_into_a_new_directory(self,
                                                          small_cfg_file,
                                                          tmp_path, capsys):
        out, seed = tmp_path / "out", tmp_path / "new" / "dir" / "seed.bnsq"
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(small_cfg_file.read_text()
                       + f"seed_checkpoint = {seed}\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train-mle", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            f"seed checkpoint written to {seed}"
        assert seed.read_bytes().startswith(b"PK\x03\x04")
        assert sorted(p.name for p in seed.parent.iterdir()) == ["seed.bnsq"]

    def test_seed_checkpoint_same_staged_or_whole(self, small_cfg_file,
                                                  tmp_path):
        # the config hash covers the settings, not where files go
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
            params = args[2]
            params.views(grads)["out.b"][...] = np.nan
            return loss, grads

        monkeypatch.setattr(pipeline, "mle_loss_and_grad", nan_gradient)
        assert main(["train-mle", "--config", cfg, "--out", str(out)]) == 4
        assert "non-finite gradient at MLE update 1" in capsys.readouterr().err
        assert not (out / "checkpoints" / "mle.bnsq").exists()


def subcommands(parser):
    """The subcommand parsers of ``parser``, by name."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def unread_options(parser, source):
    """Each ``command --flag`` of ``parser`` whose destination the command's
    function in ``source`` never reads, in parser order.

    A destination is read if the function reads ``args.<dest>``; if it is
    ``config`` and the function calls ``_load_cfg``; or if it is a config
    key and the function calls ``pl.run_pipeline`` or reads ``cfg.<dest>``.
    """
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    keys = {f.name for f in fields(RunConfig)}
    unread = []
    for command, sub in subcommands(parser).items():
        fn = functions[sub.get_default("fn").__name__]
        read = {ast.unparse(node) for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)}
        called = {ast.unparse(node.func) for node in ast.walk(fn)
                  if isinstance(node, ast.Call)}
        for action in sub._actions:
            if not action.option_strings \
                    or isinstance(action, argparse._HelpAction):
                continue
            dest = action.dest
            if f"args.{dest}" in read \
                    or (dest == "config" and "_load_cfg" in called) \
                    or (dest in keys and ("pl.run_pipeline" in called
                                          or f"cfg.{dest}" in read)):
                continue
            unread.append(f"{command} {action.option_strings[0]}")
    return unread


CLI_SOURCE = Path(cli.__file__).read_text(encoding="utf-8")


def test_option_scan_finds_an_unread_flag():
    parser = build_parser()
    subcommands(parser)["sample"].add_argument("--unused")
    # a config key on a command that runs no pipeline and never reads it
    subcommands(parser)["sample"].add_argument("--iters")
    assert unread_options(parser, CLI_SOURCE) == ["sample --unused",
                                                  "sample --iters"]


def test_every_option_is_read_by_its_command():
    assert unread_options(build_parser(), CLI_SOURCE) == []


def test_readme_cli_block_lists_every_command():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```\n", text, re.S | re.M)
    documented = [line.split()[1] for block in blocks
                  for line in block.splitlines()
                  if line.startswith("banditseq ")]
    assert sorted(set(documented)) == sorted(subcommands(build_parser()))
