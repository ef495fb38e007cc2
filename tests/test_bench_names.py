"""The benchmark's traced runs rebind program names listed in
``perfbench/spans.py`` (``PATCHES``); a renamed target would only show up
there as a missing span. The first test resolves every one of them; the
others check that the scoring calls, the EL and PR updates and the MLE
steps still go through the rebound names, that the names the program
keeps only for the benchmark gain no caller in it, and that the config
fields it keeps only for the benchmark accept nothing but the value the
benchmark passes."""

import ast
import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PACKAGE = ROOT / "src" / "banditseq"

# Names the program defines or re-exports only because the benchmark
# reads them, each with the package files that must not call it.
KEPT_FOR_BENCHMARK = (
    ("pipeline", "task_spec_from_config", sorted(PACKAGE.glob("*.py"))),
    ("pipeline", "clip_gradient", [PACKAGE / "pipeline.py"]),
)

# Config fields kept only because the benchmark's workloads pass them by
# keyword, as (config class, field). Dropout and SGD were removed; each
# field accepts only the value the benchmark passes, and the loop reads
# none of the TrainingConfig ones.
KEPT_FIELDS_FOR_BENCHMARK = (
    ("RunConfig", "dropout"),
    ("RunConfig", "optimizer"),
    ("TrainingConfig", "optimizer"),
    ("TrainingConfig", "sgd_decay"),
    ("TrainingConfig", "pair_feedback"),
)
# values of the removed features, each rejected
REMOVED_VALUES = {"dropout": (0.3, -0.1, 1.0, math.nan),
                  "optimizer": ("sgd", "rmsprop", ""),
                  "sgd_decay": (0.5, -1.0, math.nan)}


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


def test_every_traced_name_resolves():
    patches = _patches()
    missing = []
    for module_name, attr, _, _ in patches:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert patches and not missing, missing


def test_corpus_score_span_fires_on_validation_and_evaluation(monkeypatch):
    """The ``metrics.corpus_score`` span wraps ``pipeline.corpus_ggleu`` and
    ``pipeline.corpus_bleu``; both must still be called through those
    names by the validator and by ``evaluate_on_corpus``."""
    from banditseq import pipeline
    from banditseq.data import Corpus
    from banditseq.model import ModelParams, Vocabulary

    calls = []
    for name in ("corpus_ggleu", "corpus_bleu"):
        def counted(*args, _name=name, _score=getattr(pipeline, name)):
            calls.append(_name)
            return _score(*args)
        monkeypatch.setattr(pipeline, name, counted)

    corpus = Corpus(pairs=[(["a", "b"], ["x", "y"]), (["c"], ["z"])])
    vocab = Vocabulary.from_corpus(corpus.sources + corpus.targets)
    params = ModelParams(len(vocab), 4, 4, seed=0)
    pipeline._make_validator(vocab, corpus, 4, 4)(params)
    assert sorted(calls) == ["corpus_bleu", "corpus_ggleu"]
    calls.clear()
    pipeline.evaluate_on_corpus(params, vocab, corpus, 4, 4)
    assert {"corpus_bleu", "corpus_ggleu"} <= set(calls)


def _count_calls(monkeypatch, spans):
    """Rebind every name the traced run wraps for one of ``spans`` to a
    counter; returns the calls per span."""
    calls = {span: 0 for span in spans}
    for module_name, attr, span, _ in _patches():
        if span not in spans:
            continue
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)

        def counted(*args, _span=span, _fn=getattr(owner, leaf), **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, leaf, counted)
    return calls


def _one_source_stream():
    while True:
        yield 0, [3, 4]


@pytest.mark.parametrize("cv_mode", ["baseline", "sf"])
def test_el_spans_fire_once_per_update(monkeypatch, cv_mode):
    """Every EL-path name the traced run rebinds is called once per update
    through that name: a step taken through a local alias would show there
    only as a missing span."""
    from banditseq.objectives import bandit_train_loop

    from conftest import loop_config, tiny_params

    spans = {"model.sample_sequence", "model.sequence_log_prob",
             "objectives.el_gradient", "autodiff.backward", "objectives.cv",
             "objectives.optimizer", "objectives.clip"}
    calls = _count_calls(monkeypatch, spans)
    iters = 7
    config = loop_config(objective="el", cv_mode=cv_mode, iters=iters,
                         valid_interval=3, seed=1, max_len=3)
    bandit_train_loop(config, tiny_params(seed=3), _one_source_stream(),
                      lambda sid, tokens: -0.1 * len(tokens))
    assert calls == {span: iters for span in spans}


def test_pr_spans_fire_when_the_antithetic_diagnostic_is_sampled(monkeypatch):
    """With ``valid_interval`` >= 20 the PR loop takes the halves of the
    score on a subset of updates only; every PR-path name the traced run
    rebinds must still be called, on every update or on that subset."""
    from banditseq.objectives import bandit_train_loop

    from conftest import loop_config, tiny_params

    calls = _count_calls(monkeypatch, {
        "model.pair_log_prob", "objectives.pr_gradient", "autodiff.backward",
        "objectives.antithetic_update"})
    config = loop_config(objective="pr", iters=20, valid_interval=20,
                         seed=1, max_len=3)
    bandit_train_loop(config, tiny_params(seed=3), _one_source_stream(),
                      lambda sid, pos, neg: -0.5)
    assert calls == {"objectives.pr_gradient": 20,
                     "model.pair_log_prob": 20 + 10,
                     "autodiff.backward": 20 + 2 * 10,
                     "objectives.antithetic_update": 10}


def test_mle_steps_once_per_minibatch(monkeypatch):
    """``pretrain_eval`` counts MLE updates by rebinding
    ``pipeline.adam_update`` and expects ``ceil(N / mle_batch)`` of them
    per epoch; 7 sentences in batches of 3 leave a last batch of one."""
    from banditseq import pipeline
    from banditseq.config import RunConfig
    from banditseq.data import Corpus
    from banditseq.model import Vocabulary

    steps = []
    step = pipeline.adam_update

    def counted(*args):
        steps.append(1)
        return step(*args)
    monkeypatch.setattr(pipeline, "adam_update", counted)

    corpus = Corpus(pairs=[([w], [w, w]) for w in "abcdefg"])
    vocab = Vocabulary.from_corpus(corpus.sources + corpus.targets)
    cfg = RunConfig(embedding_size=4, hidden_size=4, mle_epochs=2,
                    mle_batch=3, max_len=3, seed=2)
    pipeline.train_mle(cfg, vocab, corpus, corpus)
    assert len(steps) == cfg.mle_epochs * math.ceil(7 / cfg.mle_batch) == 6


def _called_names(path):
    """Every name that ``path`` calls, as ``f(...)`` or ``x.f(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.func.id if isinstance(node.func, ast.Name)
            else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_names_kept_for_the_benchmark_have_no_caller():
    """Each name resolves, for the benchmark, and the program does not
    call it, so that it can go once the benchmark stops reading it."""
    for module_name, name, files in KEPT_FOR_BENCHMARK:
        module = importlib.import_module(f"banditseq.{module_name}")
        assert callable(getattr(module, name, None)), name
        callers = [path.name for path in files if name in _called_names(path)]
        assert callers == [], (name, callers)


def _config_class(name):
    from banditseq.config import RunConfig
    from banditseq.objectives import TrainingConfig

    return {"RunConfig": RunConfig, "TrainingConfig": TrainingConfig}[name]


def _benchmark_keywords(class_name):
    """The constant keyword arguments the benchmark's workloads pass to
    ``class_name``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    keywords = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == class_name:
            keywords.update((kw.arg, kw.value.value) for kw in node.keywords
                            if isinstance(kw.value, ast.Constant))
    return keywords


@pytest.mark.parametrize("owner,name", KEPT_FIELDS_FOR_BENCHMARK)
def test_kept_field_defaults_to_the_value_the_benchmark_passes(owner, name):
    defaults = {f.name: f.default
                for f in dataclasses.fields(_config_class(owner))}
    assert _benchmark_keywords(owner)[name] == defaults[name]


@pytest.mark.parametrize("owner,name", [
    kept for kept in KEPT_FIELDS_FOR_BENCHMARK if kept[1] != "pair_feedback"])
def test_kept_field_rejects_every_other_value(owner, name):
    from banditseq.config import ConfigError, RunConfig

    from conftest import loop_config

    error, build = (ConfigError, RunConfig) if owner == "RunConfig" \
        else (ValueError, loop_config)
    for value in REMOVED_VALUES[name]:
        with pytest.raises(error, match=f"{name}.* removed"):
            build(**{name: value})


def test_pair_feedback_is_not_passed_to_the_loop():
    """The feedback oracle takes the run config's pair feedback; the loop's
    field stays at its default."""
    from banditseq.config import RunConfig
    from banditseq.objectives import TrainingConfig

    cfg = RunConfig(pair_feedback="bin")
    assert cfg.pair_feedback == "binary"
    assert cfg.training_config().pair_feedback == \
        TrainingConfig.pair_feedback == "continuous"


def test_removed_sgd_decay_key_is_unknown(tmp_path):
    from banditseq.config import ConfigError, load_config

    path = tmp_path / "old.cfg"
    path.write_text("optimizer = adam\nsgd_decay = 0.0\n")
    with pytest.raises(ConfigError, match="unknown key 'sgd_decay'"):
        load_config(path)
