"""The benchmark's traced runs rebind program names listed in
``perfbench/spans.py`` (``PATCHES``); a renamed target would only show up
there as a missing span. The first test resolves every one of them; the
others check that the scoring calls, the PR update and the MLE steps still
go through the rebound names, and that the names the program keeps only
for the benchmark gain no caller in it."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "banditseq"

# Names the program defines or re-exports only because the benchmark
# reads them, each with the package files that must not call it.
KEPT_FOR_BENCHMARK = (
    ("pipeline", "task_spec_from_config", sorted(PACKAGE.glob("*.py"))),
    ("pipeline", "clip_gradient", [PACKAGE / "pipeline.py"]),
)


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


def test_pr_spans_fire_when_the_antithetic_diagnostic_is_sampled(monkeypatch):
    """With ``valid_interval`` >= 20 the PR loop takes the halves of the
    score on a subset of updates only; every PR-path name the traced run
    rebinds must still be called, on every update or on that subset."""
    from banditseq.objectives import TrainingConfig, bandit_train_loop

    from conftest import tiny_params

    spans = {"model.pair_log_prob", "objectives.pr_gradient",
             "autodiff.backward", "objectives.antithetic_update"}
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

    def stream():
        while True:
            yield 0, [3, 4]

    config = TrainingConfig(objective="pr", iters=20, valid_interval=20,
                            seed=1, max_len=3)
    bandit_train_loop(config, tiny_params(seed=3), stream(),
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
