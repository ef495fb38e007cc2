"""The benchmark's traced runs rebind program names listed in
``perfbench/spans.py`` (``PATCHES``); a renamed target would only show up
there as a missing span. The first test resolves every one of them; the
others check that the scoring calls and the PR update still go through the
rebound names."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
