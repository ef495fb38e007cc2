"""The benchmark's traced runs rebind program names listed in
``perfbench/spans.py`` (``PATCHES``); a renamed target would only show up
there as a missing span. The first test resolves every one of them; the
second checks that the scoring calls still go through the rebound names."""

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
