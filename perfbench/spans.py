"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``perf_counter`` seconds) and
the index of the span that was open when it began. Spans are kept in a
list until the run ends; nothing is written while the workload runs.

Two kinds of span exist. The benchmark opens spans around its own calls
into the program (``Tracer.span``). To see inside those calls, the traced
run also rebinds public names in the modules that call them (``PATCHES``):
``banditseq.objectives.sample_sequence`` is looked up by
``bandit_train_loop`` at call time, so replacing that attribute wraps every
call the loop makes. The untraced run installs none of this; it uses
``NoTrace``, whose methods do nothing.

A wrapper whose target has been renamed cannot be installed and is
recorded as missing, so a later refactor shows up as a missing span rather
than as a layer that takes no time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter


def _tokens_of(out):
    # greedy_decode returns (tokens, attention) when asked for attention.
    return out[0] if isinstance(out, tuple) else out


def _count_clip_binds(tracer, args, out):
    # clip_gradient hands back its input unchanged when the clip does not bind.
    tracer.count("objectives.clip_binds", out is not args[0])


# (module, attribute in that module, span name, observer). The attribute
# is the name through which the program calls the layer, so the wrapper
# sees every call. An observer records counts at the same boundary.
PATCHES = (
    ("banditseq.model", "encode_full", "model.encode_full", None),
    ("banditseq.objectives", "sample_sequence", "model.sample_sequence",
     lambda t, args, out: t.count("model.sample_tokens", len(out.tokens))),
    ("banditseq.objectives", "sample_pair", "model.sample_pair", None),
    ("banditseq.objectives", "sequence_log_prob", "model.sequence_log_prob",
     None),
    ("banditseq.objectives", "pair_log_prob", "model.pair_log_prob", None),
    ("banditseq.pipeline", "greedy_decode", "model.greedy_decode",
     lambda t, args, out: t.count("model.greedy_tokens",
                                  len(_tokens_of(out)))),
    ("banditseq.autodiff", "Tape.backward", "autodiff.backward",
     lambda t, args, out: t.count("autodiff.tape_nodes", len(args[0].nodes))),
    ("banditseq.objectives", "el_gradient", "objectives.el_gradient", None),
    ("banditseq.objectives", "pr_gradient", "objectives.pr_gradient", None),
    ("banditseq.pipeline", "mle_loss_and_grad", "objectives.mle_loss_and_grad",
     None),
    ("banditseq.objectives", "apply_baseline_cv", "objectives.cv", None),
    ("banditseq.objectives", "apply_score_function_cv", "objectives.cv", None),
    ("banditseq.objectives", "AntitheticTracker.update",
     "objectives.antithetic_update", None),
    ("banditseq.objectives", "adam_update", "objectives.optimizer", None),
    ("banditseq.pipeline", "adam_update", "objectives.optimizer", None),
    ("banditseq.objectives", "clip_gradient", "objectives.clip",
     _count_clip_binds),
    ("banditseq.pipeline", "clip_gradient", "objectives.clip",
     _count_clip_binds),
    ("banditseq.pipeline", "corpus_ggleu", "metrics.corpus_score", None),
    ("banditseq.pipeline", "corpus_bleu", "metrics.corpus_score", None),
    ("banditseq.pipeline", "unk_replace", "pipeline.unk_replace", None),
)

# Spans reported as the median duration of one call, with the unit of that
# median; every one also reports its total self time as ``<span>.self_s``.
TIMED_SPANS = (
    ("data.gen_data", "s"),
    ("model.vocab_build", "s"),
    ("model.encode_full", "ms"),
    ("model.sample_sequence", "ms"),
    ("model.sample_pair", "ms"),
    ("model.sequence_log_prob", "ms"),
    ("model.pair_log_prob", "ms"),
    ("model.greedy_decode", "ms"),
    ("autodiff.backward", "ms"),
    ("objectives.el_gradient", "ms"),
    ("objectives.pr_gradient", "ms"),
    ("objectives.mle_loss_and_grad", "ms"),
    ("objectives.cv", "ms"),
    ("objectives.antithetic_update", "ms"),
    ("objectives.optimizer", "ms"),
    ("objectives.clip", "ms"),
    ("metrics.oracle", "ms"),
    ("metrics.corpus_score", "ms"),
    ("pipeline.validate", "s"),
    ("pipeline.evaluate_on_corpus", "s"),
    ("pipeline.unk_replace", "ms"),
    ("pipeline.train_mle", "s"),
    ("checkpoint.save", "ms"),
    ("checkpoint.load", "ms"),
)

_SCALE = {"s": 1.0, "ms": 1e3}


class NoTrace:
    """The untraced run's tracer: records nothing and wraps nothing."""

    def span(self, name):
        return nullcontext()

    def wrap(self, name, fn, observe=None):
        return fn

    def count(self, name, value=1):
        pass

    def installed(self):
        return nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._open[-1] if t._open else -1
        t._open.append(self.index)
        t.spans.append([self.name, perf_counter(), None, parent])

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._open.pop()
        return False


class Tracer:
    """Collects spans and counts in memory for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = {}        # span name -> why its wrapper is absent
        self._open = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def count(self, name, value=1):
        self.counts[name] += value

    @contextmanager
    def installed(self):
        """Rebind every name in ``PATCHES`` to a traced wrapper; restore
        the originals on exit."""
        undo = []
        try:
            for module_name, attr, span, observe in PATCHES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing[span] = f"{module_name}.{attr} does not exist"
                    continue
                setattr(owner, leaf, self.wrap(span, original, observe))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def table(self):
        """Per span name: calls, median and total duration, and self time
        (duration minus the part covered by its child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = rows.setdefault(name, {"durations": [], "self_s": 0.0})
            row["durations"].append(end - start)
            row["self_s"] += end - start - child[i]
        return {
            name: {"calls": len(row["durations"]),
                   "p50_s": statistics.median(row["durations"]),
                   "total_s": sum(row["durations"]),
                   "self_s": row["self_s"]}
            for name, row in sorted(rows.items())
        }


def layer_metrics(tracer, expected, overhead_pct):
    """Per-layer metrics of a traced run.

    ``expected`` names the spans the workload must fire. A metric whose
    span is expected but never fired is missing: it reads ``None`` and
    ``missing`` says why. A metric whose span the workload does not use
    reads 0.
    """
    table = tracer.table()
    counts = tracer.counts
    missing = {}
    out = {}

    def calls(span):
        return table[span]["calls"] if span in table else 0

    def put(name, unit, span, value):
        # ``value`` is a thunk: it may only be evaluated once the span fired.
        if calls(span):
            value = value()
        elif span in expected:
            missing[name] = tracer.missing.get(
                span, f"span {span} did not fire on this workload")
            value = None
        else:
            value = 0
        out[name] = {"value": value, "unit": unit}

    def per_call(name, unit, span, total):
        put(name, unit, span, lambda: total / calls(span))

    for span, unit in TIMED_SPANS:
        put(f"{span}_{unit}", unit, span,
            lambda: table[span]["p50_s"] * _SCALE[unit])
        put(f"{span}.self_s", "s", span, lambda: table[span]["self_s"])

    updates = calls("objectives.optimizer")
    loop = "objectives.bandit_train_loop"
    put("objectives.loop_self_ms", "ms", loop,
        lambda: table[loop]["self_s"] * 1e3 / updates)
    put("objectives.updates", "count", "objectives.optimizer", lambda: updates)
    per_call("model.sample_len_mean", "tokens", "model.sample_sequence",
             counts["model.sample_tokens"])
    per_call("model.greedy_len_mean", "tokens", "model.greedy_decode",
             counts["model.greedy_tokens"])
    per_call("autodiff.backward_calls_per_update", "count",
             "objectives.optimizer", calls("autodiff.backward"))
    per_call("autodiff.tape_nodes_per_graph", "count", "autodiff.backward",
             counts["autodiff.tape_nodes"])
    per_call("objectives.clip_rate", "ratio", "objectives.clip",
             counts["objectives.clip_binds"])
    per_call("objectives.zero_feedback_ratio", "ratio", "metrics.oracle",
             counts["metrics.zero_feedback"])
    put("metrics.oracle_calls", "count", "metrics.oracle",
        lambda: calls("metrics.oracle"))
    per_call("checkpoint.bytes", "bytes", "checkpoint.save",
             counts["checkpoint.bytes"])
    out["tracing.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out, missing, table
