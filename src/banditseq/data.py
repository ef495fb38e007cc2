"""Synthetic parallel corpora for the domain-adaptation experiment.

The task is a token-level lexicon substitution plus a positional swap.
Domain A and domain B share the same source and target inventories and the
same reordering rule, but domain B remaps a fixed fraction of the lexicon
(the "specialty band", the highest-numbered source tokens). Band tokens are
rare in domain A text and common in domain B text, so a model trained on A
is nearly perfect on A, noticeably wrong on B, and can relearn the shifted
entries from per-sentence feedback without wrecking its domain-A behaviour.

Domain A's *training* split is additionally ambiguous on the band: a band
position uses the domain-B image with probability ``ambiguity`` instead of
the domain-A one. The seed model then keeps genuine probability mass on
both alternatives, so sampled outputs actually explore the domain-B
choices; weak feedback has something to reinforce. Validation and test
references in both domains stay canonical (pure per-domain lexicons).

Generation is a pure function of a :class:`~banditseq.config.RunConfig`'s
synthetic-task keys and its ``seed``: equal values give byte-identical
corpus files. The config checks those keys when it is built.

The module is also the package's file layer (:func:`atomic_open`,
:func:`write_parallel`); it imports nothing from the package.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Corpus",
    "task_lexicons",
    "gen_data",
    "atomic_open",
    "write_parallel",
    "write_corpus",
    "read_sentences",
    "read_parallel",
    "corpus_paths",
]

SPLITS = ("train", "valid", "test")
_DOMAIN_OFFSET = {"a": 100, "b": 200}
_SPLIT_OFFSET = {"train": 1, "valid": 2, "test": 3}


@dataclass
class Corpus:
    """Parallel sentence pairs with their domain and split tags."""

    pairs: list
    domain: str = ""
    split: str = ""

    def __len__(self):
        return len(self.pairs)

    @property
    def sources(self):
        return [src for src, _ in self.pairs]

    @property
    def targets(self):
        return [tgt for _, tgt in self.pairs]


def _token_names(prefix, count):
    width = max(2, len(str(count - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def task_lexicons(cfg):
    """Both domains' source->target bijections and the shifted band.

    Domain A maps source token i to a seeded random permutation of the
    target inventory. Domain B agrees except on the band (the last
    ``band_size`` source tokens), whose images are rotated one step, so the
    two lexicons differ on exactly that many entries.
    """
    v = cfg.src_vocab_size
    src = _token_names("s", v)
    tgt = _token_names("t", v)
    rng = np.random.default_rng([cfg.seed, 7])
    perm = rng.permutation(v)
    lex_a = {src[i]: tgt[perm[i]] for i in range(v)}
    band = src[v - cfg.band_size:] if cfg.band_size else []
    lex_b = dict(lex_a)
    for j, s in enumerate(band):
        lex_b[s] = lex_a[band[(j + 1) % len(band)]]
    return lex_a, lex_b, band


def _swap_even_pairs(tokens):
    out = list(tokens)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _sentence(rng, cfg, band, weight, lexicon, alt_band, swap, src_tokens):
    """One sentence pair. ``band`` lists the band's source tokens, the last
    of ``src_tokens``; ``alt_band`` maps each to its alternative image, or
    is None where the split is not ambiguous."""
    length = int(rng.integers(cfg.min_sent_len, cfg.max_sent_len + 1))
    n_band = len(band)
    n_rest = len(src_tokens) - n_band
    src = []
    for _ in range(length):
        if n_rest == 0 or (n_band and rng.random() < weight):
            tok = band[int(rng.integers(n_band))]
        else:
            tok = src_tokens[int(rng.integers(n_rest))]
        src.append(tok)
    tgt = []
    for tok in src:
        if alt_band is not None and tok in alt_band \
                and rng.random() < cfg.ambiguity:
            tgt.append(alt_band[tok])
        else:
            tgt.append(lexicon[tok])
    if swap:
        tgt = _swap_even_pairs(tgt)
    return src, tgt


def gen_data(cfg):
    """Deterministic corpora for both domains, keyed by (domain, split).

    Only domain A's training split carries the band ambiguity; all other
    splits translate through their domain's lexicon exactly.
    """
    lex_a, lex_b, band = task_lexicons(cfg)
    src_tokens = _token_names("s", cfg.src_vocab_size)
    domains = {
        "a": ((cfg.train_a, cfg.valid_a, cfg.test_a), cfg.band_weight_a,
              lex_a, cfg.swap_a),
        "b": ((cfg.train_b, cfg.valid_b, cfg.test_b), cfg.band_weight_b,
              lex_b, cfg.swap_b),
    }
    corpora = {}
    for domain, (sizes, weight, lexicon, swap) in domains.items():
        for split, size in zip(SPLITS, sizes):
            rng = np.random.default_rng(
                [cfg.seed, _DOMAIN_OFFSET[domain], _SPLIT_OFFSET[split]]
            )
            ambiguous = domain == "a" and split == "train" \
                and cfg.ambiguity > 0.0
            alt_band = {tok: lex_b[tok] for tok in band} if ambiguous else None
            pairs = [
                _sentence(rng, cfg, band, weight, lexicon, alt_band, swap,
                          src_tokens)
                for _ in range(size)
            ]
            corpora[domain, split] = Corpus(pairs=pairs, domain=domain, split=split)
    return corpora


def corpus_paths(data_dir, domain, split):
    return (f"{data_dir}/{domain}.{split}.src", f"{data_dir}/{domain}.{split}.tgt")


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open ``path.tmp`` for writing, in the directory of ``path``, made if
    missing. A clean exit renames it over ``path``; an exception removes it,
    so ``path`` keeps either its previous or its complete new contents."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_parallel(path_a, sentences_a, path_b, sentences_b):
    """Write two files of whitespace-joined sentences, one per line, the
    mirror of :func:`read_parallel`; both are replaced once both are whole."""
    with atomic_open(path_a, "w", encoding="utf-8") as fh_a, \
            atomic_open(path_b, "w", encoding="utf-8") as fh_b:
        fh_a.writelines(" ".join(tokens) + "\n" for tokens in sentences_a)
        fh_b.writelines(" ".join(tokens) + "\n" for tokens in sentences_b)


def write_corpus(corpus, data_dir):
    """Write ``corpus`` as its parallel src/tgt files under ``data_dir``."""
    src_path, tgt_path = corpus_paths(data_dir, corpus.domain, corpus.split)
    write_parallel(src_path, corpus.sources, tgt_path, corpus.targets)
    return src_path, tgt_path


def read_sentences(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.split() for line in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def read_parallel(src_path, tgt_path, domain="", split=""):
    src_lines, tgt_lines = read_sentences(src_path), read_sentences(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"parallel files differ in length: {src_path} has {len(src_lines)} "
            f"lines, {tgt_path} has {len(tgt_lines)}"
        )
    if not src_lines:
        raise ValueError(f"{src_path}: empty corpus, no sentences")
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines)):
        if not s or not t:
            raise ValueError(f"{tgt_path if s else src_path}: empty sentence "
                             f"at line {i + 1}")
    return Corpus(pairs=list(zip(src_lines, tgt_lines)), domain=domain, split=split)
