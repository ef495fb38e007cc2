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

Generation is a pure function of the spec: identical specs give
byte-identical corpus files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .config import ConfigError

__all__ = [
    "SyntheticTaskSpec",
    "Corpus",
    "task_lexicons",
    "gen_data",
    "write_corpus",
    "read_parallel",
    "corpus_paths",
]

SPLITS = ("train", "valid", "test")
_DOMAIN_OFFSET = {"a": 100, "b": 200}
_SPLIT_OFFSET = {"train": 1, "valid": 2, "test": 3}


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Everything the corpus generator needs, seed included."""

    src_vocab_size: int = 96
    overlap: float = 0.7
    band_weight_a: float = 0.1
    band_weight_b: float = 0.5
    ambiguity: float = 0.25
    swap_a: bool = True
    swap_b: bool = True
    min_len: int = 3
    max_len: int = 8
    sizes_a: tuple = (10000, 1000, 1000)
    sizes_b: tuple = (2000, 500, 500)
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 <= self.ambiguity < 1.0:
            raise ConfigError(
                f"ambiguity must be in [0, 1), got {self.ambiguity}"
            )
        if self.src_vocab_size < 2:
            raise ConfigError("src_vocab_size must be at least 2")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError(
                f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}"
            )
        if len(self.sizes_a) != 3 or len(self.sizes_b) != 3:
            raise ConfigError("sizes_a and sizes_b must each give train/valid/test")
        if any(s < 1 for s in self.sizes_a + self.sizes_b):
            raise ConfigError("all split sizes must be positive")
        if self.band_size == 1:
            raise ConfigError(
                "a bijection cannot differ from another in exactly one entry; "
                "choose an overlap giving a shifted band of 0 or >= 2 entries"
            )

    @property
    def band_size(self):
        return round((1.0 - self.overlap) * self.src_vocab_size)


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


def task_lexicons(spec):
    """Both domains' source->target bijections and the shifted band.

    Domain A maps source token i to a seeded random permutation of the
    target inventory. Domain B agrees except on the band (the last
    ``band_size`` source tokens), whose images are rotated one step, so the
    two lexicons differ on exactly that many entries.
    """
    spec.validate()
    v = spec.src_vocab_size
    src = _token_names("s", v)
    tgt = _token_names("t", v)
    rng = np.random.default_rng([spec.seed, 7])
    perm = rng.permutation(v)
    lex_a = {src[i]: tgt[perm[i]] for i in range(v)}
    band = src[v - spec.band_size:] if spec.band_size else []
    lex_b = dict(lex_a)
    for j, s in enumerate(band):
        lex_b[s] = lex_a[band[(j + 1) % len(band)]]
    return lex_a, lex_b, band


def _swap_even_pairs(tokens):
    out = list(tokens)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _sentence(rng, spec, band, weight, lexicon, alt_band, swap, src_tokens):
    """One sentence pair. ``band`` lists the band's source tokens, the last
    of ``src_tokens``; ``alt_band`` maps each to its alternative image, or
    is None where the split is not ambiguous."""
    length = int(rng.integers(spec.min_len, spec.max_len + 1))
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
                and rng.random() < spec.ambiguity:
            tgt.append(alt_band[tok])
        else:
            tgt.append(lexicon[tok])
    if swap:
        tgt = _swap_even_pairs(tgt)
    return src, tgt


def gen_data(spec):
    """Deterministic corpora for both domains, keyed by (domain, split).

    Only domain A's training split carries the band ambiguity; all other
    splits translate through their domain's lexicon exactly.
    """
    spec.validate()
    lex_a, lex_b, band = task_lexicons(spec)
    src_tokens = _token_names("s", spec.src_vocab_size)
    domains = {
        "a": (spec.sizes_a, spec.band_weight_a, lex_a, spec.swap_a),
        "b": (spec.sizes_b, spec.band_weight_b, lex_b, spec.swap_b),
    }
    corpora = {}
    for domain, (sizes, weight, lexicon, swap) in domains.items():
        for split, size in zip(SPLITS, sizes):
            rng = np.random.default_rng(
                [spec.seed, _DOMAIN_OFFSET[domain], _SPLIT_OFFSET[split]]
            )
            ambiguous = domain == "a" and split == "train" \
                and spec.ambiguity > 0.0
            alt_band = {tok: lex_b[tok] for tok in band} if ambiguous else None
            pairs = [
                _sentence(rng, spec, band, weight, lexicon, alt_band, swap,
                          src_tokens)
                for _ in range(size)
            ]
            corpora[domain, split] = Corpus(pairs=pairs, domain=domain, split=split)
    return corpora


def corpus_paths(data_dir, domain, split):
    return (f"{data_dir}/{domain}.{split}.src", f"{data_dir}/{domain}.{split}.tgt")


def write_corpus(corpus, data_dir):
    """One sentence per line, whitespace-joined, parallel src/tgt files.
    Both files are replaced only once both are completely written."""
    src_path, tgt_path = corpus_paths(data_dir, corpus.domain, corpus.split)
    with atomic_open(src_path, "w", encoding="utf-8") as src_fh, \
            atomic_open(tgt_path, "w", encoding="utf-8") as tgt_fh:
        for src, tgt in corpus.pairs:
            src_fh.write(" ".join(src) + "\n")
            tgt_fh.write(" ".join(tgt) + "\n")
    return src_path, tgt_path


def read_parallel(src_path, tgt_path, domain="", split=""):
    with open(src_path, encoding="utf-8") as fh:
        src_lines = [line.split() for line in fh]
    with open(tgt_path, encoding="utf-8") as fh:
        tgt_lines = [line.split() for line in fh]
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"parallel files differ in length: {src_path} has {len(src_lines)} "
            f"lines, {tgt_path} has {len(tgt_lines)}"
        )
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines)):
        if not s or not t:
            raise ValueError(f"empty sentence at line {i + 1}")
    return Corpus(pairs=list(zip(src_lines, tgt_lines)), domain=domain, split=split)
