import hashlib
import os

import pytest

from banditseq.config import ConfigError
from banditseq.data import (
    Corpus,
    SyntheticTaskSpec,
    corpus_paths,
    gen_data,
    read_parallel,
    task_lexicons,
    write_corpus,
)
from banditseq.metrics import corpus_ggleu


SMALL = dict(src_vocab_size=20, sizes_a=(40, 10, 10), sizes_b=(20, 5, 5))


def small_spec(**kwargs):
    merged = {**SMALL, **kwargs}
    return SyntheticTaskSpec(**merged)


class TestLexicons:
    def test_overlap_fraction_exact(self):
        lex_a, lex_b, band = task_lexicons(small_spec(overlap=0.7))
        differing = [s for s in lex_a if lex_a[s] != lex_b[s]]
        assert len(differing) == 6  # 30% of 20
        assert sorted(differing) == sorted(band)

    def test_full_overlap_identical(self):
        lex_a, lex_b, band = task_lexicons(small_spec(overlap=1.0))
        assert lex_a == lex_b
        assert band == []

    def test_zero_overlap_all_shifted(self):
        lex_a, lex_b, _ = task_lexicons(small_spec(overlap=0.0))
        assert all(lex_a[s] != lex_b[s] for s in lex_a)

    def test_both_are_bijections(self):
        lex_a, lex_b, _ = task_lexicons(small_spec(overlap=0.5))
        assert len(set(lex_a.values())) == len(lex_a)
        assert len(set(lex_b.values())) == len(lex_b)

    def test_single_entry_band_rejected(self):
        with pytest.raises(ConfigError, match="bijection"):
            task_lexicons(small_spec(overlap=0.95))  # 5% of 20 = 1 entry

    def test_bad_overlap_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(overlap=1.5).validate()


class TestGenData:
    def test_deterministic(self):
        a = gen_data(small_spec(seed=3))
        b = gen_data(small_spec(seed=3))
        for key in a:
            assert a[key].pairs == b[key].pairs

    def test_split_sizes(self):
        corpora = gen_data(small_spec())
        assert len(corpora["a", "train"]) == 40
        assert len(corpora["b", "test"]) == 5

    def test_lengths_within_bounds(self):
        corpora = gen_data(small_spec(min_len=2, max_len=5))
        for corpus in corpora.values():
            for src, tgt in corpus.pairs:
                assert 2 <= len(src) <= 5
                assert len(tgt) == len(src)

    def test_targets_follow_lexicon_and_swap(self):
        spec = small_spec(swap_a=True)
        lex_a, _, _ = task_lexicons(spec)
        corpora = gen_data(spec)
        # the valid split is canonical (no training ambiguity)
        src, tgt = corpora["a", "valid"].pairs[0]
        mapped = [lex_a[s] for s in src]
        for i in range(0, len(mapped) - 1, 2):
            mapped[i], mapped[i + 1] = mapped[i + 1], mapped[i]
        assert tgt == mapped

    def test_ambiguity_only_in_domain_a_train(self):
        spec = small_spec(overlap=0.7, ambiguity=0.5, swap_a=False,
                          swap_b=False, sizes_a=(400, 100, 100),
                          sizes_b=(100, 50, 50))
        lex_a, lex_b, band = task_lexicons(spec)
        band_set = set(band)
        corpora = gen_data(spec)

        def flips(corpus, lexicon):
            total = hit = 0
            for src, tgt in corpus.pairs:
                for s, t in zip(src, tgt):
                    if s in band_set:
                        total += 1
                        hit += t != lexicon[s]
            return hit, total

        hit, total = flips(corpora["a", "train"], lex_a)
        assert total > 50
        assert 0.35 < hit / total < 0.65  # about half at ambiguity 0.5
        for key, lexicon in ((("a", "valid"), lex_a), (("a", "test"), lex_a),
                             (("b", "train"), lex_b), (("b", "test"), lex_b)):
            hit, _ = flips(corpora[key], lexicon)
            assert hit == 0

    def test_ambiguous_band_targets_come_from_domain_b(self):
        spec = small_spec(overlap=0.7, ambiguity=0.5, swap_a=False,
                          sizes_a=(400, 10, 10))
        lex_a, lex_b, band = task_lexicons(spec)
        band_set = set(band)
        corpora = gen_data(spec)
        for src, tgt in corpora["a", "train"].pairs:
            for s, t in zip(src, tgt):
                if s in band_set:
                    assert t in (lex_a[s], lex_b[s])

    def test_bad_ambiguity_rejected(self):
        with pytest.raises(ConfigError, match="ambiguity"):
            small_spec(ambiguity=1.0).validate()

    def test_no_swap_keeps_order(self):
        spec = small_spec(swap_a=False, swap_b=False)
        lex_a, _, _ = task_lexicons(spec)
        corpora = gen_data(spec)
        src, tgt = corpora["a", "valid"].pairs[0]
        assert tgt == [lex_a[s] for s in src]

    def test_full_overlap_oracle_scores_equally_on_both_domains(self):
        # degenerate spec: with overlap 1.0 the domains share one lexicon,
        # so a perfect domain-A translator is also perfect on domain B
        spec = small_spec(overlap=1.0)
        lex_a, _, _ = task_lexicons(spec)
        corpora = gen_data(spec)

        def translate(src):
            out = [lex_a[s] for s in src]
            for i in range(0, len(out) - 1, 2):
                out[i], out[i + 1] = out[i + 1], out[i]
            return out

        for domain in ("a", "b"):
            test = corpora[domain, "test"]
            hyps = [translate(src) for src in test.sources]
            assert corpus_ggleu(hyps, test.targets) == 1.0

    def test_band_heavier_in_domain_b(self):
        spec = small_spec(overlap=0.7, band_weight_a=0.1, band_weight_b=0.6,
                          sizes_a=(300, 10, 10), sizes_b=(300, 5, 5))
        _, _, band = task_lexicons(spec)
        corpora = gen_data(spec)
        band_set = set(band)

        def band_fraction(corpus):
            toks = [t for src in corpus.sources for t in src]
            return sum(t in band_set for t in toks) / len(toks)

        assert band_fraction(corpora["a", "train"]) < 0.2
        assert band_fraction(corpora["b", "train"]) > 0.45


def corpora_sha256(corpora):
    h = hashlib.sha256()
    for key in sorted(corpora):
        for src, tgt in corpora[key].pairs:
            h.update(f"{' '.join(src)}\t{' '.join(tgt)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("kwargs,digest", [
    ({}, "f37ca158c91a590d93da0a2c05b2bf1e153027f111339c7868b82bf06a8557cd"),
    ({"overlap": 0.0},
     "d2ac09d167c7dbb72fd13f63410bed794e92f5bb9cbac20abb5eb743e1091abf"),
    ({"overlap": 1.0},
     "5db16b4a7a2ae9ab5ebb4f13a933b481846b06fdbf480ce4a131a51ee340e6f7"),
    ({"ambiguity": 0.0, "swap_b": False},
     "01b2dc63d1b806ce1ec62448585ebde1bafe2ab29fbba4a5a7bf36ce0d14d340"),
])
def test_corpora_pinned(kwargs, digest):
    # the draws and their order are part of the output: any change to how
    # a sentence is generated changes every corpus built from a seed
    assert corpora_sha256(gen_data(small_spec(seed=5, **kwargs))) == digest


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        corpora = gen_data(small_spec(seed=5))
        corpus = corpora["b", "valid"]
        write_corpus(corpus, tmp_path)
        loaded = read_parallel(*corpus_paths(tmp_path, "b", "valid"),
                               domain="b", split="valid")
        assert loaded.pairs == corpus.pairs

    def test_byte_identical_files(self, tmp_path):
        for sub in ("x", "y"):
            (tmp_path / sub).mkdir()
            write_corpus(gen_data(small_spec(seed=9))["a", "test"],
                         tmp_path / sub)
        a = (tmp_path / "x" / "a.test.src").read_bytes()
        b = (tmp_path / "y" / "a.test.src").read_bytes()
        assert a == b

    def test_failed_write_keeps_previous_files(self, tmp_path):
        corpus = gen_data(small_spec(seed=5))["b", "valid"]
        paths = write_corpus(corpus, tmp_path)
        before = [open(path, "rb").read() for path in paths]
        # a target that is not text fails the write after many lines of both
        # files are written
        broken = Corpus(pairs=corpus.pairs * 50 + [(["a"], [1])],
                        domain="b", split="valid")
        with pytest.raises(TypeError):
            write_corpus(broken, tmp_path)
        assert [open(path, "rb").read() for path in paths] == before
        assert sorted(os.listdir(tmp_path)) == ["b.valid.src", "b.valid.tgt"]

    def test_length_mismatch_rejected(self, tmp_path):
        (tmp_path / "x.src").write_text("a b\nc d\n")
        (tmp_path / "x.tgt").write_text("p q\n")
        with pytest.raises(ValueError, match="length"):
            read_parallel(tmp_path / "x.src", tmp_path / "x.tgt")

    def test_empty_sentence_rejected(self, tmp_path):
        (tmp_path / "x.src").write_text("a b\n\n")
        (tmp_path / "x.tgt").write_text("p q\nr\n")
        with pytest.raises(ValueError, match="empty"):
            read_parallel(tmp_path / "x.src", tmp_path / "x.tgt")

    def test_corpus_accessors(self):
        corpus = Corpus(pairs=[(["a"], ["b"])], domain="a", split="train")
        assert corpus.sources == [["a"]]
        assert corpus.targets == [["b"]]
