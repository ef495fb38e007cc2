import dataclasses
import io
import os
import time
import warnings
import zipfile

import numpy as np
import pytest

from banditseq.checkpoint import (
    VERSION,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from banditseq.cli import main
from banditseq.model import ModelParams, Vocabulary


def make_checkpoint(vocab_tokens=("aa", "bb", "cc"), seed=0):
    vocab = Vocabulary(list(vocab_tokens))
    params = ModelParams(len(vocab), embed_size=3, hidden_size=2, seed=seed)
    return Checkpoint(vocab=vocab, tensors=params.copy_values(),
                      iteration=17, seed=99, config_hash="deadbeef")


def npy(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=False)
    return buf.getvalue()


def rewrite(path, replace=None, drop=(), extra=()):
    """Rewrite the archive at ``path`` with the members named in
    ``replace`` given new bytes, those in ``drop`` left out and the
    (name, bytes) pairs of ``extra`` appended."""
    replace = replace or {}
    with zipfile.ZipFile(path) as zf:
        members = [(i.filename, zf.read(i)) for i in zf.infolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns on a repeated name
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members + list(extra):
                if name not in drop:
                    zf.writestr(name, replace.get(name, data))


def vocab_bytes(tokens):
    return npy(np.frombuffer("\n".join(tokens).encode("utf-8"), "|u1"))


def sample_exit(path, tmp_path, capsys):
    """``banditseq sample`` on ``path``: its exit code and stderr."""
    src_file = tmp_path / "in.txt"
    src_file.write_text("aa bb\n")
    code = main(["sample", "--checkpoint", str(path), "--input",
                 str(src_file)])
    return code, capsys.readouterr().err


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "m.bnsq"
    save_checkpoint(path, make_checkpoint())
    return path


class TestRoundTrip:
    def test_bit_exact_parameters(self, tmp_path):
        # every field, so one that is written but not read back fails here;
        # the extra tensors check that rank 0 and empty axes are kept
        ckpt = make_checkpoint()
        ckpt.tensors["x"] = np.float64(2.5)
        ckpt.tensors["y"] = np.zeros((2, 0, 3))
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for f in dataclasses.fields(Checkpoint):
            got, want = getattr(loaded, f.name), getattr(ckpt, f.name)
            # a field left at its default would round-trip unwritten
            assert want != f.default, f.name
            if f.name == "vocab":
                assert got.tokens == want.tokens
            elif f.name == "tensors":
                assert sorted(got) == sorted(want)
                for name, arr in want.items():
                    assert got[name].shape == arr.shape
                    assert np.array_equal(got[name], arr)
            else:
                assert got == want, f.name

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = make_checkpoint(seed=5)
        p1, p2 = tmp_path / "a.bnsq", tmp_path / "b.bnsq"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_saves_an_hour_apart_byte_identical(self, tmp_path, monkeypatch):
        # zip entries carry a time stamp; a checkpoint's must not follow
        # the clock
        p1, p2 = tmp_path / "a.bnsq", tmp_path / "b.bnsq"
        save_checkpoint(p1, make_checkpoint())
        now = time.time()
        monkeypatch.setattr(time, "time", lambda: now + 3601.0)
        save_checkpoint(p2, make_checkpoint())
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_reads_it(self, saved):
        with np.load(saved, allow_pickle=False) as z:
            assert z["version"] == VERSION and z["seed"] == 99
            assert bytes(z["vocab"]).decode().split("\n")[3:] == \
                ["aa", "bb", "cc"]
            assert z["out.b"].dtype == np.float64

    def test_token_with_trailing_nul(self, tmp_path):
        # numpy's str arrays drop trailing NULs; the vocabulary must not
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint(("aa", "b\x00", "\x00")))
        assert load_checkpoint(path).vocab.tokens[3:] == ("aa", "b\x00",
                                                          "\x00")

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1])
    def test_seed_above_int64(self, tmp_path, seed):
        ckpt = make_checkpoint()
        ckpt.seed = seed
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).seed == seed

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint(seed=1))
        before = path.read_bytes()
        # "zz" sorts after every other member, so this fails part-way
        # through writing
        broken = make_checkpoint(seed=2)
        broken.tensors["zz"] = "not a number"
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.bnsq"]

    @pytest.mark.parametrize("what", ["newline token", "header name"])
    def test_save_refuses_what_would_not_load_back(self, tmp_path, what):
        ckpt = make_checkpoint(("aa", "b\nc") if what == "newline token"
                               else ("aa",))
        if what == "header name":
            ckpt.tensors["seed"] = np.zeros(2)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m.bnsq", ckpt)
        assert os.listdir(tmp_path) == []

    def test_to_model_rebuilds(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        model = load_checkpoint(path).to_model()
        assert model.vocab_size == len(ckpt.vocab)


class TestRejection:
    """Every malformed file makes ``banditseq sample`` exit 3 with a
    message naming what is wrong."""

    def test_good_file_samples(self, saved, tmp_path, capsys):
        assert sample_exit(saved, tmp_path, capsys) == (0, "")

    @pytest.mark.parametrize("content", [
        b"BNSQ\x01\x00\x00\x00" + bytes(64), b"", npy(np.zeros(3)),
    ], ids=["old format", "empty", "bare npy"])
    def test_not_an_archive(self, tmp_path, capsys, content):
        path = tmp_path / "m.bnsq"
        path.write_bytes(content)
        code, err = sample_exit(path, tmp_path, capsys)
        assert code == 3 and "not a checkpoint archive" in err

    def test_bad_magic(self, saved, tmp_path, capsys):
        data = bytearray(saved.read_bytes())
        data[:4] = b"NOPE"  # the first member's local header
        saved.write_bytes(bytes(data))
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "'att.U.npy'" in err and "magic" in err

    @pytest.mark.parametrize("keep", [3, 7, 20, 60, 200])
    def test_truncated_archive(self, saved, tmp_path, capsys, keep):
        saved.write_bytes(saved.read_bytes()[:keep])
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "not a checkpoint archive" in err

    def test_truncation_mid_tensor_values(self, saved, tmp_path, capsys):
        with zipfile.ZipFile(saved) as zf:
            info = zf.getinfo("tgt_emb.npy")
        data = saved.read_bytes()
        saved.write_bytes(data[:info.header_offset + info.compress_size])
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "not a checkpoint archive" in err

    def test_flipped_value_byte(self, saved, tmp_path, capsys):
        # the member's CRC-32 catches a change that still parses
        with zipfile.ZipFile(saved) as zf:
            info = zf.getinfo("src_emb.npy")
        data = bytearray(saved.read_bytes())
        # past the entry's 30-byte local header, its name and the 128-byte
        # .npy header
        values = info.header_offset + 30 + len(info.filename) + 128
        data[values + 5] ^= 0x01
        saved.write_bytes(bytes(data))
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "CRC" in err and "'src_emb.npy'" in err

    def test_bad_npy_member(self, saved, tmp_path, capsys):
        rewrite(saved, extra=[("notes.txt", b"hello")])
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "'notes.txt'" in err

    @pytest.mark.parametrize("name", ["version", "iteration", "seed",
                                      "config_hash", "vocab"])
    def test_missing_header_member(self, saved, tmp_path, capsys, name):
        rewrite(saved, drop=[name + ".npy"])
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and f"header member {name!r} is missing" in err

    @pytest.mark.parametrize("name,value", [
        ("seed", np.float64(99)), ("iteration", np.zeros(1, "<u8")),
        ("vocab", np.array(["<s>"])),
    ], ids=["float seed", "rank-1 iteration", "str vocab"])
    def test_mistyped_header_member(self, saved, tmp_path, capsys, name,
                                    value):
        rewrite(saved, replace={name + ".npy": npy(value)})
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and f"header member {name!r}" in err

    def test_bad_version(self, saved, tmp_path, capsys):
        rewrite(saved, replace={"version.npy": npy(np.uint64(77))})
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "unsupported version 77" in err

    def test_repeated_tensor_name(self, saved, tmp_path, capsys):
        # zip allows a repeated name, and the last copy would win in numpy
        rewrite(saved, extra=[("tgt_emb.npy", npy(np.zeros((6, 3))))])
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "repeated member 'tgt_emb'" in err

    def test_tensor_not_float64(self, saved, tmp_path, capsys):
        rewrite(saved, replace={"out.b.npy": npy(np.zeros(6, "<f4"))})
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "tensor 'out.b' is float32" in err

    def test_vocab_size_mismatch(self, tmp_path, capsys):
        ckpt = make_checkpoint()
        # model tensors sized for a 6-token vocabulary, but store 7 tokens
        ckpt.vocab = Vocabulary(["aa", "bb", "cc", "dd"])
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        code, err = sample_exit(path, tmp_path, capsys)
        assert code == 3 and "vocabulary size 7" in err

    @pytest.mark.parametrize("content,match", [
        (vocab_bytes(["<s>", "</s>", "<unk>", "aa", "aa", "cc"]),
         "duplicate"),
        (vocab_bytes(["<s>", "</s>", "<unk>", "aa", "<s>", "cc"]),
         "collides with reserved"),
        (vocab_bytes(["aa", "bb", "cc", "<s>", "</s>", "<unk>"]),
         "reserved tokens"),
        (npy(np.frombuffer(b"<s>\n</s>\n<unk>\naa\n\xff\ncc", "|u1")),
         "can't decode"),
    ], ids=["duplicate", "reserved", "reserved not first", "not UTF-8"])
    def test_bad_vocabulary_token(self, saved, tmp_path, capsys, content,
                                  match):
        rewrite(saved, replace={"vocab.npy": content})
        code, err = sample_exit(saved, tmp_path, capsys)
        assert code == 3 and "bad config hash or vocabulary" in err
        assert match in err

    def test_bad_vocabulary_token_exits_3(self, saved, tmp_path, capsys):
        rewrite(saved, replace={"vocab.npy": vocab_bytes(
            ["<s>", "</s>", "<unk>", "aa", "bb", "bb"])})
        src_file = tmp_path / "in.txt"
        src_file.write_text("aa bb\n")
        assert main(["sample", "--checkpoint", str(saved), "--input",
                     str(src_file)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "checkpoint error: bad config hash or vocabulary: duplicate "
            "tokens in vocabulary"]
