import dataclasses
import os
import struct

import numpy as np
import pytest

from banditseq.checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    MAGIC,
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

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint(seed=1))
        before = path.read_bytes()
        # "zz" sorts after every model tensor, so this fails part-way
        # through writing
        broken = make_checkpoint(seed=2)
        broken.tensors["zz"] = "not a number"
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.bnsq"]

    def test_to_model_rebuilds(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        model = load_checkpoint(path).to_model()
        assert model.vocab_size == len(ckpt.vocab)


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint())
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint())
        data = bytearray(path.read_bytes())
        data[4:8] = (77).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [3, 7, 20, 60, 200])
    def test_truncation_reports_offset(self, tmp_path, keep):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint())
        data = path.read_bytes()
        assert keep < len(data)
        path.write_bytes(data[:keep])
        with pytest.raises(CheckpointFormatError, match="offset"):
            load_checkpoint(path)

    def test_truncation_mid_tensor_values(self, tmp_path):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint())
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 9])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [1, 2, 255])
    def test_nonzero_reserved_byte(self, tmp_path, value):
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, make_checkpoint())
        data = bytearray(path.read_bytes())
        assert data[-1] == 0
        data[-1] = value
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError,
                           match=f"offset {len(data) - 1}"):
            load_checkpoint(path)

    def test_repeated_tensor_name(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        # the tensor count follows the header and the vocabulary
        count_at = 4 + 4 + 8 + 8 + 4 + len(ckpt.config_hash) + 4 + sum(
            4 + len(tok.encode()) for tok in ckpt.vocab.tokens)
        count = struct.unpack_from("<I", data, count_at)[0]
        assert count == len(ckpt.tensors)
        # repeat the last entry, tgt_emb, before the reserved byte: 37
        # entries for the model's 36 tensors
        arr = ckpt.tensors["tgt_emb"]
        entry = data[-1 - (4 + 7 + 4 + 8 * arr.ndim + 8 * arr.size):-1]
        assert entry[4:11] == b"tgt_emb"
        path.write_bytes(data[:count_at] + struct.pack("<I", count + 1)
                         + data[count_at + 4:-1] + entry + data[-1:])
        with pytest.raises(CheckpointFormatError,
                           match=f"'tgt_emb' at offset {len(data) - 1}"):
            load_checkpoint(path)

    def test_vocab_size_mismatch(self, tmp_path):
        ckpt = make_checkpoint()
        # model tensors sized for a 6-token vocabulary, but dump 7 tokens
        ckpt.vocab = Vocabulary(["aa", "bb", "cc", "dd"])
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointFormatError, match="vocabulary"):
            load_checkpoint(path)

    @staticmethod
    def _with_token_replaced(path, old, new):
        """Save a checkpoint whose vocabulary token ``old`` reads ``new``."""
        save_checkpoint(path, make_checkpoint(("aa", "bb", "xyz")))
        data = path.read_bytes()
        entry = struct.pack("<I", len(old)) + old.encode()
        assert data.count(entry) == 1 and len(new) == len(old)
        path.write_bytes(data.replace(entry, struct.pack("<I", len(new))
                                      + new.encode()))

    @pytest.mark.parametrize("old,new,match", [
        ("bb", "aa", "duplicate"), ("xyz", "<s>", "collides with reserved"),
    ], ids=["duplicate", "reserved"])
    def test_bad_vocabulary_token(self, tmp_path, old, new, match):
        path = tmp_path / "m.bnsq"
        self._with_token_replaced(path, old, new)
        with pytest.raises(CheckpointFormatError, match=match):
            load_checkpoint(path)

    def test_bad_vocabulary_token_exits_3(self, tmp_path, capsys):
        path = tmp_path / "m.bnsq"
        self._with_token_replaced(path, "bb", "aa")
        src_file = tmp_path / "in.txt"
        src_file.write_text("aa bb\n")
        assert main(["sample", "--checkpoint", str(path), "--input",
                     str(src_file)]) == 3
        assert "duplicate" in capsys.readouterr().err

    def test_magic_constant(self):
        assert MAGIC == b"BNSQ"
