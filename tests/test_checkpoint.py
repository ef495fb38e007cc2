import os

import numpy as np
import pytest

from banditseq.checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from banditseq.model import ModelParams, Vocabulary


def make_checkpoint(vocab_tokens=("aa", "bb", "cc"), seed=0, optimizer=None):
    vocab = Vocabulary(list(vocab_tokens))
    params = ModelParams(len(vocab), embed_size=3, hidden_size=2, seed=seed)
    return Checkpoint(vocab=vocab, tensors=params.copy_values(),
                      iteration=17, seed=99, config_hash="deadbeef",
                      optimizer=optimizer)


class TestRoundTrip:
    def test_bit_exact_parameters(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.iteration == 17
        assert loaded.seed == 99
        assert loaded.config_hash == "deadbeef"
        assert loaded.vocab.tokens == ckpt.vocab.tokens
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(loaded.tensors[name], arr)

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
        # the optimizer block comes after the parameters, so this fails
        # part-way through writing
        broken = make_checkpoint(seed=2, optimizer={"m": "not a number"})
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.bnsq"]

    def test_optimizer_block_round_trips(self, tmp_path):
        opt = {"m.out.b": np.arange(6.0), "t": np.array(3.0)}
        ckpt = make_checkpoint(optimizer=opt)
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.optimizer["m.out.b"], opt["m.out.b"])
        assert loaded.optimizer["t"] == 3.0

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

    def test_vocab_size_mismatch(self, tmp_path):
        ckpt = make_checkpoint()
        # model tensors sized for a 6-token vocabulary, but dump 7 tokens
        ckpt.vocab = Vocabulary(["aa", "bb", "cc", "dd"])
        path = tmp_path / "m.bnsq"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointFormatError, match="vocabulary"):
            load_checkpoint(path)

    def test_magic_constant(self):
        assert MAGIC == b"BNSQ"
