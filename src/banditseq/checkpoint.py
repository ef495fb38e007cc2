"""Versioned binary checkpoints: vocabulary + named float64 tensors.

Layout (all integers little-endian):

    magic            4 bytes        b"BNSQ"
    version          u32            currently 1
    iteration        u64
    seed             u64
    config_hash      u32 len + UTF-8 bytes (sha256 hex of the run config)
    vocabulary       u32 count, then per token: u32 len + UTF-8 bytes,
                     in id order (reserved tokens first)
    tensor block     u32 count, then per tensor:
                       u32 name-len + UTF-8 name
                       u32 rank, rank x u64 dims
                       float64 values, row-major
    reserved         u8, always 0

Tensors are written in sorted-name order, each name once, so save -> load
-> save is byte identical. Saving writes a temporary file next to the target
and renames it over the target only once it is complete, so an interrupted
save leaves the previous file as it was. Loading validates the magic, the
version, structural completeness (truncation, a repeated tensor name and a
non-zero reserved byte are reported with the failing byte offset), and that
embedding and output shapes agree with the stored vocabulary.
:meth:`Checkpoint.to_model` then rejects a tensor set that does not fit the
model, naming the missing, unexpected or mis-shaped tensor. Every one of
these is a :class:`CheckpointFormatError`.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import Vocabulary

__all__ = ["Checkpoint", "CheckpointFormatError", "save_checkpoint",
           "load_checkpoint", "atomic_open", "MAGIC", "VERSION"]

MAGIC = b"BNSQ"
VERSION = 1


class CheckpointFormatError(ValueError):
    """Malformed checkpoint: the message names the byte offset of a
    structural error, or the tensor that does not fit the model."""


@dataclass
class Checkpoint:
    """Everything needed to restore a model."""

    vocab: Vocabulary
    tensors: dict
    iteration: int = 0
    seed: int = 0
    config_hash: str = ""

    def to_model(self):
        """The model the tensors describe. A tensor that is missing,
        unexpected or mis-shaped for the vocabulary raises
        :class:`CheckpointFormatError` naming it."""
        from .model import ModelParams

        try:
            return ModelParams.from_tensors(len(self.vocab), self.tensors)
        except (ValueError, IndexError) as exc:
            raise CheckpointFormatError(
                f"tensors do not fit the model: {exc}") from exc


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temporary file next to ``path`` for writing. A clean exit
    renames it over ``path``; an exception removes it, so ``path`` keeps
    either its previous or its complete new contents."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_string(fh, text):
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _write_tensor_block(fh, tensors):
    fh.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f8")
        _write_string(fh, name)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def save_checkpoint(path, ckpt):
    with atomic_open(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQQ", VERSION, ckpt.iteration, ckpt.seed))
        _write_string(fh, ckpt.config_hash)
        tokens = ckpt.vocab.tokens
        fh.write(struct.pack("<I", len(tokens)))
        for tok in tokens:
            _write_string(fh, tok)
        _write_tensor_block(fh, ckpt.tensors)
        fh.write(b"\0")  # reserved
    return path


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise CheckpointFormatError(
                f"truncated file: needed {n} bytes for {what} at offset "
                f"{self.offset}, have {len(self.data) - self.offset}"
            )
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def string(self, what):
        n = self.u32(f"{what} length")
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"bad UTF-8 in {what}: {exc}")

    def tensor_block(self):
        count = self.u32("tensor count")
        tensors = {}
        for i in range(count):
            start = self.offset
            name = self.string(f"tensor {i} name")
            if name in tensors:
                raise CheckpointFormatError(
                    f"repeated tensor name {name!r} at offset {start}")
            rank = self.u32(f"tensor {name!r} rank")
            if rank > 8:
                raise CheckpointFormatError(
                    f"implausible rank {rank} for tensor {name!r} at offset "
                    f"{self.offset - 4}"
                )
            dims = struct.unpack(
                f"<{rank}Q", self.take(8 * rank, f"dims of {name!r}")
            )
            size = 1
            for d in dims:
                size *= d
            raw = self.take(8 * size, f"values of {name!r}")
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        return tensors


def load_checkpoint(path):
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointFormatError(
            f"bad magic {magic!r} at offset 0, expected {MAGIC!r}"
        )
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointFormatError(
            f"unsupported version {version} at offset 4 (supported: {VERSION})"
        )
    iteration = r.u64("iteration")
    seed = r.u64("seed")
    config_hash = r.string("config hash")
    token_count = r.u32("vocabulary count")
    tokens = [r.string(f"vocabulary token {i}") for i in range(token_count)]
    if tuple(tokens[:3]) != Vocabulary.RESERVED:
        raise CheckpointFormatError(
            "vocabulary does not start with the reserved tokens"
        )
    vocab = Vocabulary(tokens[3:])
    tensors = r.tensor_block()
    reserved = r.u8("reserved byte")
    if reserved != 0:
        raise CheckpointFormatError(
            f"reserved byte {reserved} at offset {r.offset - 1}, expected 0")
    if r.offset != len(data):
        raise CheckpointFormatError(
            f"{len(data) - r.offset} trailing bytes after offset {r.offset}"
        )
    _check_vocab_consistency(tensors, len(vocab))
    return Checkpoint(vocab=vocab, tensors=tensors, iteration=iteration,
                      seed=seed, config_hash=config_hash)


def _check_vocab_consistency(tensors, vocab_size):
    for name in ("src_emb", "tgt_emb", "out.W", "out.b"):
        if name in tensors and tensors[name].shape[:1] != (vocab_size,):
            raise CheckpointFormatError(
                f"tensor {name!r} has shape {tensors[name].shape} but needs "
                f"one row per token of the {vocab_size}-token vocabulary"
            )
