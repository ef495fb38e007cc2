"""Versioned checkpoints: vocabulary + named float64 tensors.

A checkpoint is an uncompressed zip archive of ``.npy`` members, which
``numpy.load(path, allow_pickle=False)`` also reads; README.md lists them.
Members are written in sorted-name order with a fixed timestamp, so save ->
load -> save is byte identical, and through ``data.atomic_open``, so an
interrupted save leaves the previous file as it was. Whatever the loader
or :meth:`Checkpoint.to_model` rejects raises a
:class:`CheckpointFormatError` that names the member or tensor at fault.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .data import atomic_open
from .model import ModelParams, Vocabulary

__all__ = ["Checkpoint", "CheckpointFormatError", "save_checkpoint",
           "load_checkpoint", "VERSION"]

VERSION = 2
# each header member's dtype and rank
_HEADER = {"version": ("<u8", 0), "iteration": ("<u8", 0), "seed": ("<u8", 0),
           "config_hash": ("|u1", 1), "vocab": ("|u1", 1)}
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # the earliest time a zip entry can hold


class CheckpointFormatError(ValueError):
    """Malformed checkpoint, or tensors that do not fit the model."""


@dataclass
class Checkpoint:
    """Everything needed to restore a model."""

    vocab: Vocabulary
    tensors: dict
    iteration: int = 0
    seed: int = 0
    config_hash: str = ""

    def to_model(self):
        """The model the tensors describe; a tensor that is missing,
        unexpected or mis-shaped raises :class:`CheckpointFormatError`."""
        try:
            return ModelParams.from_tensors(len(self.vocab), self.tensors)
        except (ValueError, IndexError) as exc:
            raise CheckpointFormatError(
                f"tensors do not fit the model: {exc}") from exc


def _utf8(text):
    return np.frombuffer(text.encode("utf-8"), dtype="|u1")


def save_checkpoint(path, ckpt):
    if "\n" in "".join(ckpt.vocab.tokens):
        raise ValueError("a vocabulary token contains a newline")
    if _HEADER.keys() & ckpt.tensors.keys():
        raise ValueError("a tensor is named like a header member")
    members = {"version": VERSION, "iteration": ckpt.iteration,
               "seed": ckpt.seed, "config_hash": _utf8(ckpt.config_hash),
               "vocab": _utf8("\n".join(ckpt.vocab.tokens)), **ckpt.tensors}
    with atomic_open(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name in sorted(members):
            arr = np.asarray(members[name], order="C",
                             dtype=_HEADER.get(name, ("<f8",))[0])
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            with zf.open(info, "w") as out:
                np.lib.format.write_array(out, arr, allow_pickle=False)
    return path


def load_checkpoint(path):
    try:
        zf = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise CheckpointFormatError(
            f"not a checkpoint archive: {exc}") from None
    arrays = {}
    with zf:
        for info in zf.infolist():
            name = info.filename.removesuffix(".npy")
            if name in arrays:
                raise CheckpointFormatError(f"repeated member {name!r}")
            try:
                with zf.open(info) as member:
                    arrays[name] = np.lib.format.read_array(
                        member, allow_pickle=False)
            except (zipfile.BadZipFile, ValueError, EOFError) as exc:
                raise CheckpointFormatError(
                    f"bad member {info.filename!r}: {exc}") from None
    header = {}
    for name, (dtype, ndim) in _HEADER.items():
        arr = header[name] = arrays.pop(name, None)
        if arr is None or arr.dtype != dtype or arr.ndim != ndim:
            raise CheckpointFormatError(
                f"header member {name!r} is missing or not "
                f"{np.dtype(dtype)} of rank {ndim}")
    if header["version"] != VERSION:
        raise CheckpointFormatError(
            f"unsupported version {header['version']} (supported: {VERSION})")
    try:
        config_hash = header["config_hash"].tobytes().decode("utf-8")
        tokens = header["vocab"].tobytes().decode("utf-8").split("\n")
        if tuple(tokens[:3]) != Vocabulary.RESERVED:
            raise ValueError("it does not start with the reserved tokens")
        vocab = Vocabulary(tokens[3:])
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise CheckpointFormatError(
            f"bad config hash or vocabulary: {exc}") from None
    for name, arr in arrays.items():
        if arr.dtype != "<f8":
            raise CheckpointFormatError(
                f"tensor {name!r} is {arr.dtype}, expected float64")
    return Checkpoint(vocab=vocab, tensors=arrays,
                      iteration=int(header["iteration"]),
                      seed=int(header["seed"]), config_hash=config_hash)
