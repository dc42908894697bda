"""Binary model checkpoints.

Layout (all integers little-endian u32, all floats little-endian f64):

    "FTCP" | version | config byte length | config text (UTF-8)
    | tensor count | per tensor: name length, name, ndim, dims..., data

Tensors are written in lexicographic name order, so two models with equal
parameters serialize to byte-identical files.  The config text is carried
verbatim and parsed on load: the head kind and the modulated blocks come
from it, so config text that does not parse makes the file unreadable.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import EncoderConfig
from .errors import ConfigError, FormatError, NumericError, ParseError, VersionError
from .tasks import read_exact
from .training import ModelState, TrainConfig

CHECKPOINT_MAGIC = b"FTCP"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: ModelState, config_text: str, path: str) -> None:
    store = model.param_store()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        payload = config_text.encode("utf-8")
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(payload)))
        fh.write(payload)
        fh.write(struct.pack("<I", len(store)))
        for name, tensor in store.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", tensor.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def _utf8(raw: bytes, path: str, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"checkpoint {path}: {what} is not UTF-8") from None


def read_checkpoint(path: str) -> tuple[dict[str, Tensor], str]:
    """Raw parameters and config text, without model reconstruction."""
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic", "checkpoint")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"checkpoint {path}: bad magic {magic!r}")
        version, config_len = struct.unpack("<II", read_exact(fh, 8, "header", "checkpoint"))
        if version > CHECKPOINT_VERSION:
            raise VersionError(f"checkpoint {path}: version {version} not supported")
        raw = read_exact(fh, config_len, "config text", "checkpoint")
        config_text = _utf8(raw, path, "config text")
        (count,) = struct.unpack("<I", read_exact(fh, 4, "tensor count", "checkpoint"))
        store: dict[str, Tensor] = {}
        for index in range(count):
            (name_len,) = struct.unpack("<I", read_exact(fh, 4, "name length", "checkpoint"))
            raw = read_exact(fh, name_len, "name", "checkpoint")
            name = _utf8(raw, path, f"the name of tensor {index}")
            if name in store:
                raise FormatError(f"checkpoint {path}: tensor {name!r} appears twice")
            (ndim,) = struct.unpack("<I", read_exact(fh, 4, "rank", "checkpoint"))
            dims = [
                struct.unpack("<I", read_exact(fh, 4, "dimension", "checkpoint"))[0]
                for _ in range(ndim)
            ]
            payload = read_exact(fh, 8 * math.prod(dims), f"tensor {name}", "checkpoint")
            data = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            try:
                store[name] = ad.leaf(data)
            except NumericError:
                raise FormatError(
                    f"checkpoint {path}: tensor {name!r} has non-finite values") from None
        if fh.read(1):
            raise FormatError(f"checkpoint {path}: trailing bytes after the last tensor")
    return store, config_text


def _block_id(name: str) -> int:
    try:
        return int(name.split(".")[1][len("block"):])
    except ValueError:
        raise FormatError(f"tensor {name!r} names no encoder block number") from None


def _check_shape(store: dict[str, Tensor], name: str,
                 want: tuple[int | None, ...]) -> tuple[int, ...]:
    """``name``'s shape, which must be ``want``, where None matches any size."""
    shape = store[name].shape
    if len(shape) != len(want) or any(w is not None and s != w for s, w in zip(shape, want)):
        expected = str(want).replace("None", "*")
        raise FormatError(f"tensor {name!r} has shape {shape}, expected {expected}")
    return shape


def _check_shapes(store: dict[str, Tensor], n_blocks: int) -> None:
    """Every tensor's shape against the layout the block weights imply:
    block i's weight maps block i-1's width to its own, and its per-channel
    tensors, the modulation ones included, have that width."""
    width = None
    for i in range(n_blocks):
        width = _check_shape(store, f"enc.block{i}.weight", (width, None))[1]
        for field in ("bias", "bn_scale", "bn_shift"):
            _check_shape(store, f"enc.block{i}.{field}", (width,))
        for field in ("gamma", "beta"):
            if f"ft.block{i}.{field}" in store:
                _check_shape(store, f"ft.block{i}.{field}", (width,))
    if "head.rel.w1" in store:
        hidden = _check_shape(store, "head.rel.w1", (2 * width, None))[1]
        _check_shape(store, "head.rel.b1", (hidden,))
        _check_shape(store, "head.rel.w2", (hidden, 1))
        _check_shape(store, "head.rel.b2", (1,))


def model_from_store(store: dict[str, Tensor], config: TrainConfig) -> ModelState:
    """Rebuild a model from named tensors and the run configuration saved
    with them.

    The encoder blocks and their widths come from the tensors, the head and
    the modulated blocks from ``config``; the model modulates iff the store
    holds ``ft.*`` tensors (an encoder saved without its modulation, as
    ``fsdg pretrain`` writes it, holds none).  A store that lacks a tensor
    of that layout, holds one that no part of the model owns, whose encoder
    blocks are not numbered 0, 1, ... or whose tensor shapes do not fit
    together raises FormatError; ``load_checkpoint`` adds the file path.
    """
    block_ids = sorted({_block_id(n) for n in store if n.startswith("enc.block")})
    if block_ids != list(range(len(block_ids))) or not block_ids:
        raise FormatError("encoder blocks are not a contiguous range")
    names = [f"enc.block{i}.{field}" for i in block_ids
             for field in ("weight", "bias", "bn_scale", "bn_shift")]
    if config.head == "relation":
        names += ["head.rel.w1", "head.rel.b1", "head.rel.w2", "head.rel.b2"]
    try:
        _check_shapes(store, len(block_ids))
        weights = [store[f"enc.block{i}.weight"] for i in block_ids]
        encoder = EncoderConfig(weights[0].shape[0], tuple(w.shape[1] for w in weights),
                                config.ft_blocks)
        if any(n.startswith("ft.") for n in store):
            names += [f"ft.block{i}.{field}" for i in encoder.flagged_blocks
                      for field in ("gamma", "beta")]
        params = {name: store[name] for name in names}
    except KeyError as err:
        raise FormatError(f"missing tensor {err}") from None
    except ConfigError as err:
        raise FormatError(str(err)) from None
    unowned = sorted(set(store) - set(names))
    if unowned:
        raise FormatError(f"tensor {unowned[0]!r} belongs to no part of the model")
    return ModelState(config.head, encoder, params)


def load_checkpoint(path: str) -> tuple[ModelState, str]:
    """Read a checkpoint and rebuild the model its saved config describes;
    config text that does not parse raises FormatError."""
    from .config import parse_config_text

    store, config_text = read_checkpoint(path)
    try:
        return model_from_store(store, parse_config_text(config_text)), config_text
    except (ConfigError, FormatError, ParseError) as err:
        raise FormatError(f"checkpoint {path}: {err}") from None
