"""Binary model checkpoints.

Layout (all integers little-endian u32, all floats little-endian f64):

    "FTCP" | version | config byte length | config text (UTF-8)
    | tensor count | per tensor: name length, name, ndim, dims..., data

Tensors are written in lexicographic name order, so two models with equal
parameters serialize to byte-identical files.  The config text is carried
verbatim and parsed on load to recover the head kind and, where the
tensor names cannot tell, the modulation layout.
"""

from __future__ import annotations

import io
import logging
import math
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .encoder import EncoderConfig
from .errors import (
    ConfigError,
    FormatError,
    LengthError,
    NumericError,
    ParseError,
    VersionError,
)
from .training import ModelState, TrainConfig, assemble_model

log = logging.getLogger(__name__)

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


def _read_exact(fh: io.BufferedReader, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise LengthError(f"checkpoint {fh.name}: truncated while reading {what}")
    return data


def _utf8(raw: bytes, path: str, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"checkpoint {path}: {what} is not UTF-8") from None


def read_checkpoint(path: str) -> tuple[ParamStore, str]:
    """Raw parameters and config text, without model reconstruction."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"checkpoint {path}: bad magic {magic!r}")
        version, config_len = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version > CHECKPOINT_VERSION:
            raise VersionError(f"checkpoint {path}: version {version} not supported")
        config_text = _utf8(_read_exact(fh, config_len, "config text"), path, "config text")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        store = ParamStore()
        for index in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _utf8(_read_exact(fh, name_len, "name"), path, f"the name of tensor {index}")
            if name in store:
                raise FormatError(f"checkpoint {path}: tensor {name!r} appears twice")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = [
                struct.unpack("<I", _read_exact(fh, 4, "dimension"))[0]
                for _ in range(ndim)
            ]
            payload = _read_exact(fh, 8 * math.prod(dims), f"tensor {name}")
            data = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            try:
                store.add(name, ad.leaf(data))
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


def _check_shape(store: ParamStore, name: str,
                 want: tuple[int | None, ...]) -> tuple[int, ...]:
    """``name``'s shape, which must be ``want``, where None matches any size."""
    shape = store[name].shape
    if len(shape) != len(want) or any(w is not None and s != w for s, w in zip(shape, want)):
        expected = str(want).replace("None", "*")
        raise FormatError(f"tensor {name!r} has shape {shape}, expected {expected}")
    return shape


def _check_shapes(store: ParamStore, n_blocks: int) -> None:
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


def model_from_store(store: ParamStore, head_kind: str,
                     config: TrainConfig | None = None) -> ModelState:
    """Rebuild a model from named tensors; layout is implied by the names.

    Names cannot tell a model without modulation from one whose layout
    flags no block: neither owns an ``ft.*`` tensor.  When there is none,
    ``config``, the run configuration saved with the tensors, supplies the
    block flags, and the model modulates iff its mode is ft or lft and it
    flags no block (an encoder saved without its modulation, as
    ``fsdg pretrain`` writes it, flags blocks but holds no ``ft.*`` tensor).
    A store that lacks a tensor (a relation head needs ``head.rel.*``),
    holds one that no part of the model owns, whose encoder blocks are not
    numbered 0, 1, ... or whose tensor shapes do not fit together raises
    FormatError; ``load_checkpoint`` adds the file path.
    """
    block_ids = sorted({_block_id(n) for n in store.names() if n.startswith("enc.block")})
    if block_ids != list(range(len(block_ids))) or not block_ids:
        raise FormatError("encoder blocks are not a contiguous range")
    try:
        if head_kind == "relation" and "head.rel.w1" not in store:
            raise KeyError("head.rel.w1")
        _check_shapes(store, len(block_ids))
        weights = [store[f"enc.block{i}.weight"] for i in block_ids]
        ft_flags = tuple(f"ft.block{i}.gamma" in store for i in block_ids)
        has_ft = any(ft_flags)
        if not has_ft:
            ft_flags = ()
            if config is not None and len(config.ft_blocks) == len(block_ids):
                ft_flags = config.ft_blocks
                has_ft = config.mode in ("ft", "lft") and not any(ft_flags)
        enc_config = EncoderConfig(weights[0].shape[0], tuple(w.shape[1] for w in weights),
                                   ft_flags)
        model = assemble_model(enc_config, head_kind, store, with_ft=has_ft)
    except KeyError as err:
        raise FormatError(f"missing tensor {err}") from None
    unowned = sorted(set(store.names()) - set(model.param_store().names()))
    if unowned:
        raise FormatError(f"tensor {unowned[0]!r} belongs to no part of the model")
    return model


def load_checkpoint(path: str) -> tuple[ModelState, str]:
    """Read a checkpoint and rebuild the model it describes."""
    from .config import parse_config_text

    store, config_text = read_checkpoint(path)
    try:
        config = parse_config_text(config_text)
    except (ConfigError, ParseError) as err:
        config = None
        head_kind = "relation" if "head.rel.w1" in store else "proto"
        log.warning("checkpoint %s: config text not understood (%s); head kind %r "
                    "guessed from the tensor names", path, err, head_kind)
    else:
        head_kind = config.head
    try:
        return model_from_store(store, head_kind, config), config_text
    except FormatError as err:
        raise FormatError(f"checkpoint {path}: {err}") from None
