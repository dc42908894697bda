"""Binary model checkpoints.

Layout (all integers little-endian u32, all floats little-endian f64):

    "FTCP" | version | config byte length | config text (UTF-8)
    | tensor count | per tensor: name length, name, ndim, dims..., data

Tensors are written in lexicographic name order, so two models with equal
parameters serialize to byte-identical files.  The config text is carried
verbatim and parsed on load: the whole layout (encoder widths, head and
modulated blocks) comes from it, and only the input width from the
tensors, so config text that does not parse, or that describes other
tensors than the file holds, makes the file unreadable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, FormatError, NumericError, ParseError, VersionError
from .rng import RngStream
from .tasks import read_exact, replacing
from .training import ModelState, TrainConfig, build_model

CHECKPOINT_MAGIC = b"FTCP"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: ModelState, config_text: str, path: str) -> None:
    store = model.param_store()
    with replacing([path]) as (tmp,), open(tmp, "xb") as fh:
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


def model_from_store(store: dict[str, Tensor], config: TrainConfig) -> ModelState:
    """Rebuild a model from named tensors and the run configuration saved
    with them.

    The layout is the model that ``build_model`` makes for ``config`` and
    the input width of ``enc.block0.weight``; it modulates iff the store
    holds ``ft.*`` tensors (an encoder saved without its modulation, as
    ``fsdg pretrain`` writes it, holds none).  A store that lacks a tensor
    of that layout, holds one of another shape or one that the layout does
    not hold raises FormatError; ``load_checkpoint`` adds the file path.
    """
    first = store.get("enc.block0.weight")
    if first is None:
        raise FormatError("missing tensor 'enc.block0.weight'")
    if first.ndim != 2:
        raise FormatError(
            f"tensor 'enc.block0.weight' has shape {first.shape}, expected 2 dimensions")
    if first.shape[0] < 1:
        raise FormatError(
            f"tensor 'enc.block0.weight' has shape {first.shape}, expected at least one row")
    if not any(name.startswith("ft.") for name in store):
        config = replace(config, mode="baseline")
    layout = build_model(config, first.shape[0], RngStream(0))
    for name, tensor in layout.params.items():
        if name not in store:
            raise FormatError(f"missing tensor {name!r}")
        if store[name].shape != tensor.shape:
            raise FormatError(
                f"tensor {name!r} has shape {store[name].shape}, expected {tensor.shape}")
    unowned = sorted(set(store) - set(layout.params))
    if unowned:
        raise FormatError(f"tensor {unowned[0]!r} belongs to no part of the model")
    return layout.with_values({name: store[name] for name in layout.params})


def load_checkpoint(path: str) -> tuple[ModelState, str]:
    """Read a checkpoint and rebuild the model its saved config describes;
    config text that does not parse raises FormatError."""
    from .config import parse_config_text

    store, config_text = read_checkpoint(path)
    try:
        return model_from_store(store, parse_config_text(config_text)), config_text
    except (ConfigError, FormatError, ParseError) as err:
        raise FormatError(f"checkpoint {path}: {err}") from None
