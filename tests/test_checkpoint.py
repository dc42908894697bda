import logging
import re
import struct

import numpy as np
import pytest

from fsdg import checkpoint as ck
from fsdg import evaluation as ev
from fsdg import training as tr
from fsdg.config import format_config
from fsdg.errors import FormatError, LengthError, VersionError
from fsdg.rng import RngStream
from fsdg.tasks import SyntheticDomainSpec, generate_synthetic_domain


def toy_model(mode="lft", head="proto", seed=2):
    cfg = tr.TrainConfig(mode=mode, head=head, encoder_widths=(8, 4),
                         iterations=0, seed=seed)
    return cfg, tr.build_model(cfg, 6, RngStream(seed))


def toy_domain(seed=60):
    return generate_synthetic_domain(SyntheticDomainSpec(
        master_seed=seed, domain_seed=0, n_classes=6, dim=6,
        samples_per_class=20, latent_dim=3))


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("mode,head", [
    ("baseline", "proto"), ("ft", "matching"), ("lft", "relation")])
def test_round_trip_preserves_every_tensor(tmp_path, mode, head):
    cfg, model = toy_model(mode=mode, head=head)
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    loaded, text = ck.load_checkpoint(path)
    assert loaded.head_kind == head
    want = model.param_store()
    got = loaded.param_store()
    assert got.names() == want.names()
    for name in want.names():
        assert np.array_equal(got[name].data, want[name].data), name
    assert f"head = {head}" in text


def test_round_trip_is_byte_stable(tmp_path):
    cfg, model = toy_model()
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    ck.save_checkpoint(model, format_config(cfg), p1)
    loaded, text = ck.load_checkpoint(p1)
    ck.save_checkpoint(loaded, text, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_reloaded_model_evaluates_identically(tmp_path):
    domain = toy_domain()
    cfg = tr.TrainConfig(mode="ft", head="proto", alpha=0.05, iterations=25,
                         way=3, shot=2, query=4, seed=7, encoder_widths=(8, 4))
    model, _ = tr.train_loop(cfg, [domain])
    path = str(tmp_path / "trained.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    a = ev.evaluate(model, domain, 3, 2, trials=15, seed=9, n_query=4)
    b = ev.evaluate(loaded, domain, 3, 2, trials=15, seed=9, n_query=4)
    assert a.accuracies == b.accuracies


def test_header_layout(tmp_path):
    cfg, model = toy_model()
    path = str(tmp_path / "model.ckpt")
    text = format_config(cfg)
    ck.save_checkpoint(model, text, path)
    raw = open(path, "rb").read()
    assert raw[:4] == b"FTCP"
    version, config_len = struct.unpack("<II", raw[4:12])
    assert version == 1
    assert raw[12:12 + config_len].decode("utf-8") == text
    (count,) = struct.unpack("<I", raw[12 + config_len:16 + config_len])
    assert count == len(model.param_store())


def test_tensors_stored_in_lexicographic_order(tmp_path):
    cfg, model = toy_model(head="relation")
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    raw = open(path, "rb").read()
    offset = 12 + struct.unpack("<II", raw[4:12])[1] + 4
    names = []
    while offset < len(raw):
        (name_len,) = struct.unpack("<I", raw[offset:offset + 4])
        offset += 4
        names.append(raw[offset:offset + name_len].decode("utf-8"))
        offset += name_len
        (ndim,) = struct.unpack("<I", raw[offset:offset + 4])
        offset += 4
        dims = struct.unpack(f"<{ndim}I", raw[offset:offset + 4 * ndim])
        offset += 4 * ndim
        n_values = int(np.prod(dims)) if ndim else 1
        offset += 8 * n_values
    assert names == sorted(names)
    assert names == model.param_store().names()


# ---------------------------------------------------------------------------
# error taxonomy


def test_bad_magic(tmp_path):
    cfg, model = toy_model()
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    raw = open(path, "rb").read()
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(b"ZZZZ" + raw[4:])
    with pytest.raises(FormatError, match="bad.ckpt: bad magic b'ZZZZ'"):
        ck.read_checkpoint(bad)


def test_future_version_rejected(tmp_path):
    cfg, model = toy_model()
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    raw = open(path, "rb").read()
    bad = str(tmp_path / "future.ckpt")
    open(bad, "wb").write(raw[:4] + struct.pack("<I", 2) + raw[8:])
    with pytest.raises(VersionError, match="future.ckpt: version 2 not supported"):
        ck.read_checkpoint(bad)


def test_truncation_raises_length_error(tmp_path):
    cfg, model = toy_model()
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    raw = open(path, "rb").read()
    for cut in (2, 10, len(raw) // 2, len(raw) - 3):
        bad = str(tmp_path / f"cut{cut}.ckpt")
        open(bad, "wb").write(raw[:cut])
        with pytest.raises(LengthError, match=f"cut{cut}.ckpt: truncated while reading"):
            ck.read_checkpoint(bad)


def test_trailing_bytes_rejected(tmp_path):
    cfg, model = toy_model()
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    raw = open(path, "rb").read()
    bad = str(tmp_path / "extra.ckpt")
    open(bad, "wb").write(raw + b"\x00")
    with pytest.raises(FormatError):
        ck.read_checkpoint(bad)


def _raw_checkpoint(path, config, tensors):
    """A checkpoint written byte by byte: config is bytes, tensors are
    (name bytes, array) pairs in file order."""
    parts = [ck.CHECKPOINT_MAGIC, struct.pack("<II", ck.CHECKPOINT_VERSION, len(config)),
             config, struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<I", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f8").tobytes()]
    open(path, "wb").write(b"".join(parts))


def test_non_finite_payload_rejected_naming_path_and_tensor(tmp_path):
    path = str(tmp_path / "nan.ckpt")
    _raw_checkpoint(path, b"", [(b"a", np.ones(2)), (b"b", np.array([1.0, np.nan]))])
    with pytest.raises(FormatError, match=r"nan\.ckpt: tensor 'b' has non-finite values"):
        ck.read_checkpoint(path)


@pytest.mark.parametrize("config,name,what", [
    (b"\xff", b"a", "config text"),
    (b"", b"\xffa", "the name of tensor 0"),
], ids=["config", "name"])
def test_non_utf8_text_rejected_naming_path(tmp_path, config, name, what):
    path = str(tmp_path / "bytes.ckpt")
    _raw_checkpoint(path, config, [(name, np.ones(2))])
    with pytest.raises(FormatError, match=rf"bytes\.ckpt: {what} is not UTF-8"):
        ck.read_checkpoint(path)


def test_repeated_tensor_name_rejected_naming_path_and_tensor(tmp_path):
    path = str(tmp_path / "dup.ckpt")
    _raw_checkpoint(path, b"", [(b"a", np.ones(2)), (b"b", np.ones(1))])
    store, _ = ck.read_checkpoint(path)
    assert store.names() == ["a", "b"]
    _raw_checkpoint(path, b"", [(b"a", np.ones(2)), (b"a", np.ones(1))])
    with pytest.raises(FormatError, match=r"dup\.ckpt: tensor 'a' appears twice"):
        ck.read_checkpoint(path)


def test_missing_encoder_tensor_rejected(tmp_path):
    cfg, model = toy_model()
    store = model.param_store()
    from fsdg.autodiff import ParamStore

    partial = ParamStore([(n, t) for n, t in store.items()
                          if n != "enc.block1.bias"])
    with pytest.raises(FormatError):
        ck.model_from_store(partial, "proto")


def test_non_contiguous_blocks_rejected():
    from fsdg import autodiff as ad
    from fsdg.autodiff import ParamStore

    store = ParamStore()
    for i in (0, 2):
        store.add(f"enc.block{i}.weight", ad.leaf(np.ones((3, 3))))
        store.add(f"enc.block{i}.bias", ad.leaf(np.zeros(3)))
        store.add(f"enc.block{i}.bn_scale", ad.leaf(np.ones(3)))
        store.add(f"enc.block{i}.bn_shift", ad.leaf(np.zeros(3)))
    with pytest.raises(FormatError):
        ck.model_from_store(store, "proto")


def test_load_names_the_file_of_a_checkpoint_missing_a_tensor(tmp_path):
    cfg, model = toy_model(head="relation")
    path = str(tmp_path / "nohead.ckpt")
    _raw_checkpoint(path, format_config(cfg).encode(),
                    [(n.encode(), t.data) for n, t in model.param_store().items()
                     if n != "head.rel.w2"])
    with pytest.raises(FormatError, match=r"nohead\.ckpt: missing tensor 'head\.rel\.w2'$"):
        ck.load_checkpoint(path)


def test_relation_config_without_head_tensors_rejected_naming_file(tmp_path):
    # A proto model saved under a relation-head config holds no head.rel.*.
    _, model = toy_model(head="proto")
    cfg, _ = toy_model(head="relation")
    path = str(tmp_path / "nohead.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    with pytest.raises(FormatError, match=r"nohead\.ckpt: missing tensor 'head\.rel\.w1'$"):
        ck.load_checkpoint(path)


@pytest.mark.parametrize("extra", ["foo.bar", "ft.block5.gamma", "enc.block0.extra"])
def test_tensor_of_no_part_rejected_naming_file_and_tensor(tmp_path, extra):
    cfg, model = toy_model()
    tensors = {n: t.data for n, t in model.param_store().items()}
    tensors[extra] = np.ones(3)
    path = str(tmp_path / "extra.ckpt")
    _raw_checkpoint(path, format_config(cfg).encode(),
                    [(n.encode(), tensors[n]) for n in sorted(tensors)])
    message = f"extra.ckpt: tensor {extra!r} belongs to no part of the model"
    with pytest.raises(FormatError, match=re.escape(message) + "$"):
        ck.load_checkpoint(path)


def test_load_names_the_file_of_non_contiguous_blocks(tmp_path):
    path = str(tmp_path / "gap.ckpt")
    _raw_checkpoint(path, b"", [(f"enc.block{i}.{p}".encode(), np.ones(3))
                                for i in (0, 2) for p in ("weight", "bias")])
    with pytest.raises(FormatError,
                       match=r"gap\.ckpt: encoder blocks are not a contiguous range$"):
        ck.load_checkpoint(path)


# Each case changes one tensor of a relation-head lft model with input width
# 6 and encoder widths (4, 3), then loads it.  The expected shape is None
# for a block name without a number.
@pytest.mark.parametrize("name,data,expected", [
    ("enc.blockA.weight", np.ones((6, 4)), None),
    ("enc.block", np.ones(4), None),
    ("enc.block0.weight", np.ones(24), "(*, *)"),
    ("enc.block1.bias", np.zeros(7), "(3,)"),
    ("enc.block1.weight", np.ones((5, 3)), "(4, *)"),
    ("enc.block0.bn_scale", np.ones(3), "(4,)"),
    ("ft.block1.gamma", np.ones(4), "(3,)"),
    ("head.rel.w1", np.ones((5, 3)), "(6, *)"),
    ("head.rel.b1", np.ones(4), "(3,)"),
    ("head.rel.w2", np.ones((3, 2)), "(3, 1)"),
    ("head.rel.b2", np.ones((1, 1)), "(1,)"),
], ids=["block-letter", "block-no-number", "weight-1d", "bias-width", "weight-rows",
        "bn-width", "ft-width", "rel-w1-rows", "rel-b1", "rel-w2", "rel-b2"])
def test_load_rejects_a_malformed_layout_naming_file_and_tensor(tmp_path, name, data, expected):
    cfg = tr.TrainConfig(mode="lft", head="relation", encoder_widths=(4, 3), iterations=0)
    model = tr.build_model(cfg, 6, RngStream(4))
    tensors = {n: t.data for n, t in model.param_store().items()}
    assert name not in tensors or tensors[name].shape != data.shape
    tensors[name] = data
    path = str(tmp_path / "bad.ckpt")
    _raw_checkpoint(path, format_config(cfg).encode(),
                    [(n.encode(), tensors[n]) for n in sorted(tensors)])
    problem = ("names no encoder block number" if expected is None
               else f"has shape {data.shape}, expected {expected}")
    with pytest.raises(FormatError, match=re.escape(f"bad.ckpt: tensor {name!r} {problem}") + "$"):
        ck.load_checkpoint(path)


# ---------------------------------------------------------------------------
# reconstruction details


def test_ft_flags_recovered_from_names(tmp_path):
    cfg = tr.TrainConfig(mode="lft", encoder_widths=(8, 4), ft_blocks=(False, True),
                         iterations=0)
    model = tr.build_model(cfg, 6, RngStream(4))
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    assert loaded.encoder.config.ft_blocks == (False, True)
    assert loaded.ft is not None and loaded.ft.n_layers == 1
    assert loaded.ft.gammas[0].shape == (4,)


def test_lft_model_flagging_no_block_round_trips(tmp_path):
    # Such a model owns no ft tensor; the config text says it still modulates.
    cfg = tr.TrainConfig(mode="lft", encoder_widths=(8, 4), ft_blocks=(False, False),
                         iterations=0)
    model = tr.build_model(cfg, 6, RngStream(4))
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    assert loaded.encoder.config.ft_blocks == (False, False)
    assert loaded.ft is not None and loaded.ft.n_layers == 0
    assert loaded.param_store().names() == model.param_store().names()

    domain = toy_domain()
    trained, rows = tr.train_loop(tr.TrainConfig(
        mode="lft", encoder_widths=(8, 4), ft_blocks=(False, False), iterations=2,
        way=3, shot=2, query=3, alpha=0.01), [domain], init=loaded)
    assert len(rows) == 2 and trained.ft.n_layers == 0


def test_encoder_saved_without_modulation_takes_flags_from_config(tmp_path):
    cfg = tr.TrainConfig(mode="ft", encoder_widths=(8, 4), ft_blocks=(False, True),
                         iterations=0)
    model = tr.build_model(cfg, 6, RngStream(4))
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(tr.ModelState(model.head_kind, model.encoder, None, None),
                       format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    assert loaded.ft is None
    assert loaded.encoder.config.ft_blocks == (False, True)


def test_baseline_checkpoint_has_no_ft(tmp_path):
    cfg, model = toy_model(mode="baseline")
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    assert loaded.ft is None
    assert loaded.head is None


def test_head_kind_falls_back_to_structure_for_foreign_config(tmp_path, caplog):
    cfg, model = toy_model(head="relation")
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, "not a config at all", path)
    with caplog.at_level(logging.WARNING, logger="fsdg.checkpoint"):
        loaded, text = ck.load_checkpoint(path)
    assert path in caplog.text and "not a config at all" in caplog.text
    assert text == "not a config at all"
    assert loaded.head_kind == "relation"
    assert loaded.head is not None

    cfg2, model2 = toy_model(head="proto")
    path2 = str(tmp_path / "model2.ckpt")
    ck.save_checkpoint(model2, "???", path2)
    loaded2, _ = ck.load_checkpoint(path2)
    assert loaded2.head_kind == "proto"


def test_unexpected_config_parse_failure_propagates(tmp_path, monkeypatch):
    import fsdg.config

    cfg, model = toy_model()
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)

    def broken(text):
        raise RuntimeError("parser bug")

    monkeypatch.setattr(fsdg.config, "parse_config_text", broken)
    with pytest.raises(RuntimeError, match="parser bug"):
        ck.load_checkpoint(path)
