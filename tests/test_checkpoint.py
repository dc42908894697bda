import io
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from fsdg import checkpoint as ck
from fsdg import evaluation as ev
from fsdg import training as tr
from fsdg.config import format_config
from fsdg.errors import FormatError, LengthError, VersionError
from fsdg.heads import HEAD_KINDS, build_relation_head
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
    assert list(got) == list(want)
    for name in want:
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
    assert names == list(model.param_store())


def test_failing_save_leaves_the_target_as_it_was_and_no_temporary_file(tmp_path):
    cfg, model = toy_model()
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(model, format_config(cfg), str(path))
    saved = path.read_bytes()
    # a lone surrogate has no UTF-8 form, so the write fails at that name
    unnamable = model.with_values({"\udc80": model.params["enc.block0.weight"]})
    with pytest.raises(UnicodeEncodeError):
        ck.save_checkpoint(unnamable, format_config(cfg), str(path))
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


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


def test_oversized_tensor_header_rejected_before_reading(tmp_path):
    # A 60000 x 60000 tensor is 28.8 GB, which read() would allocate.
    path = str(tmp_path / "huge.ckpt")
    open(path, "wb").write(ck.CHECKPOINT_MAGIC + struct.pack("<IIII", ck.CHECKPOINT_VERSION, 0, 1, 1)
                           + b"w" + struct.pack("<III", 2, 60000, 60000) + bytes(16))
    with pytest.raises(LengthError, match=r"huge\.ckpt: truncated while reading tensor w: "
                                          r"28800000000 bytes declared, 16 left$"):
        ck.read_checkpoint(path)


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
    assert list(store) == ["a", "b"]
    _raw_checkpoint(path, b"", [(b"a", np.ones(2)), (b"a", np.ones(1))])
    with pytest.raises(FormatError, match=r"dup\.ckpt: tensor 'a' appears twice"):
        ck.read_checkpoint(path)


def test_missing_encoder_tensor_rejected(tmp_path):
    cfg, model = toy_model()
    partial = {n: t for n, t in model.param_store().items() if n != "enc.block1.bias"}
    with pytest.raises(FormatError):
        ck.model_from_store(partial, cfg)


def test_non_contiguous_blocks_rejected():
    from fsdg import autodiff as ad

    store = {}
    for i in (0, 2):
        store[f"enc.block{i}.weight"] = ad.leaf(np.ones((3, 3)))
        store[f"enc.block{i}.bias"] = ad.leaf(np.zeros(3))
        store[f"enc.block{i}.bn_scale"] = ad.leaf(np.ones(3))
        store[f"enc.block{i}.bn_shift"] = ad.leaf(np.zeros(3))
    with pytest.raises(FormatError, match=r"^missing tensor 'enc\.block1\.weight'$"):
        ck.model_from_store(store, tr.TrainConfig(encoder_widths=(3, 3)))


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
    with pytest.raises(FormatError, match=r"nohead\.ckpt: missing tensor 'head\.rel\.w1q'$"):
        ck.load_checkpoint(path)


def test_relation_checkpoint_in_the_pair_width_layout_rejected(tmp_path):
    # The layout before the first layer was split and the output bias went:
    # one (2 * emb, hidden) head.rel.w1 and a head.rel.b2.
    cfg, model = toy_model(head="relation")
    tensors = {n: t.data for n, t in model.param_store().items()}
    tensors["head.rel.w1"] = np.vstack([tensors.pop("head.rel.w1q"), tensors.pop("head.rel.w1p")])
    tensors["head.rel.b2"] = np.zeros(1)
    path = str(tmp_path / "pairs.ckpt")
    _raw_checkpoint(path, format_config(cfg).encode(),
                    [(n.encode(), tensors[n]) for n in sorted(tensors)])
    with pytest.raises(FormatError, match=r"pairs\.ckpt: missing tensor 'head\.rel\.w1q'$"):
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
    cfg, model = toy_model(mode="baseline")
    path = str(tmp_path / "gap.ckpt")
    _raw_checkpoint(path, format_config(cfg).encode(),
                    [(n.replace("block1", "block2").encode(), t.data)
                     for n, t in model.param_store().items()])
    with pytest.raises(FormatError, match=r"gap\.ckpt: missing tensor 'enc\.block1\.weight'$"):
        ck.load_checkpoint(path)


# Each case changes one tensor of a relation-head lft model with input width
# 6 and encoder widths (4, 3), then loads it.
@pytest.mark.parametrize("name,data,problem", [
    ("enc.blockA.weight", np.ones((6, 4)), "belongs to no part of the model"),
    ("enc.block", np.ones(4), "belongs to no part of the model"),
    ("enc.block0.weight", np.ones(24), "has shape (24,), expected 2 dimensions"),
    ("enc.block0.weight", np.ones((0, 4)), "has shape (0, 4), expected at least one row"),
    ("enc.block1.bias", np.zeros(7), "has shape (7,), expected (3,)"),
    ("enc.block1.weight", np.ones((5, 3)), "has shape (5, 3), expected (4, 3)"),
    ("enc.block0.bn_scale", np.ones(3), "has shape (3,), expected (4,)"),
    ("ft.block1.gamma", np.ones(4), "has shape (4,), expected (3,)"),
    ("head.rel.w1q", np.ones((5, 3)), "has shape (5, 3), expected (3, 3)"),
    ("head.rel.w1p", np.ones((6, 3)), "has shape (6, 3), expected (3, 3)"),
    ("head.rel.b1", np.ones(4), "has shape (4,), expected (3,)"),
    ("head.rel.w2", np.ones((3, 2)), "has shape (3, 2), expected (3, 1)"),
], ids=["block-letter", "block-no-number", "weight-1d", "weight-no-rows", "bias-width",
        "weight-rows", "bn-width", "ft-width", "rel-w1q-rows", "rel-w1p-rows", "rel-b1",
        "rel-w2"])
def test_load_rejects_a_malformed_layout_naming_file_and_tensor(tmp_path, name, data, problem):
    cfg = tr.TrainConfig(mode="lft", head="relation", encoder_widths=(4, 3), iterations=0)
    model = tr.build_model(cfg, 6, RngStream(4))
    tensors = {n: t.data for n, t in model.param_store().items()}
    assert name not in tensors or tensors[name].shape != data.shape
    tensors[name] = data
    path = str(tmp_path / "bad.ckpt")
    _raw_checkpoint(path, format_config(cfg).encode(),
                    [(n.encode(), tensors[n]) for n in sorted(tensors)])
    with pytest.raises(FormatError, match=re.escape(f"bad.ckpt: tensor {name!r} {problem}") + "$"):
        ck.load_checkpoint(path)


# The layout comes from the saved config alone, so tensors that would make a
# consistent model of their own are still rejected when the config describes
# another one.  None of these is a file that fsdg writes.
@pytest.mark.parametrize("mode,head,hidden,text,problem", [
    ("baseline", "proto", None, {"encoder_widths": (32, 16)},
     "tensor 'enc.block0.weight' has shape (6, 8), expected (6, 32)"),
    ("baseline", "proto", None, {"encoder_widths": (8, 5)},
     "tensor 'enc.block1.weight' has shape (8, 4), expected (8, 5)"),
    ("baseline", "relation", 5, {},
     "tensor 'head.rel.w1q' has shape (4, 5), expected (4, 4)"),
    ("lft", "proto", None, {"mode": "baseline"},
     "tensor 'ft.block0.beta' belongs to no part of the model"),
], ids=["widths", "last-width", "relation-hidden", "ft-under-baseline"])
def test_tensors_that_disagree_with_the_saved_config_rejected(tmp_path, mode, head, hidden,
                                                              text, problem):
    cfg, model = toy_model(mode=mode, head=head)
    if hidden is not None:
        model = model.with_values(build_relation_head(4, hidden, RngStream(3)))
    path = str(tmp_path / "mismatch.ckpt")
    ck.save_checkpoint(model, format_config(replace(cfg, **text)), path)
    with pytest.raises(FormatError, match=re.escape(f"mismatch.ckpt: {problem}") + "$"):
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
    assert loaded.encoder.ft_blocks == (False, True)
    assert [(n, t.shape) for n, t in loaded.ft_named()] == [
        ("ft.block1.gamma", (4,)), ("ft.block1.beta", (4,))]


def test_lft_config_flagging_no_block_rejected_naming_file(tmp_path):
    # Such a model would own no ft tensor, so it could only train as baseline.
    cfg, model = toy_model(mode="baseline")
    text = format_config(replace(cfg, ft_blocks=(False, False))).replace(
        "mode = baseline", "mode = lft")
    path = str(tmp_path / "noflag.ckpt")
    ck.save_checkpoint(model, text, path)
    message = r"noflag\.ckpt: config: mode 'lft' needs ft_blocks to flag a block$"
    with pytest.raises(FormatError, match=message):
        ck.load_checkpoint(path)


def test_encoder_saved_without_modulation_takes_flags_from_config(tmp_path):
    cfg = tr.TrainConfig(mode="ft", encoder_widths=(8, 4), ft_blocks=(False, True),
                         iterations=0)
    model = tr.build_model(cfg, 6, RngStream(4))
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(tr.ModelState(model.head_kind, model.encoder, dict(model.trainable())),
                       format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    assert not loaded.ft_named()
    assert loaded.encoder.ft_blocks == (False, True)


def test_baseline_checkpoint_has_no_ft(tmp_path):
    cfg, model = toy_model(mode="baseline")
    path = str(tmp_path / "model.ckpt")
    ck.save_checkpoint(model, format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    assert all(n.startswith("enc.") for n in loaded.params)


@pytest.mark.parametrize("text,problem", [
    ("not a config at all", "config line 1: expected 'key = value', got 'not a config at all'"),
    ("head = cosine", "config: unknown head 'cosine'"),
], ids=["unparsed", "invalid"])
def test_foreign_config_text_rejected_naming_file(tmp_path, text, problem):
    # The head kind and the modulated blocks come from the config text, so a
    # relation model under text that does not parse is not loaded as proto.
    cfg, model = toy_model(head="relation")
    path = str(tmp_path / "foreign.ckpt")
    ck.save_checkpoint(model, text, path)
    with pytest.raises(FormatError, match=re.escape(f"foreign.ckpt: {problem}") + "$"):
        ck.load_checkpoint(path)


@pytest.mark.parametrize("ft_blocks", [(), (False, True)], ids=["every-block", "last-block"])
@pytest.mark.parametrize("optimizer", tr.OPTIMIZERS)
@pytest.mark.parametrize("head", HEAD_KINDS)
def test_lft_run_resumed_from_a_reloaded_checkpoint_equals_the_in_memory_one(
        tmp_path, head, optimizer, ft_blocks):
    # A checkpoint stores its tensors in name order, ft.block0.beta before
    # ft.block0.gamma; the modulation noise of the resumed run must still be
    # drawn block by block, gamma first, as for the model that was saved.
    domains = [toy_domain(60), toy_domain(61)]
    cfg = tr.TrainConfig(mode="lft", head=head, optimizer=optimizer, ft_blocks=ft_blocks,
                         alpha=0.01, iterations=3, way=3, shot=2, query=3, seed=5,
                         encoder_widths=(8, 4))
    first, _ = tr.train_loop(cfg, domains)
    path = str(tmp_path / "first.ckpt")
    ck.save_checkpoint(first, format_config(cfg), path)
    loaded, _ = ck.load_checkpoint(path)
    resumed = replace(cfg, seed=6)
    outputs = []
    for init in (first, loaded):
        log = io.StringIO()
        model, _ = tr.train_loop(resumed, domains, init=init, log_file=log)
        out = str(tmp_path / "resumed.ckpt")
        ck.save_checkpoint(model, format_config(resumed), out)
        outputs.append((log.getvalue(), open(out, "rb").read()))
    assert outputs[0] == outputs[1]


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
