import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg import autodiff as ad
from fsdg import tasks
from fsdg.errors import (
    CapacityError,
    ContractError,
    FormatError,
    LengthError,
    ParseError,
    VersionError,
)
from fsdg.rng import RngStream
from helpers import noise_domain, reference_episode


def small_spec(**kw):
    base = dict(master_seed=7, domain_seed=0, n_classes=6, dim=5,
                samples_per_class=12, latent_dim=3)
    base.update(kw)
    return tasks.SyntheticDomainSpec(**base)


# ---------------------------------------------------------------------------
# Domain container


def test_domain_validates_class_shapes():
    with pytest.raises(ContractError):
        tasks.Domain.from_classes("d", 3, {0: np.ones((4, 2))})
    with pytest.raises(ContractError):
        tasks.Domain.from_classes("d", 3, {0: np.ones(3)})


def test_domain_locks_class_arrays():
    d = tasks.Domain.from_classes("d", 2, {0: np.ones((3, 2))})
    with pytest.raises(ValueError):
        d.classes[0][0, 0] = 9.0


def test_domain_class_views_share_its_read_only_row_block():
    given = {5: np.full((2, 2), 5.0), 1: np.full((3, 2), 1.0), 3: np.full((1, 2), 3.0)}
    d = tasks.Domain.from_classes("d", 2, given)
    # One float64 block in class-id order; each class is a view into it.
    assert d.rows.dtype == np.float64 and not d.rows.flags.writeable
    assert d.rows[:, 0].tolist() == [1.0, 1.0, 1.0, 3.0, 5.0, 5.0]
    assert d.spans == {1: range(0, 3), 3: range(3, 4), 5: range(4, 6)}
    assert d.smallest == 3
    for cid, arr in given.items():
        view = d.classes[cid]
        assert view.base is d.rows and np.shares_memory(view, d.rows)
        assert not view.flags.writeable
        assert np.array_equal(view, arr)
        assert np.array_equal(d.rows[d.spans[cid].start:d.spans[cid].stop], arr)


def test_domain_keeps_the_block_it_is_given():
    rows = np.arange(12.0).reshape(6, 2)
    d = tasks.Domain("d", 2, rows, {4: range(0, 2), 2: range(2, 6)})
    assert d.rows is rows and not rows.flags.writeable
    assert d.class_ids() == [2, 4] and d.smallest == 4
    assert np.shares_memory(d.classes[4], rows) and d.classes[4].tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_domain_rejects_a_bad_block_or_span():
    with pytest.raises(ContractError, match=r"rows have shape \(3,\), expected \(\*, 2\)"):
        tasks.Domain("d", 2, np.ones(3), {})
    with pytest.raises(ContractError, match=r"class 1 spans range\(2, 5\), outside its 4 block rows"):
        tasks.Domain("d", 2, np.ones((4, 2)), {0: range(0, 2), 1: range(2, 5)})
    with pytest.raises(ContractError, match="class 0 row 1 has non-finite values"):
        tasks.Domain("d", 2, np.array([[0.0, 1.0], [np.nan, 0.0]]), {0: range(0, 2)})


@pytest.mark.parametrize("cid", [-1, 2**32])
def test_domain_rejects_a_class_id_that_no_format_stores(cid):
    # The binary format stores class ids as uint32, so a domain with any
    # other id could be built but not saved.
    with pytest.raises(ContractError, match=rf"^domain 'x': class id {cid} outside 0\.\.4294967295"):
        tasks.Domain.from_classes("x", 2, {0: np.ones((2, 2)), cid: np.ones((2, 2))})


@pytest.mark.parametrize("suffix", ["bin", "csv"])
def test_made_and_loaded_domains_hold_each_row_once(tmp_path, suffix):
    made = tasks.generate_synthetic_domain(small_spec())
    path = str(tmp_path / f"dom.{suffix}")
    tasks.save_domain(made, path)
    for d in (made, tasks.load_domain(path)):
        # The block owns its memory, and each class is a view into it.
        assert d.rows.base is None
        assert d.rows.shape[0] == sum(len(span) for span in d.spans.values())
        assert all(arr.base is d.rows for arr in d.classes.values())


# ---------------------------------------------------------------------------
# synthetic generation


def test_generation_is_deterministic():
    a = tasks.generate_synthetic_domain(small_spec())
    b = tasks.generate_synthetic_domain(small_spec())
    assert a.class_ids() == b.class_ids()
    for cid in a.class_ids():
        assert np.array_equal(a.classes[cid], b.classes[cid])


def test_default_spec_sizes():
    spec = tasks.SyntheticDomainSpec(master_seed=1, domain_seed=2)
    assert (spec.n_classes, spec.dim, spec.samples_per_class) == (20, 16, 50)
    assert spec.name == "synth-1-2"
    d = tasks.generate_synthetic_domain(spec)
    assert d.n_classes == 20
    assert d.dim == 16
    assert d.classes[0].shape == (50, 16)


def test_spec_validation():
    with pytest.raises(ContractError):
        small_spec(n_classes=0)
    with pytest.raises(ContractError):
        small_spec(noise_sigma=-0.1)
    with pytest.raises(ContractError):
        small_spec(warp_strength=-1.0)


def test_latent_prototypes_depend_only_on_master_seed():
    a = tasks.latent_prototypes(7, 6, 3)
    b = tasks.latent_prototypes(7, 6, 3)
    c = tasks.latent_prototypes(8, 6, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_same_master_different_domain_seed_changes_warp_not_structure():
    d0 = tasks.generate_synthetic_domain(small_spec(domain_seed=0))
    d1 = tasks.generate_synthetic_domain(small_spec(domain_seed=1))
    assert d0.class_ids() == d1.class_ids()
    assert not np.array_equal(d0.classes[0], d1.classes[0])


def test_zero_warp_strength_gives_plain_tanh_mixture():
    spec = small_spec(warp_strength=0.0)
    d = tasks.generate_synthetic_domain(spec)
    for cid in d.class_ids():
        assert np.all(np.abs(d.classes[cid]) < 1.0)  # tanh * e^0 + 0


def test_zero_noise_collapses_each_class_to_a_point():
    spec = small_spec(noise_sigma=0.0)
    d = tasks.generate_synthetic_domain(spec)
    for cid in d.class_ids():
        arr = d.classes[cid]
        assert np.max(np.abs(arr - arr[0])) == 0.0


def test_generator_matches_direct_formula():
    spec = small_spec()
    d = tasks.generate_synthetic_domain(spec)
    from fsdg.rng import derive_seed

    protos = tasks.latent_prototypes(spec.master_seed, spec.n_classes, spec.latent_dim)
    warp = RngStream(derive_seed(spec.master_seed, "domain-warp", spec.domain_seed))
    mixing = warp.normals(spec.dim * spec.latent_dim).reshape(spec.dim, spec.latent_dim)
    mixing = mixing / spec.latent_dim**0.25
    scales = np.exp(spec.warp_strength * warp.normals(spec.dim))
    shifts = spec.warp_strength * warp.normals(spec.dim)
    noise = RngStream(derive_seed(spec.master_seed, "domain-noise", spec.domain_seed))
    cid = 3
    eps = noise.substream("class", cid).normals(
        spec.samples_per_class * spec.latent_dim).reshape(spec.samples_per_class, spec.latent_dim)
    want = np.tanh((protos[cid] + spec.noise_sigma * eps) @ mixing.T) * scales + shifts
    assert np.array_equal(d.classes[cid], want)


def test_sibling_domains_are_separated_beyond_class_spread():
    # Two domains sharing a master seed but with different warps: the mean
    # between-domain distance of same-class sample means must exceed three
    # times the within-domain class spread (RMS distance to the class mean),
    # measured over all 20 x 50 = 1000 samples per domain at default sizes.
    d1 = tasks.generate_synthetic_domain(
        tasks.SyntheticDomainSpec(master_seed=7, domain_seed=1))
    d2 = tasks.generate_synthetic_domain(
        tasks.SyntheticDomainSpec(master_seed=7, domain_seed=2))
    between, within = [], []
    for cid in d1.class_ids():
        xa, xb = d1.classes[cid], d2.classes[cid]
        mua, mub = xa.mean(axis=0), xb.mean(axis=0)
        between.append(np.linalg.norm(mua - mub))
        within.append(np.sqrt(np.mean(np.sum((xa - mua) ** 2, axis=1))))
        within.append(np.sqrt(np.mean(np.sum((xb - mub) ** 2, axis=1))))
    assert float(np.mean(between)) > 3.0 * float(np.mean(within))


def test_classes_are_separated_better_than_chance():
    # nearest-prototype in feature space on fresh draws should beat 1/K
    # comfortably for the default noise level
    spec = small_spec(n_classes=5, samples_per_class=40)
    d = tasks.generate_synthetic_domain(spec)
    means = {cid: d.classes[cid].mean(axis=0) for cid in d.class_ids()}
    correct = total = 0
    for cid in d.class_ids():
        for row in d.classes[cid]:
            best = min(means, key=lambda c: float(np.sum((row - means[c]) ** 2)))
            correct += best == cid
            total += 1
    assert correct / total > 0.6


# ---------------------------------------------------------------------------
# persistence round trips


def test_binary_round_trip_is_bit_exact(tmp_path):
    d = tasks.generate_synthetic_domain(small_spec())
    path = str(tmp_path / "dom.bin")
    tasks.save_domain(d, path)
    back = tasks.load_domain(path)
    assert back.name == path
    assert back.dim == d.dim
    assert back.class_ids() == d.class_ids()
    for cid in d.class_ids():
        assert np.array_equal(back.classes[cid], d.classes[cid])


def test_csv_round_trip_is_bit_exact(tmp_path):
    d = tasks.generate_synthetic_domain(small_spec(n_classes=3, samples_per_class=4))
    path = str(tmp_path / "dom.csv")
    tasks.save_domain(d, path)
    back = tasks.load_domain(path)
    for cid in d.class_ids():
        # repr round-trips doubles exactly
        assert np.array_equal(back.classes[cid], d.classes[cid])


def test_csv_header_layout(tmp_path):
    d = tasks.Domain.from_classes("d", 2, {4: np.array([[0.5, -1.25]])})
    path = str(tmp_path / "dom.csv")
    tasks.save_domain(d, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "class_id,f0,f1"
    assert lines[1] == "4,0.5,-1.25"


def test_binary_layout_header(tmp_path):
    d = tasks.Domain.from_classes("d", 2, {7: np.array([[1.0, 2.0]])})
    path = str(tmp_path / "dom.bin")
    tasks.save_domain(d, path)
    raw = open(path, "rb").read()
    assert raw[:4] == b"FSDS"
    import struct

    version, n_classes, dim = struct.unpack("<III", raw[4:16])
    assert (version, n_classes, dim) == (1, 1, 2)
    cid, count = struct.unpack("<II", raw[16:24])
    assert (cid, count) == (7, 1)
    assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0]


def test_load_binary_error_taxonomy(tmp_path):
    d = tasks.Domain.from_classes("d", 2, {0: np.ones((3, 2))})
    path = str(tmp_path / "dom.bin")
    tasks.save_domain(d, path)
    raw = open(path, "rb").read()

    bad_magic = str(tmp_path / "bad_magic.bin")
    open(bad_magic, "wb").write(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="bad_magic.bin: bad magic b'XXXX'"):
        tasks.load_domain(bad_magic)

    bad_version = str(tmp_path / "bad_version.bin")
    import struct

    open(bad_version, "wb").write(raw[:4] + struct.pack("<I", 99) + raw[8:])
    with pytest.raises(VersionError, match="bad_version.bin: version 99 not supported"):
        tasks.load_domain(bad_version)

    truncated = str(tmp_path / "trunc.bin")
    open(truncated, "wb").write(raw[:-8])
    with pytest.raises(LengthError, match="trunc.bin: truncated while reading class 0 samples"):
        tasks.load_domain(truncated)

    empty = str(tmp_path / "empty.bin")
    open(empty, "wb").write(b"")
    with pytest.raises(LengthError, match="empty.bin: truncated while reading magic"):
        tasks.load_domain(empty)


def test_load_csv_error_taxonomy(tmp_path):
    def write(name, text):
        p = str(tmp_path / name)
        open(p, "w").write(text)
        return p

    with pytest.raises(ParseError, match="empty.csv: empty file"):
        tasks.load_domain(write("empty.csv", ""))
    with pytest.raises(ParseError, match="header.csv: must start with a class_id header"):
        tasks.load_domain(write("header.csv", "label,f0\n0,1.0\n"))
    with pytest.raises(ParseError, match="cols.csv: feature columns must be f0"):
        tasks.load_domain(write("cols.csv", "class_id,f0,fX\n0,1.0,2.0\n"))
    with pytest.raises(ParseError, match="short.csv, line 2: expected 3 fields, got 2"):
        tasks.load_domain(write("short.csv", "class_id,f0,f1\n0,1.0\n"))
    with pytest.raises(ParseError, match="badnum.csv, line 2: could not convert"):
        tasks.load_domain(write("badnum.csv", "class_id,f0\n0,banana\n"))
    with pytest.raises(ParseError, match="norows.csv: no sample rows"):
        tasks.load_domain(write("norows.csv", "class_id,f0\n"))
    # The binary format stores class ids as uint32.
    for cid in (-1, 2**32):
        with pytest.raises(ParseError, match=f"ids.csv, line 3: class id {cid} outside 0..4294967295"):
            tasks.load_domain(write("ids.csv", f"class_id,f0\n0,1.0\n{cid},2.0\n"))


def _unwritable(domain):
    """``domain`` with a class added after construction whose rows are no
    numbers: saving it fails after the classes before it are written."""
    domain.classes[99] = np.array([["x", "y"]], dtype=object)
    return domain


@pytest.mark.parametrize("suffix", ["bin", "csv"])
def test_failing_save_leaves_the_target_as_it_was_and_no_temporary_file(tmp_path, suffix):
    path = tmp_path / f"dom.{suffix}"
    path.write_bytes(b"earlier contents")
    with pytest.raises(ValueError):
        tasks.save_domain(_unwritable(tasks.generate_synthetic_domain(small_spec())), str(path))
    assert path.read_bytes() == b"earlier contents"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_save_domains_replaces_no_path_unless_every_file_is_written(tmp_path):
    good = tasks.generate_synthetic_domain(small_spec())
    kept = tmp_path / "a.bin"
    kept.write_bytes(b"earlier contents")
    with pytest.raises(ValueError):
        tasks.save_domains([(good, str(kept)), (good, str(tmp_path / "b.csv")),
                            (_unwritable(tasks.generate_synthetic_domain(small_spec())),
                             str(tmp_path / "c.bin"))])
    assert kept.read_bytes() == b"earlier contents"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
    tasks.save_domains([(good, str(kept)), (good, str(tmp_path / "b.csv"))])
    for name in ("a.bin", "b.csv"):
        assert np.array_equal(tasks.load_domain(str(tmp_path / name)).rows, good.rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.csv"]


def test_csv_class_id_at_the_binary_range_limit_round_trips(tmp_path):
    path = str(tmp_path / "ids.csv")
    open(path, "w").write(f"class_id,f0\n0,1.0\n{2**32 - 1},2.0\n")
    binary = str(tmp_path / "ids.bin")
    tasks.save_domain(tasks.load_domain(path), binary)
    assert sorted(tasks.load_domain(binary).classes) == [0, 2**32 - 1]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_values_rejected_at_load(tmp_path, bad):
    csv_path = str(tmp_path / "dom.csv")
    open(csv_path, "w").write(f"class_id,f0,f1\n0,1.0,2.0\n1,3.0,{bad}\n")
    with pytest.raises(ParseError, match="dom.csv, line 3: non-finite"):
        tasks.load_domain(csv_path)

    # binary files carry raw floats; the domain names the class and row
    import struct

    bin_path = str(tmp_path / "dom.bin")
    rows = np.array([[1.0, 2.0], [float(bad), 0.0]], dtype="<f8")
    with open(bin_path, "wb") as fh:
        fh.write(tasks.DATASET_MAGIC + struct.pack("<III", tasks.DATASET_VERSION, 1, 2))
        fh.write(struct.pack("<II", 4, 2) + rows.tobytes())
    with pytest.raises(ContractError, match="dom.bin.*class 4 row 1"):
        tasks.load_domain(bin_path)


def _binary_domain(path, n_classes, blocks, trailing=b""):
    """A binary domain file written byte by byte: blocks are (class id, rows)."""
    import struct

    with open(path, "wb") as fh:
        fh.write(tasks.DATASET_MAGIC + struct.pack("<III", tasks.DATASET_VERSION, n_classes, 2))
        for cid, rows in blocks:
            fh.write(struct.pack("<II", cid, len(rows)) + np.asarray(rows, dtype="<f8").tobytes())
        fh.write(trailing)


def test_binary_repeated_class_id_rejected(tmp_path):
    path = str(tmp_path / "dup.bin")
    _binary_domain(path, 2, [(3, [[1.0, 2.0]]), (4, [[3.0, 4.0]])])
    assert tasks.load_domain(path).class_ids() == [3, 4]
    _binary_domain(path, 2, [(3, [[1.0, 2.0]]), (3, [[3.0, 4.0]])])
    with pytest.raises(FormatError, match="dup.bin: class 3 appears twice"):
        tasks.load_domain(path)


def test_binary_classes_load_in_any_file_order(tmp_path):
    path = str(tmp_path / "order.bin")
    _binary_domain(path, 2, [(4, [[1.0, 2.0], [5.0, 6.0]]), (3, [[3.0, 4.0]])])
    d = tasks.load_domain(path)
    assert d.class_ids() == [3, 4]
    assert d.classes[4].tolist() == [[1.0, 2.0], [5.0, 6.0]]
    assert d.classes[3].tolist() == [[3.0, 4.0]]


def test_binary_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "extra.bin")
    _binary_domain(path, 1, [(0, [[1.0, 2.0]])], trailing=b"\x00")
    with pytest.raises(FormatError, match="extra.bin: trailing bytes after the 1 classes"):
        tasks.load_domain(path)


def test_binary_oversized_class_header_rejected_before_reading(tmp_path):
    # 60000 rows of 60000 features are 28.8 GB, which read() would allocate.
    import struct

    path = str(tmp_path / "huge.bin")
    open(path, "wb").write(tasks.DATASET_MAGIC + struct.pack(
        "<IIIII", tasks.DATASET_VERSION, 1, 60000, 0, 60000) + bytes(16))
    with pytest.raises(LengthError, match=r"huge\.bin: truncated while reading class 0 samples: "
                                          r"28800000000 bytes declared, 16 left$"):
        tasks.load_domain(path)


# ---------------------------------------------------------------------------
# episode sampling


def test_episode_shapes_and_labels():
    d = noise_domain(seed=1, n_classes=8, dim=4, per_class=10)
    ep = tasks.sample_episode(d, 5, 3, 2, RngStream(2))
    assert ep.x.shape == (15 + 10, 4)
    assert ep.support_y == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    assert ep.query_y == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert len(ep.class_ids) == 5
    assert len(set(ep.class_ids)) == 5
    assert ep.domain_name == d.name


def test_episode_batch_is_its_rows_adopted_without_a_scan(monkeypatch):
    d = noise_domain(seed=6, n_classes=6, dim=4, per_class=9)
    scans = []
    monkeypatch.setattr(ad, "_all_finite", lambda data: scans.append(data) or True)
    ep = tasks.sample_episode(d, 3, 2, 4, RngStream(11))
    monkeypatch.undo()
    # Domain proved every row finite, so the batch is not scanned again.
    assert scans == []
    # The same draws by hand: classes, then one shuffle per picked class.
    rng = RngStream(11)
    ids = d.class_ids()
    picked = [ids[i] for i in rng.sample_without_replacement(len(ids), 3)]
    perms = [rng.permutation(d.classes[cid].shape[0]) for cid in picked]
    drawn = [d.classes[cid][rows[:6]] for cid, rows in zip(picked, perms)]
    want = np.concatenate([rows[:2] for rows in drawn] + [rows[2:] for rows in drawn])
    assert ep.x.data.dtype == np.float64
    assert ep.x.data.tobytes() == want.tobytes()
    assert not ep.x.data.flags.writeable
    assert not ep.x.requires_grad and ep.x.parents == ()


def test_episode_is_deterministic_in_the_stream():
    d = noise_domain(seed=3, n_classes=6, dim=3, per_class=9)
    a = tasks.sample_episode(d, 4, 2, 2, RngStream(5))
    b = tasks.sample_episode(d, 4, 2, 2, RngStream(5))
    assert a.class_ids == b.class_ids
    assert np.array_equal(a.x.data, b.x.data)


def test_episode_support_and_query_rows_are_disjoint():
    # every row is unique in the noise domain, so overlap would show up as
    # an exact row match
    d = noise_domain(seed=4, n_classes=5, dim=6, per_class=8)
    for t in range(50):
        ep = tasks.sample_episode(d, 3, 2, 3, RngStream(100 + t))
        n_support = ep.n_way * ep.n_shot
        sup = {tuple(r) for r in ep.x.data[:n_support]}
        qry = {tuple(r) for r in ep.x.data[n_support:]}
        assert not sup & qry
        assert len(sup) == 6 and len(qry) == 9


# Class ids and row indices that one seed draws, for classes of 6 to 11
# rows; the stream is integer arithmetic, so they hold on every platform.
def test_episode_golden_class_ids_and_rows():
    classes = {cid: np.stack([np.full(6 + cid, float(cid)), np.arange(6.0 + cid)], axis=1)
               for cid in range(6)}
    d = tasks.Domain.from_classes("indexed", 2, classes)
    ep = tasks.sample_episode(d, 3, 2, 3, RngStream(2026))
    assert ep.class_ids == [4, 2, 0]
    n_support = ep.n_way * ep.n_shot
    support, query = ep.x.data[:n_support], ep.x.data[n_support:]
    assert support[:, 0].tolist() == [4, 4, 2, 2, 0, 0]
    assert support[:, 1].tolist() == [1, 6, 7, 3, 0, 1]
    assert query[:, 0].tolist() == [4, 4, 4, 2, 2, 2, 0, 0, 0]
    assert query[:, 1].tolist() == [2, 9, 0, 0, 2, 5, 4, 3, 5]


def test_episode_capacity_errors_name_the_shortfall():
    d = noise_domain(seed=8, n_classes=3, dim=3, per_class=4)
    with pytest.raises(CapacityError, match="3 classes"):
        tasks.sample_episode(d, 5, 1, 1, RngStream(0))
    with pytest.raises(CapacityError, match="4 samples"):
        tasks.sample_episode(d, 2, 3, 2, RngStream(0))
    with pytest.raises(ContractError):
        tasks.sample_episode(d, 0, 1, 1, RngStream(0))


def test_undersized_class_fails_every_draw():
    # Nine 30-row classes and one of 6: 5-way 5+16 episodes need 21 rows of
    # every class, so every seed fails, whichever classes it would pick.
    classes = {cid: np.ones((30 if cid != 7 else 6, 2)) for cid in range(10)}
    d = tasks.Domain.from_classes("short", 2, classes)
    for seed in range(100):
        with pytest.raises(CapacityError,
                           match=r"^domain 'short': class 7 has 6 samples, episode needs 21$"):
            tasks.sample_episode(d, 5, 5, 16, RngStream(seed))
    with pytest.raises(CapacityError, match="class 7 has 6 samples"):
        tasks.sample_episode(d, 5, 5, 16, [RngStream(1), RngStream(2)])


def test_block_of_one_stream_is_the_episode_stacked():
    d = noise_domain(seed=5, n_classes=7, dim=3, per_class=9)
    one = tasks.sample_episode(d, 3, 2, 4, RngStream(12))
    block = tasks.sample_episode(d, 3, 2, 4, [RngStream(12)])
    assert one.x.shape == (18, 3) and block.x.shape == (1, 18, 3)
    assert block.x.data[0].tobytes() == one.x.data.tobytes()
    assert block.class_ids == [one.class_ids]
    assert (block.support_y, block.query_y) == (one.support_y, one.query_y)
    assert not block.x.data.flags.writeable and block.x.parents == ()
    with pytest.raises(ContractError, match="no streams"):
        tasks.sample_episode(d, 3, 2, 4, [])


@st.composite
def block_draws(draw):
    """A domain of unequal classes, an episode size it holds, and streams
    that stand at arbitrary positions."""
    way = draw(st.integers(1, 4))
    shot, query = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(shot + query, shot + query + 6), min_size=way, max_size=8))
    ids = draw(st.lists(st.integers(0, 50), min_size=len(sizes), max_size=len(sizes), unique=True))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9))
    skips = draw(st.lists(st.integers(0, 30), min_size=len(seeds), max_size=len(seeds)))
    return way, shot, query, dict(zip(ids, sizes)), list(zip(seeds, skips))


@settings(max_examples=60, deadline=None)
@given(block_draws())
def test_block_equals_the_reference_sampler_task_by_task(case):
    way, shot, query, sizes, streams = case
    stream = RngStream(len(sizes))
    classes = {cid: stream.normals(n * 3).reshape(n, 3) for cid, n in sizes.items()}
    d = tasks.Domain.from_classes("unequal", 3, classes)

    def positioned():
        out = [RngStream(seed) for seed, _ in streams]
        for s, (_, skip) in zip(out, streams):
            s.uniforms(skip)
        return out

    block_streams, alone = positioned(), positioned()
    block = tasks.sample_episode(d, way, shot, query, block_streams)
    assert block.x.shape == (len(streams), way * (shot + query), 3)
    for t, s in enumerate(alone):
        want = reference_episode(d, way, shot, query, s)
        assert block.x.data[t].tobytes() == want.x.data.tobytes()
        assert block.class_ids[t] == want.class_ids
        assert (block.support_y, block.query_y) == (want.support_y, want.query_y)
        # Each stream ends where drawing its episode alone leaves it.
        assert block_streams[t]._pos == s._pos


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=9), st.integers(0, 2**64 - 1))
def test_block_over_one_domain_per_stream_equals_each_streams_own_episode(picks, seed):
    # Domains 0 and 1 are parts of one row block; 2 and 3 hold their own,
    # with classes of unequal sizes.
    parts = tasks.split_classes(noise_domain(seed=2, n_classes=10, dim=3, per_class=7,
                                             name="src"), (0.5, 0.5, 0.0), RngStream(1))
    domains = [parts["train"], parts["val"],
               noise_domain(seed=3, n_classes=4, dim=3, per_class=6, name="own"),
               tasks.Domain.from_classes("unequal", 3, {cid: np.full((5 + cid, 3), float(cid))
                                                        for cid in range(5)})]
    streams = [RngStream(seed + t) for t in range(len(picks))]
    block = tasks.sample_episode([domains[p] for p in picks], 3, 2, 3, streams)
    assert block.x.shape == (len(picks), 15, 3)
    assert block.domain_name == [domains[p].name for p in picks]
    for t, p in enumerate(picks):
        alone = RngStream(seed + t)
        want = tasks.sample_episode(domains[p], 3, 2, 3, alone)
        assert block.x.data[t].tobytes() == want.x.data.tobytes()
        assert block.class_ids[t] == want.class_ids
        assert streams[t]._pos == alone._pos


def test_block_over_domains_rejects_a_mismatch():
    a = noise_domain(seed=1, n_classes=4, dim=3, per_class=6)
    wide = noise_domain(seed=2, n_classes=4, dim=4, per_class=6)
    short = noise_domain(seed=3, n_classes=4, dim=3, per_class=4, name="short")
    with pytest.raises(ContractError, match=r"^sample_episode: 1 domains for 2 streams$"):
        tasks.sample_episode([a], 2, 2, 2, [RngStream(0), RngStream(1)])
    with pytest.raises(ContractError, match="differ in feature width"):
        tasks.sample_episode([a, wide], 2, 2, 2, [RngStream(0), RngStream(1)])
    with pytest.raises(CapacityError, match=r"^domain 'short': class \d+ has 4 samples"):
        tasks.sample_episode([a, short, a], 2, 2, 3, [RngStream(t) for t in range(3)])


def test_episode_class_frequency_is_near_uniform():
    # over many draws every class should be picked n_way/K of the time
    d = noise_domain(seed=9, n_classes=10, dim=2, per_class=6)
    counts = {cid: 0 for cid in d.class_ids()}
    n_draws = 4000
    for t in range(n_draws):
        ep = tasks.sample_episode(d, 3, 1, 1, RngStream(derive(t)))
        for cid in ep.class_ids:
            counts[cid] += 1
    expected = n_draws * 3 / 10
    for cid, got in counts.items():
        assert abs(got - expected) / expected < 0.05, (cid, got, expected)


def derive(t):
    from fsdg.rng import derive_seed

    return derive_seed(1234, "freq-test", t)


# ---------------------------------------------------------------------------
# class splitting


def _partition(parts):
    return {tag: part.class_ids() for tag, part in parts.items()}


def test_split_arithmetic_20_classes():
    d = noise_domain(seed=10, n_classes=20, dim=2, per_class=3)
    parts = tasks.split_classes(d, (0.5, 0.25, 0.25), RngStream(11))
    assert list(parts) == ["train", "val", "test"]
    assert [parts[tag].n_classes for tag in parts] == [10, 5, 5]
    covered = parts["train"].class_ids() + parts["val"].class_ids() + parts["test"].class_ids()
    assert sorted(covered) == d.class_ids()
    for tag, part in parts.items():
        assert part.name == f"{d.name}:{tag}"
        assert part.dim == d.dim


def test_split_is_deterministic_and_seed_sensitive():
    d = noise_domain(seed=12, n_classes=12, dim=2, per_class=3)
    a = tasks.split_classes(d, (0.5, 0.25, 0.25), RngStream(1))
    b = tasks.split_classes(d, (0.5, 0.25, 0.25), RngStream(1))
    c = tasks.split_classes(d, (0.5, 0.25, 0.25), RngStream(2))
    assert _partition(a) == _partition(b)
    assert _partition(a) != _partition(c)


def test_split_leaves_original_domain_untouched():
    d = noise_domain(seed=13, n_classes=6, dim=2, per_class=3)
    before = {c: d.classes[c].copy() for c in d.class_ids()}
    parts = tasks.split_classes(d, (0.5, 0.0, 0.5), RngStream(3))
    assert d.class_ids() == list(range(6))
    assert parts["val"].n_classes == 0
    for part in parts.values():
        for c in part.class_ids():
            assert np.array_equal(part.classes[c], before[c])
    assert all(np.array_equal(d.classes[c], before[c]) for c in d.class_ids())


def test_split_domains_share_their_sources_block():
    d = tasks.generate_synthetic_domain(small_spec())
    for part in tasks.split_classes(d, (0.6, 0.2, 0.2), RngStream(3)).values():
        assert part.rows is d.rows
        for cid in part.class_ids():
            assert part.spans[cid] == d.spans[cid] and part.classes[cid].base is d.rows


def test_split_partition_is_pinned():
    # the class files of `fsdg gen-domain --seed 7` split by
    # `fsdg split --seed 7 --fractions 0.6,0.2,0.2`
    spec = tasks.SyntheticDomainSpec(master_seed=7, domain_seed=0)
    parts = tasks.split_classes(tasks.generate_synthetic_domain(spec), (0.6, 0.2, 0.2),
                                RngStream(7).substream("class-split"))
    assert _partition(parts) == {
        "train": [0, 1, 2, 3, 4, 6, 10, 12, 14, 15, 16, 18],
        "val": [7, 8, 9, 11],
        "test": [5, 13, 17, 19],
    }


def test_split_fraction_validation():
    d = noise_domain(seed=14, n_classes=6, dim=2, per_class=3)
    with pytest.raises(ContractError):
        tasks.split_classes(d, (0.5, 0.2, 0.2), RngStream(0))
    with pytest.raises(ContractError):
        tasks.split_classes(d, (1.2, -0.1, -0.1), RngStream(0))


def test_split_zero_rounding_is_a_capacity_problem():
    d = noise_domain(seed=15, n_classes=5, dim=2, per_class=3)
    with pytest.raises(CapacityError):
        tasks.split_classes(d, (0.92, 0.04, 0.04), RngStream(0))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(1, 3), st.integers(1, 3))
def test_episode_row_counts_and_label_ranges(seed, way, shot, query):
    d = noise_domain(seed=17, n_classes=6, dim=3, per_class=8)
    ep = tasks.sample_episode(d, way, shot, query, RngStream(seed))
    assert ep.x.shape == (way * shot + way * query, 3)
    assert sorted(set(ep.support_y)) == list(range(way))
    assert sorted(set(ep.query_y)) == list(range(way))
    assert all(ep.support_y.count(k) == shot for k in range(way))
    assert all(ep.query_y.count(k) == query for k in range(way))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_binary_round_trip_property(tmp_path_factory, seed):
    stream = RngStream(seed)
    n_classes = 1 + seed % 4
    dim = 1 + (seed // 4) % 5
    classes = {}
    for cid in range(n_classes):
        rows = 1 + int(stream.integers(1, 6)[0])
        classes[cid * 3] = stream.normals(rows * dim).reshape(rows, dim)
    d = tasks.Domain.from_classes("prop", dim, classes)
    path = str(tmp_path_factory.mktemp("roundtrip") / "d.bin")
    tasks.save_domain(d, path)
    back = tasks.load_domain(path)
    assert back.class_ids() == d.class_ids()
    for cid in d.class_ids():
        assert np.array_equal(back.classes[cid], d.classes[cid])
