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
from helpers import noise_domain


def small_spec(**kw):
    base = dict(master_seed=7, domain_seed=0, n_classes=6, dim=5,
                samples_per_class=12, latent_dim=3)
    base.update(kw)
    return tasks.SyntheticDomainSpec(**base)


# ---------------------------------------------------------------------------
# Domain container


def test_domain_validates_class_shapes():
    with pytest.raises(ContractError):
        tasks.Domain("d", 3, {0: np.ones((4, 2))})
    with pytest.raises(ContractError):
        tasks.Domain("d", 3, {0: np.ones(3)})


def test_domain_locks_class_arrays():
    d = tasks.Domain("d", 2, {0: np.ones((3, 2))})
    with pytest.raises(ValueError):
        d.classes[0][0, 0] = 9.0


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
    d = tasks.Domain("d", 2, {4: np.array([[0.5, -1.25]])})
    path = str(tmp_path / "dom.csv")
    tasks.save_domain(d, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "class_id,f0,f1"
    assert lines[1] == "4,0.5,-1.25"


def test_binary_layout_header(tmp_path):
    d = tasks.Domain("d", 2, {7: np.array([[1.0, 2.0]])})
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
    d = tasks.Domain("d", 2, {0: np.ones((3, 2))})
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


def test_binary_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "extra.bin")
    _binary_domain(path, 1, [(0, [[1.0, 2.0]])], trailing=b"\x00")
    with pytest.raises(FormatError, match="extra.bin: trailing bytes after the 1 classes"):
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
    perms = rng.permutations([d.classes[cid].shape[0] for cid in picked])
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
    d = tasks.Domain("indexed", 2, classes)
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
    d = tasks.Domain("prop", dim, classes)
    path = str(tmp_path_factory.mktemp("roundtrip") / "d.bin")
    tasks.save_domain(d, path)
    back = tasks.load_domain(path)
    assert back.class_ids() == d.class_ids()
    for cid in d.class_ids():
        assert np.array_equal(back.classes[cid], d.classes[cid])
