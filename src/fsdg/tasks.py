"""Domains, episodes, and the synthetic multi-domain testbed.

A domain is a bag of labeled feature vectors.  The synthetic generator
builds families of domains that share latent class structure but differ
in a fixed nonlinear warp: class prototypes live in a latent space and
depend only on the master seed, while the mixing matrix, per-feature
scale, and shift of each domain depend on its domain seed.  Two domains
from the same master seed therefore pose the same classification problem
rendered through different feature distortions, which is exactly the
shift the training algorithms are meant to survive.

Episodes are n_way/n_shot/n_query tasks with labels remapped to
0..n_way-1 and disjoint support and query rows.  A class split is three
domains (train, val, test).  A ``.csv`` path is a CSV file, any other binary.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import secrets
import struct
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    CapacityError,
    ContractError,
    FormatError,
    LengthError,
    ParseError,
    VersionError,
)
from .rng import RngStream, derive_seed, shuffles

DATASET_MAGIC = b"FSDS"
DATASET_VERSION = 1
MAX_CLASS_ID = 2**32 - 1  # class ids are stored as little-endian uint32


@dataclass
class Domain:
    """Labeled samples for one domain.

    ``rows`` is one read-only float64 block and ``spans[cid]`` the range of
    block rows of class cid; ``classes[cid]`` is the view of those rows.
    The domains that ``split_classes`` makes share their source's block.
    """

    name: str
    dim: int
    rows: np.ndarray = field(repr=False)
    spans: dict[int, range]
    classes: dict[int, np.ndarray] = field(init=False, repr=False)
    smallest: int | None = field(init=False, repr=False)  # id of a class with fewest rows

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.dim:
            raise ContractError(
                f"domain {self.name!r}: rows have shape {self.rows.shape}, expected (*, {self.dim})"
            )
        self.rows.setflags(write=False)
        self.classes = {}
        for cid in sorted(self.spans):
            if not 0 <= cid <= MAX_CLASS_ID:
                raise ContractError(f"domain {self.name!r}: class id {cid} outside "
                                    f"0..{MAX_CLASS_ID}, the binary format's range")
            span = self.spans[cid]
            if span.step != 1 or not 0 <= span.start <= span.stop <= self.rows.shape[0]:
                raise ContractError(
                    f"domain {self.name!r}: class {cid} spans {span}, outside its "
                    f"{self.rows.shape[0]} block rows"
                )
            arr = self.rows[span.start:span.stop]
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                raise ContractError(
                    f"domain {self.name!r}: class {cid} row {bad[0]} has non-finite values"
                )
            self.classes[cid] = arr
        self.smallest = min(self.classes, key=lambda cid: len(self.spans[cid]), default=None)

    @classmethod
    def from_classes(cls, name: str, dim: int, classes: dict[int, np.ndarray]) -> "Domain":
        """A domain whose block is a copy of each class's rows, in class-id order."""
        for cid, arr in classes.items():
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise ContractError(
                    f"domain {name!r}: class {cid} has shape {arr.shape}, expected (*, {dim})"
                )
        ids = sorted(classes)
        rows = np.concatenate([classes[cid] for cid in ids] or [np.empty((0, dim))],
                              dtype=np.float64)
        return cls(name, dim, rows, _spans({cid: classes[cid].shape[0] for cid in ids}))

    def class_ids(self) -> list[int]:
        return sorted(self.classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _spans(counts: dict[int, int]) -> dict[int, range]:
    """Consecutive block row ranges for classes of these row counts, in order."""
    starts = itertools.accumulate(counts.values(), initial=0)
    return {cid: range(start, start + n) for (cid, n), start in zip(counts.items(), starts)}


@dataclass
class Episode:
    """One few-shot task.  ``x`` is the encoder's batch: the support rows,
    then the query rows, each class-major in label order.

    An episode drawn from a sequence of T streams is a block of T tasks:
    ``x`` stacks their batches as (T, rows, dim), ``class_ids`` holds one
    list per task and ``domain_name`` one name per task; the labels are
    the same for every task.
    """

    n_way: int
    n_shot: int
    n_query: int
    x: Tensor
    support_y: list[int]
    query_y: list[int]
    domain_name: str | list[str]
    class_ids: list  # original domain class id of each label (one list per task in a block)


@dataclass
class SyntheticDomainSpec:
    """Recipe for one synthetic domain within a shared-master family."""

    master_seed: int
    domain_seed: int
    n_classes: int = 20
    dim: int = 16
    samples_per_class: int = 50
    latent_dim: int = 4
    noise_sigma: float = 0.3
    warp_strength: float = 1.0
    name: str = ""

    def __post_init__(self):
        if min(self.n_classes, self.dim, self.samples_per_class, self.latent_dim) < 1:
            raise ContractError("synthetic domain: sizes must be positive")
        if self.noise_sigma < 0.0 or self.warp_strength < 0.0:
            raise ContractError("synthetic domain: sigma and warp strength must be non-negative")
        if not self.name:
            self.name = f"synth-{self.master_seed}-{self.domain_seed}"


def latent_prototypes(master_seed: int, n_classes: int, latent_dim: int) -> np.ndarray:
    """Standard-Gaussian class centers; a function of the master seed only."""
    stream = RngStream(derive_seed(master_seed, "latent-prototypes"))
    return stream.normals(n_classes * latent_dim).reshape(n_classes, latent_dim)


def generate_synthetic_domain(spec: SyntheticDomainSpec) -> Domain:
    """Render the shared latent classes through this domain's warp.

    x = tanh(A_d (c_y + eps)) * s_d + b_d with eps ~ N(0, sigma^2 I).
    A_d has N(0, 1/sqrt(latent_dim)) entries; the per-feature log-scale
    and shift are Gaussian with the warp strength as their spread.
    """
    protos = latent_prototypes(spec.master_seed, spec.n_classes, spec.latent_dim)
    warp = RngStream(derive_seed(spec.master_seed, "domain-warp", spec.domain_seed))
    mixing = warp.normals(spec.dim * spec.latent_dim).reshape(spec.dim, spec.latent_dim)
    mixing /= spec.latent_dim**0.25
    scales = np.exp(spec.warp_strength * warp.normals(spec.dim))
    shifts = spec.warp_strength * warp.normals(spec.dim)

    noise = RngStream(derive_seed(spec.master_seed, "domain-noise", spec.domain_seed))
    spans = _spans(dict.fromkeys(range(spec.n_classes), spec.samples_per_class))
    rows = np.empty((spec.n_classes * spec.samples_per_class, spec.dim))
    for cid, span in spans.items():
        eps = noise.substream("class", cid).normals(
            spec.samples_per_class * spec.latent_dim
        ).reshape(spec.samples_per_class, spec.latent_dim)
        latents = protos[cid] + spec.noise_sigma * eps
        rows[span.start:span.stop] = np.tanh(latents @ mixing.T) * scales + shifts
    return Domain(spec.name, spec.dim, rows, spans)


# ---------------------------------------------------------------------------
# persistence


@contextlib.contextmanager
def replacing(paths: Sequence[str]) -> Iterator[list[str]]:
    """A fresh temporary path next to each of ``paths``, for the block to
    write.  Once the block returns, each temporary file replaces its path;
    if it raises, no path is replaced and the temporary files are removed."""
    temps = [f"{path}.{secrets.token_hex(4)}.tmp" for path in paths]
    try:
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def _write_binary(domain: Domain, target: str) -> None:
    """Little-endian layout: FSDS, version, counts, then per-class payload."""
    with open(target, "xb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<III", DATASET_VERSION, domain.n_classes, domain.dim))
        for cid in sorted(domain.classes):
            arr = np.ascontiguousarray(domain.classes[cid], dtype="<f8")
            fh.write(struct.pack("<II", cid, arr.shape[0]))
            fh.write(arr.tobytes())


def _write_csv(domain: Domain, target: str) -> None:
    with open(target, "x", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id"] + [f"f{i}" for i in range(domain.dim)])
        for cid in sorted(domain.classes):
            for row in domain.classes[cid]:
                writer.writerow([cid] + [repr(float(v)) for v in row])


def save_domains(parts: Sequence[tuple[Domain, str]]) -> None:
    """Save each domain to its path, as CSV if the path ends in ``.csv``;
    no path is replaced before every file is written."""
    with replacing([path for _, path in parts]) as temps:
        for (domain, path), tmp in zip(parts, temps):
            (_write_csv if path.endswith(".csv") else _write_binary)(domain, tmp)


def save_domain(domain: Domain, path: str) -> None:
    save_domains([(domain, path)])


def claim(fh: io.BufferedReader, n: int, what: str, kind: str) -> None:
    """Check that the file holds its next ``n`` bytes: a corrupt size in a
    header must not make a read allocate the payload it declares.  The
    error names the file as ``<kind> <path>``."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise LengthError(f"{kind} {fh.name}: truncated while reading {what}: "
                          f"{n} bytes declared, {left} left")


def read_exact(fh: io.BufferedReader, n: int, what: str, kind: str) -> bytes:
    """The next ``n`` bytes, once the file is known to hold them."""
    claim(fh, n, what, kind)
    return fh.read(n)


def load_domain_binary(path: str) -> Domain:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic", "dataset file")
        if magic != DATASET_MAGIC:
            raise FormatError(f"dataset file {path}: bad magic {magic!r}")
        version, n_classes, dim = struct.unpack("<III", read_exact(fh, 12, "header", "dataset file"))
        if version > DATASET_VERSION:
            raise VersionError(f"dataset file {path}: version {version} not supported")
        # First pass: the class headers, skipping each payload; second pass:
        # every payload straight into its rows of the domain's block.
        counts: dict[int, int] = {}
        payloads = []
        for _ in range(n_classes):
            cid, count = struct.unpack("<II", read_exact(fh, 8, "class header", "dataset file"))
            if cid in counts:
                raise FormatError(f"dataset file {path}: class {cid} appears twice")
            claim(fh, count * dim * 8, f"class {cid} samples", "dataset file")
            counts[cid] = count
            payloads.append(fh.tell())
            fh.seek(count * dim * 8, os.SEEK_CUR)
        if fh.read(1):
            raise FormatError(
                f"dataset file {path}: trailing bytes after the {n_classes} classes of its header")
        spans = _spans(counts)
        rows = np.empty((sum(counts.values()), dim))
        for offset, span in zip(payloads, spans.values()):
            fh.seek(offset)
            rows[span.start:span.stop] = np.frombuffer(
                fh.read(len(span) * dim * 8), dtype="<f8").reshape(len(span), dim)
    return Domain(path, dim, rows, spans)


def load_domain_csv(path: str) -> Domain:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"dataset csv {path}: empty file") from None
        if not header or header[0] != "class_id":
            raise ParseError(f"dataset csv {path}: must start with a class_id header")
        dim = len(header) - 1
        if dim < 1 or header[1:] != [f"f{i}" for i in range(dim)]:
            raise ParseError(f"dataset csv {path}: feature columns must be f0..f{{D-1}}")
        rows: dict[int, list[list[float]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(f"dataset csv {path}, line {lineno}: expected {dim + 1} fields, got {len(row)}")
            try:
                cid = int(row[0])
                values = [float(v) for v in row[1:]]
            except ValueError as err:
                raise ParseError(f"dataset csv {path}, line {lineno}: {err}") from None
            if not 0 <= cid <= MAX_CLASS_ID:
                raise ParseError(f"dataset csv {path}, line {lineno}: class id {cid} "
                                 f"outside 0..{MAX_CLASS_ID}, the binary format's range")
            if not np.isfinite(values).all():
                raise ParseError(f"dataset csv {path}, line {lineno}: non-finite feature value")
            rows.setdefault(cid, []).append(values)
    if not rows:
        raise ParseError(f"dataset csv {path}: no sample rows")
    return Domain.from_classes(path, dim, {cid: np.array(vals) for cid, vals in rows.items()})


def load_domain(path: str) -> Domain:
    if path.endswith(".csv"):
        return load_domain_csv(path)
    return load_domain_binary(path)


# ---------------------------------------------------------------------------
# episodes and class splits


def sample_episode(domain: Domain | Sequence[Domain], n_way: int, n_shot: int, n_query: int,
                   rng: RngStream | Sequence[RngStream]) -> Episode:
    """Draw one task: n_way classes, then n_shot + n_query rows per class.

    Support and query rows are disjoint by construction.  Given a sequence
    of streams, draws one task from each, as one block (see ``Episode``);
    each task and each stream's end position equal those of a call with
    that stream alone.  ``domain`` may be one domain per stream, of one
    feature width, so that a block mixes domains.
    """
    if min(n_way, n_shot, n_query) < 1:
        raise ContractError("sample_episode: way, shot, and query must be positive")
    single = isinstance(rng, RngStream)
    streams = [rng] if single else list(rng)
    if not streams:
        raise ContractError("sample_episode: no streams to draw from")
    doms = [domain] * len(streams) if isinstance(domain, Domain) else list(domain)
    if len(doms) != len(streams):
        raise ContractError(f"sample_episode: {len(doms)} domains for {len(streams)} streams")
    need = n_shot + n_query
    ids: dict[int, list[int]] = {}  # class ids of each distinct domain, by id()
    for d in doms:
        if id(d) not in ids:
            ids[id(d)] = _episode_classes(d, n_way, need)
    if len({d.dim for d in doms}) != 1:
        raise ContractError("sample_episode: the domains of a block differ in feature width")
    # Each task's classes, then the block rows of every picked class in
    # label order; the first `need` of a class's shuffle are its episode rows.
    orders = shuffles(streams, [[range(len(ids[id(d)]))] for d in doms])
    picked = [[ids[id(d)][i] for i in order[:n_way]] for d, (order,) in zip(doms, orders)]
    perms = shuffles(streams, [[d.spans[cid] for cid in p] for d, p in zip(doms, picked)])
    rows = []
    for task in perms:
        for block_rows in task:
            rows += block_rows[:n_shot]
        for block_rows in task:
            rows += block_rows[n_shot:need]
    # A private float64 copy of rows that each Domain proved finite, taken
    # from each distinct row block at once.
    sources: dict[int, tuple[np.ndarray, list[int]]] = {}
    for t, d in enumerate(doms):
        sources.setdefault(id(d.rows), (d.rows, []))[1].append(t)
    shape = (len(streams), n_way * need, doms[0].dim)
    if len(sources) == 1:
        x = np.take(doms[0].rows, rows, axis=0)
        if not single:
            x = x.reshape(shape)
    else:
        at = np.asarray(rows).reshape(shape[:2])
        x = np.empty(shape)
        for block, tasks in sources.values():
            x[tasks] = np.take(block, at[tasks], axis=0)
    return Episode(
        n_way=n_way,
        n_shot=n_shot,
        n_query=n_query,
        x=ad.adopt(x),
        support_y=[label for label in range(n_way) for _ in range(n_shot)],
        query_y=[label for label in range(n_way) for _ in range(n_query)],
        domain_name=doms[0].name if single else [d.name for d in doms],
        class_ids=picked[0] if single else picked,
    )


def _episode_classes(domain: Domain, n_way: int, need: int) -> list[int]:
    """The class ids of a domain that holds an episode of n_way classes
    and ``need`` rows per class; CapacityError if it holds none."""
    ids = domain.class_ids()
    if len(ids) < n_way:
        raise CapacityError(
            f"domain {domain.name!r}: {len(ids)} classes available, episode needs {n_way}"
        )
    # Any class may be picked, so the smallest must hold an episode's rows.
    if len(domain.spans[domain.smallest]) < need:
        raise CapacityError(
            f"domain {domain.name!r}: class {domain.smallest} has "
            f"{len(domain.spans[domain.smallest])} samples, episode needs {need}"
        )
    return ids


def split_classes(domain: Domain, fractions: tuple[float, float, float],
                  rng: RngStream) -> dict[str, Domain]:
    """Partition classes into train/val/test domains by rounded fractions.

    Each part is named ``"<name>:<tag>"``.  val and test sizes round to
    the nearest integer; train takes the remainder.  A split that rounds
    to zero while its fraction is positive (with at least 3 classes
    present) is treated as a capacity problem.
    """
    f_train, f_val, f_test = fractions
    if any(f < 0.0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError("split_classes: fractions must be non-negative and sum to 1")
    ids = sorted(domain.classes)
    k = len(ids)
    n_val = round(f_val * k)
    n_test = round(f_test * k)
    n_train = k - n_val - n_test
    if k >= 3:
        for count, frac, tag in ((n_train, f_train, "train"), (n_val, f_val, "val"), (n_test, f_test, "test")):
            if frac > 0.0 and count == 0:
                raise CapacityError(f"split_classes: split {tag!r} received 0 of {k} classes")
    if n_train < 0:
        raise CapacityError("split_classes: rounded val and test exceed the class count")
    order = [ids[i] for i in rng.permutation(k)]
    bounds = {"train": (0, n_train), "val": (n_train, n_train + n_val),
              "test": (n_train + n_val, k)}
    return {
        tag: Domain(f"{domain.name}:{tag}", domain.dim, domain.rows,
                    {cid: domain.spans[cid] for cid in sorted(order[lo:hi])})
        for tag, (lo, hi) in bounds.items()
    }
