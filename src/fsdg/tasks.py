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

import csv
import io
import struct
from dataclasses import dataclass

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
from .rng import RngStream, derive_seed

DATASET_MAGIC = b"FSDS"
DATASET_VERSION = 1


@dataclass
class Domain:
    """Labeled samples for one domain; class arrays are immutable."""

    name: str
    dim: int
    classes: dict[int, np.ndarray]

    def __post_init__(self):
        for cid, arr in self.classes.items():
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise ContractError(
                    f"domain {self.name!r}: class {cid} has shape {arr.shape}, expected (*, {self.dim})"
                )
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                raise ContractError(
                    f"domain {self.name!r}: class {cid} row {bad[0]} has non-finite values"
                )
            arr.setflags(write=False)

    def class_ids(self) -> list[int]:
        return sorted(self.classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass
class Episode:
    """One few-shot task.  ``x`` is the encoder's batch: the support rows,
    then the query rows, each class-major in label order."""

    n_way: int
    n_shot: int
    n_query: int
    x: Tensor
    support_y: list[int]
    query_y: list[int]
    domain_name: str
    class_ids: list[int]  # original domain class id for each episode label


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
    classes: dict[int, np.ndarray] = {}
    for cid in range(spec.n_classes):
        eps = noise.substream("class", cid).normals(
            spec.samples_per_class * spec.latent_dim
        ).reshape(spec.samples_per_class, spec.latent_dim)
        latents = protos[cid] + spec.noise_sigma * eps
        classes[cid] = np.tanh(latents @ mixing.T) * scales + shifts
    return Domain(spec.name, spec.dim, classes)


# ---------------------------------------------------------------------------
# persistence


def save_domain_binary(domain: Domain, path: str) -> None:
    """Little-endian layout: FSDS, version, counts, then per-class payload."""
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<III", DATASET_VERSION, domain.n_classes, domain.dim))
        for cid in sorted(domain.classes):
            arr = np.ascontiguousarray(domain.classes[cid], dtype="<f8")
            fh.write(struct.pack("<II", cid, arr.shape[0]))
            fh.write(arr.tobytes())


def save_domain_csv(domain: Domain, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id"] + [f"f{i}" for i in range(domain.dim)])
        for cid in sorted(domain.classes):
            for row in domain.classes[cid]:
                writer.writerow([cid] + [repr(float(v)) for v in row])


def save_domain(domain: Domain, path: str) -> None:
    if path.endswith(".csv"):
        save_domain_csv(domain, path)
    else:
        save_domain_binary(domain, path)


def _read_exact(fh: io.BufferedReader, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise LengthError(f"dataset file {fh.name}: truncated while reading {what}")
    return data


def load_domain_binary(path: str) -> Domain:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != DATASET_MAGIC:
            raise FormatError(f"dataset file {path}: bad magic {magic!r}")
        version, n_classes, dim = struct.unpack("<III", _read_exact(fh, 12, "header"))
        if version > DATASET_VERSION:
            raise VersionError(f"dataset file {path}: version {version} not supported")
        classes: dict[int, np.ndarray] = {}
        for _ in range(n_classes):
            cid, count = struct.unpack("<II", _read_exact(fh, 8, "class header"))
            if cid in classes:
                raise FormatError(f"dataset file {path}: class {cid} appears twice")
            payload = _read_exact(fh, count * dim * 8, f"class {cid} samples")
            classes[cid] = np.frombuffer(payload, dtype="<f8").reshape(count, dim).copy()
        if fh.read(1):
            raise FormatError(
                f"dataset file {path}: trailing bytes after the {n_classes} classes of its header")
    return Domain(path, dim, classes)


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
            if not np.isfinite(values).all():
                raise ParseError(f"dataset csv {path}, line {lineno}: non-finite feature value")
            rows.setdefault(cid, []).append(values)
    if not rows:
        raise ParseError(f"dataset csv {path}: no sample rows")
    classes = {cid: np.array(vals) for cid, vals in rows.items()}
    return Domain(path, dim, classes)


def load_domain(path: str) -> Domain:
    if path.endswith(".csv"):
        return load_domain_csv(path)
    return load_domain_binary(path)


# ---------------------------------------------------------------------------
# episodes and class splits


def sample_episode(domain: Domain, n_way: int, n_shot: int, n_query: int,
                   rng: RngStream) -> Episode:
    """Draw one task: n_way classes, then n_shot + n_query rows per class.

    Support and query rows are disjoint by construction.
    """
    if min(n_way, n_shot, n_query) < 1:
        raise ContractError("sample_episode: way, shot, and query must be positive")
    ids = domain.class_ids()
    if len(ids) < n_way:
        raise CapacityError(
            f"domain {domain.name!r}: {len(ids)} classes available, episode needs {n_way}"
        )
    picked = [ids[i] for i in rng.sample_without_replacement(len(ids), n_way)]
    arrays = [domain.classes[cid] for cid in picked]
    need = n_shot + n_query
    for cid, arr in zip(picked, arrays):
        if arr.shape[0] < need:
            raise CapacityError(
                f"domain {domain.name!r}: class {cid} has {arr.shape[0]} samples, episode needs {need}"
            )
    # The rows of every picked class from one draw, in label order.
    perms = rng.permutations([arr.shape[0] for arr in arrays])
    drawn = [arr[rows[:need]] for arr, rows in zip(arrays, perms)]
    support_rows = [rows[:n_shot] for rows in drawn]
    query_rows = [rows[n_shot:] for rows in drawn]
    support_y = [label for label in range(n_way) for _ in range(n_shot)]
    query_y = [label for label in range(n_way) for _ in range(n_query)]
    return Episode(
        n_way=n_way,
        n_shot=n_shot,
        n_query=n_query,
        # A private float64 copy of rows that Domain proved finite.
        x=ad.adopt(np.concatenate(support_rows + query_rows, dtype=np.float64)),
        support_y=support_y,
        query_y=query_y,
        domain_name=domain.name,
        class_ids=picked,
    )


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
        tag: Domain(f"{domain.name}:{tag}", domain.dim,
                    {cid: domain.classes[cid] for cid in sorted(order[lo:hi])})
        for tag, (lo, hi) in bounds.items()
    }
