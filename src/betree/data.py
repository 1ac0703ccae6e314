"""Datasets: synthetic half-moons, IDX image/label files, and embedding CSVs."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .boundary_tree import Sample


# Labels index classes, and every soft prediction loops over all of them, so
# a CSV label at or above this bound is rejected as malformed input.
MAX_CLASS_COUNT = 1 << 16


class DataFormatError(ValueError):
    """An input file does not match its declared format."""


@dataclass
class Dataset:
    samples: list[Sample]
    feature_dim: int
    class_count: int
    provenance: str  # "halfmoons" | "idx" | "csv"

    def __post_init__(self):
        for i, s in enumerate(self.samples):
            if s.features.shape != (self.feature_dim,):
                raise ValueError(f"sample {i} has feature length {s.features.shape[0]}, expected {self.feature_dim}")
            if not 0 <= s.label < self.class_count:
                raise ValueError(f"sample {i} label {s.label} outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.samples)


def gen_half_moons(n: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved arcs: class 0 on the upper unit semicircle centered at
    (0, 0), class 1 on the lower unit semicircle centered at (1, 0.5).
    Points are evenly spaced along each arc (extra point to class 0 when n is
    odd) with isotropic Gaussian noise of stddev noise_sd added.
    """
    if n < 2:
        raise ValueError(f"gen_half_moons: n must be >= 2, got {n}")
    if noise_sd < 0:
        raise ValueError(f"gen_half_moons: noise_sd must be >= 0, got {noise_sd}")
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    points = np.vstack([upper, lower])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    rng = np.random.default_rng(seed)
    points = points + rng.normal(0.0, noise_sd, points.shape)
    samples = [Sample(p, int(l)) for p, l in zip(points, labels)]
    return Dataset(samples, 2, 2, "halfmoons")


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style big-endian IDX pair: images (magic 0x803, unsigned bytes)
    and labels (magic 0x801). Pixels are scaled from [0, 255] to [0, 1]."""
    with open(images_path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{images_path}: truncated image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != 0x00000803:
            raise DataFormatError(f"{images_path}: image magic 0x{magic:08x}, expected 0x00000803")
        pixels = np.frombuffer(f.read(), dtype=np.uint8)
    if pixels.size != count * rows * cols:
        raise DataFormatError(
            f"{images_path}: pixel payload has {pixels.size} bytes, "
            f"expected {count}*{rows}*{cols}"
        )

    with open(labels_path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise DataFormatError(f"{labels_path}: truncated label header")
        magic, label_count = struct.unpack(">II", header)
        if magic != 0x00000801:
            raise DataFormatError(f"{labels_path}: label magic 0x{magic:08x}, expected 0x00000801")
        labels = np.frombuffer(f.read(), dtype=np.uint8)
    if labels.size != label_count:
        raise DataFormatError(
            f"{labels_path}: label payload has {labels.size} bytes, expected {label_count}"
        )
    if count != label_count:
        raise DataFormatError(
            f"image count {count} does not match label count {label_count}"
        )

    dim = rows * cols
    features = pixels.reshape(count, dim).astype(np.float64) / 255.0
    class_count = int(labels.max()) + 1 if count else 0
    samples = [Sample(features[i], int(labels[i])) for i in range(count)]
    return Dataset(samples, dim, max(class_count, 1), "idx")


def _utf8_lines(f, path):
    """Lines of a text file opened as UTF-8; undecodable bytes raise a
    DataFormatError naming the file."""
    try:
        yield from f
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from e


def load_embedding_csv(path) -> Dataset:
    """Rows of `label, v1, ..., vD`; lines starting with `#` are comments,
    and a non-numeric first field on the first data line is treated as a
    header. Errors name the offending line, or the file when it is not
    UTF-8 text."""
    samples = []
    dim = None
    header_seen = False
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(_utf8_lines(f, path))
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if not header_seen and not samples:
                header_seen = True
                try:
                    float(row[0])
                except ValueError:
                    continue  # header row
            if len(row) < 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'label,v1,...', got {len(row)} field(s)")
            try:
                label_f = float(row[0])
                values = [float(v) for v in row[1:]]
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: non-numeric field ({e})") from e
            if not label_f.is_integer() or label_f < 0:
                raise DataFormatError(f"{path}:{lineno}: label must be a non-negative integer, got {row[0]!r}")
            if label_f >= MAX_CLASS_COUNT:
                raise DataFormatError(f"{path}:{lineno}: label {row[0]!r} is not below {MAX_CLASS_COUNT}")
            label = int(label_f)
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DataFormatError(f"{path}:{lineno}: row has {len(values)} values, expected {dim}")
            samples.append(Sample(np.array(values), label))
    if not samples:
        raise DataFormatError(f"{path}: no data rows")
    class_count = max(s.label for s in samples) + 1
    return Dataset(samples, dim, class_count, "csv")


def write_embedding_csv(path, rows, dim: int, comment: str | None = None) -> None:
    """Write `label,e1,...,eD` rows (with header) from (label, vector) pairs.

    Values use repr, which round-trips float64 exactly.
    """
    with open(path, "w", encoding="ascii", newline="\n") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write("label," + ",".join(f"e{i + 1}" for i in range(dim)) + "\n")
        for label, vec in rows:
            f.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in vec) + "\n")


def shuffle_split(ds: Dataset, seed: int, fractions) -> list[Dataset]:
    """Seeded permutation, then contiguous splits of the given fractions."""
    fractions = list(fractions)
    if not fractions or any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, expected <= 1")
    n = len(ds.samples)
    perm = np.random.default_rng(seed).permutation(n)
    bounds = [0]
    acc = 0.0
    for f in fractions:
        acc += f
        bounds.append(int(round(acc * n)))
    out = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        part = [ds.samples[i] for i in perm[a:b]]
        out.append(Dataset(part, ds.feature_dim, ds.class_count, ds.provenance))
    return out
