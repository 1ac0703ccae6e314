"""Half-moons generator, IDX ingestion, embedding CSVs, dataset splitting."""

import struct

import numpy as np
import pytest

from betree import (
    DataFormatError,
    Dataset,
    Sample,
    gen_half_moons,
    load_embedding_csv,
    load_idx,
    shuffle_split,
    write_embedding_csv,
)
from betree.data import MAX_CLASS_COUNT
from oracles import ref_1nn


# ---- half-moons ---------------------------------------------------------------

def test_half_moons_noiseless_geometry():
    data = gen_half_moons(100, 0.0, seed=0)
    assert data.feature_dim == 2 and data.class_count == 2
    upper = [s for s in data.samples if s.label == 0]
    lower = [s for s in data.samples if s.label == 1]
    assert len(upper) == 50 and len(lower) == 50
    for s in upper:
        assert abs(np.linalg.norm(s.features) - 1.0) < 1e-12
        assert s.features[1] >= -1e-12
    for s in lower:
        assert abs(np.linalg.norm(s.features - [1.0, 0.5]) - 1.0) < 1e-12
        assert s.features[1] <= 0.5 + 1e-12
    # arc endpoints: evenly spaced parameterization starts at angle 0
    assert np.allclose(upper[0].features, [1.0, 0.0], atol=1e-12)
    assert np.allclose(upper[-1].features, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(lower[0].features, [0.0, 0.5], atol=1e-12)
    assert np.allclose(lower[-1].features, [2.0, 0.5], atol=1e-12)


def test_half_moons_odd_count_extra_goes_to_class_zero():
    data = gen_half_moons(7, 0.05, seed=1)
    labels = [s.label for s in data.samples]
    assert labels.count(0) == 4 and labels.count(1) == 3


def test_half_moons_deterministic_and_noisy():
    a = gen_half_moons(30, 0.2, seed=2)
    b = gen_half_moons(30, 0.2, seed=2)
    c = gen_half_moons(30, 0.2, seed=3)
    assert all(np.array_equal(x.features, y.features)
               for x, y in zip(a.samples, b.samples))
    assert any(not np.array_equal(x.features, y.features)
               for x, y in zip(a.samples, c.samples))
    clean = gen_half_moons(30, 0.0, seed=2)
    assert any(not np.array_equal(x.features, y.features)
               for x, y in zip(a.samples, clean.samples))


def test_half_moons_validation():
    with pytest.raises(ValueError):
        gen_half_moons(1, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_half_moons(10, -0.1, seed=0)


def test_half_moons_is_1nn_learnable():
    train = gen_half_moons(400, 0.1, seed=4)
    test = gen_half_moons(100, 0.1, seed=5)
    preds = ref_1nn([s.features for s in train.samples],
                    [s.label for s in train.samples],
                    [s.features for s in test.samples])
    acc = np.mean([p == s.label for p, s in zip(preds, test.samples)])
    assert acc >= 0.95


# ---- IDX ------------------------------------------------------------------------

def _write_idx(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
               count=None, label_count=None):
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", image_magic, count if count is not None else n,
                                rows, cols) + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", label_magic,
                                label_count if label_count is not None else len(labels))
                    + bytes(labels))
    return img, lab


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    pixels = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
    pixels[0, 0, 0] = 255
    pixels[0, 0, 1] = 0
    img, lab = _write_idx(tmp_path, pixels, [7, 0, 3])
    data = load_idx(img, lab)
    assert data.feature_dim == 20 and len(data) == 3
    assert [s.label for s in data.samples] == [7, 0, 3]
    assert data.class_count == 8
    assert data.samples[0].features[0] == 1.0
    assert data.samples[0].features[1] == 0.0
    expected = pixels.reshape(3, 20).astype(np.float64) / 255.0
    for s, e in zip(data.samples, expected):
        assert np.array_equal(s.features, e)


def test_idx_error_cases(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)

    img, lab = _write_idx(tmp_path, pixels, [0, 1], image_magic=0x802)
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(img, lab)

    img, lab = _write_idx(tmp_path, pixels, [0, 1], label_magic=0x803)
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(img, lab)

    img, lab = _write_idx(tmp_path, pixels, [0, 1], count=3)  # payload short
    with pytest.raises(DataFormatError, match="payload"):
        load_idx(img, lab)

    img, lab = _write_idx(tmp_path, pixels, [0, 1], label_count=5)
    with pytest.raises(DataFormatError, match="payload"):
        load_idx(img, lab)

    img, lab = _write_idx(tmp_path, pixels, [0, 1, 1])  # 2 images, 3 labels
    with pytest.raises(DataFormatError, match="does not match"):
        load_idx(img, lab)

    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x01")
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx(short, lab)
    img, _ = _write_idx(tmp_path, pixels, [0, 1])
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx(img, short)


def test_idx_errors_name_the_file(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    img, lab = _write_idx(tmp_path, pixels, [0], image_magic=0xBAD)
    with pytest.raises(DataFormatError) as err:
        load_idx(img, lab)
    assert str(img) in str(err.value)


# ---- embedding CSV ---------------------------------------------------------------

def test_csv_parses_header_comments_and_blanks(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(
        "# produced by a test\n"
        "label,e1,e2\n"
        "\n"
        "0,1.5,-2.5\n"
        "# interior comment\n"
        "2,0.25,0.75\n"
    )
    data = load_embedding_csv(path)
    assert data.feature_dim == 2 and data.class_count == 3
    assert [s.label for s in data.samples] == [0, 2]
    assert np.array_equal(data.samples[0].features, [1.5, -2.5])


def test_csv_headerless_numeric_first_row(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1,0.5,0.5\n0,-1.0,2.0\n")
    data = load_embedding_csv(path)
    assert len(data) == 2 and data.samples[0].label == 1


def test_csv_error_cases(tmp_path):
    cases = {
        "ragged.csv": ("0,1.0,2.0\n1,3.0\n", "expected 2"),
        "nonnum.csv": ("0,1.0\n1,apple\n", "non-numeric"),
        "fraclabel.csv": ("1.5,1.0\n", "non-negative integer"),
        "neglabel.csv": ("-2,1.0\n", "non-negative integer"),
        "nanlabel.csv": ("nan,1.0\n", "non-negative integer"),
        "inflabel.csv": ("inf,1.0\n", "non-negative integer"),
        "hugelabel.csv": ("0,1.0\n1e300,2.0\n", r"hugelabel\.csv:2: label '1e300' is not below"),
        "limitlabel.csv": (f"{MAX_CLASS_COUNT},1.0\n", f"not below {MAX_CLASS_COUNT}"),
        "short.csv": ("3\n", "field"),
        "empty.csv": ("# nothing here\n", "no data rows"),
        "headeronly.csv": ("label,e1\n", "no data rows"),
    }
    for name, (text, match) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            load_embedding_csv(path)


def test_csv_errors_include_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,e1\n0,1.0\n1,x\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_embedding_csv(path)


def test_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"label,e1\n0,1.0\n1,\xff2.0\n")
    with pytest.raises(DataFormatError, match="not UTF-8") as err:
        load_embedding_csv(path)
    assert str(path) in str(err.value)


def test_csv_write_read_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    rows = [(int(rng.integers(4)), rng.normal(size=3) * 10.0 ** rng.integers(-12, 12))
            for _ in range(25)]
    rows.append((0, np.array([1.0 / 3.0, 1e-17, -0.0])))
    path = tmp_path / "emb.csv"
    write_embedding_csv(path, rows, dim=3, comment="round trip")
    assert path.read_text().splitlines()[1] == "label,e1,e2,e3"
    data = load_embedding_csv(path)
    assert len(data) == len(rows)
    for s, (label, vec) in zip(data.samples, rows):
        assert s.label == label
        assert np.array_equal(s.features, np.asarray(vec, dtype=np.float64))


# ---- splitting ----------------------------------------------------------------

def test_shuffle_split_sizes_and_partition():
    data = gen_half_moons(101, 0.1, seed=8)
    parts = shuffle_split(data, seed=9, fractions=(0.5, 0.25, 0.25))
    assert [len(p) for p in parts] == [50, 26, 25]
    seen = sorted(tuple(s.features) for p in parts for s in p.samples)
    orig = sorted(tuple(s.features) for s in data.samples)
    assert seen == orig  # a permutation: nothing lost or duplicated
    again = shuffle_split(data, seed=9, fractions=(0.5, 0.25, 0.25))
    for p, q in zip(parts, again):
        assert all(np.array_equal(a.features, b.features)
                   for a, b in zip(p.samples, q.samples))
    shuffled = shuffle_split(data, seed=10, fractions=(0.5, 0.25, 0.25))
    assert any(not np.array_equal(a.features, b.features)
               for a, b in zip(parts[0].samples, shuffled[0].samples))


def test_shuffle_split_validation():
    data = gen_half_moons(10, 0.1, seed=11)
    with pytest.raises(ValueError):
        shuffle_split(data, 0, fractions=())
    with pytest.raises(ValueError):
        shuffle_split(data, 0, fractions=(0.5, -0.1))
    with pytest.raises(ValueError):
        shuffle_split(data, 0, fractions=(0.8, 0.3))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([Sample([1.0], 0)], 2, 2, "csv")  # wrong dim
    with pytest.raises(ValueError):
        Dataset([Sample([1.0, 2.0], 5)], 2, 2, "csv")  # label out of range
