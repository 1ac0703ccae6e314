"""Seeded mutation fuzz over every file loader: each mutated file either
loads or raises the loader's own format error, never a stray exception."""

import numpy as np
import pytest

from betree import (
    CheckpointFormatError,
    DataFormatError,
    MlpArchitecture,
    Sample,
    TreeFormatError,
    build_tree,
    identity_embedder,
    init_params,
    load_checkpoint,
    load_embedding_csv,
    load_idx,
    load_tree,
    save_checkpoint,
    save_tree,
    write_embedding_csv,
)

MUTATIONS_PER_FORMAT = 1500


def _mutate(rng, data: bytes) -> bytes:
    """One to three byte flips, deletes or inserts at random offsets."""
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3))
        if op == 0 and buf:
            buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
        elif op == 1 and buf:
            del buf[int(rng.integers(len(buf)))]
        else:
            buf.insert(int(rng.integers(len(buf) + 1)), int(rng.integers(256)))
    return bytes(buf)


def _checkpoint(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_params(MlpArchitecture((3, 4, 2)), 0), path)
    return {"ckpt": path}, lambda: load_checkpoint(path), CheckpointFormatError


def _tree(tmp_path):
    rng = np.random.default_rng(1)
    samples = [Sample(rng.normal(size=2), int(rng.integers(3))) for _ in range(12)]
    path = tmp_path / "t.btree"
    save_tree(build_tree(samples, identity_embedder(), None, 3), path)
    return {"tree": path}, lambda: load_tree(path), TreeFormatError


def _idx(tmp_path):
    images, labels = tmp_path / "img.idx", tmp_path / "lbl.idx"
    images.write_bytes((0x803).to_bytes(4, "big") + b"".join(
        n.to_bytes(4, "big") for n in (3, 2, 2)) + bytes(range(0, 240, 20)))
    labels.write_bytes((0x801).to_bytes(4, "big") + (3).to_bytes(4, "big") + bytes([0, 2, 1]))
    return {"images": images, "labels": labels}, lambda: load_idx(images, labels), DataFormatError


def _csv(tmp_path):
    path = tmp_path / "emb.csv"
    rows = [(0, [0.5, -1.25]), (1, [3.0, 1e-3]), (2, [-7.5, 2.0])]
    write_embedding_csv(path, rows, 2, comment="fuzz")
    return {"csv": path}, lambda: load_embedding_csv(path), DataFormatError


@pytest.mark.parametrize("make", [_checkpoint, _tree, _idx, _csv],
                         ids=["checkpoint", "tree", "idx", "csv"])
def test_mutated_files_raise_only_their_format_error(tmp_path, make):
    files, load, own_error = make(tmp_path)
    originals = {name: path.read_bytes() for name, path in files.items()}
    load()  # the unmutated files are valid
    rng = np.random.default_rng(2024)
    leaks = []
    for trial in range(MUTATIONS_PER_FORMAT):
        name = list(files)[int(rng.integers(len(files)))]
        for other, path in files.items():
            path.write_bytes(originals[other])
        files[name].write_bytes(_mutate(rng, originals[name]))
        try:
            load()
        except own_error:
            pass
        except Exception as e:  # noqa: BLE001 - any other type is the finding
            leaks.append((trial, name, f"{type(e).__name__}: {e}"))
    assert not leaks, leaks[:5]
