"""Boundary tree: construction, greedy traversal, online growth, snapshots."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from betree import (
    STOP_LEAF,
    STOP_STAYED,
    BoundaryTree,
    MlpArchitecture,
    Sample,
    TreeFormatError,
    build_tree,
    candidate_ids,
    embed,
    fill_embeddings,
    gen_half_moons,
    identity_embedder,
    init_params,
    insert_if_wrong,
    l2_value,
    load_tree,
    make_embedder,
    new_tree,
    node_embedding,
    predict_hard,
    save_tree,
    shuffle_split,
    traverse,
    walk_block,
)
from betree import boundary_tree
from helpers import random_samples, random_tree
from oracles import ref_replay_build, ref_traverse

IDENT = identity_embedder()


def two_node_tree(max_children=None):
    tree = new_tree(Sample([0.0, 0.0], 0), max_children)
    tree.add_child(0, Sample([4.0, 0.0], 1))
    return tree


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        Sample([1.0], -1)
    s = Sample([1, 2], 1)
    assert s.features.dtype == np.float64


def test_new_tree_basics():
    tree = new_tree(Sample([1.0, 2.0, 3.0], 1), max_children=4, class_count=3)
    assert len(tree) == 1 and tree.root == 0 and tree.feature_dim == 3
    assert tree.nodes[0].label == 1 and tree.nodes[0].parent is None
    with pytest.raises(ValueError):
        new_tree(Sample([0.0], 0), max_children=0)
    with pytest.raises(ValueError):
        new_tree(Sample([0.0], 5), class_count=2)


def test_add_child_validation():
    tree = new_tree(Sample([0.0, 0.0], 0), class_count=2)
    cid = tree.add_child(0, Sample([1.0, 1.0], 1))
    assert cid == 1 and tree.nodes[0].children == [1] and tree.nodes[1].parent == 0
    with pytest.raises(ValueError):
        tree.add_child(0, Sample([1.0, 1.0], 7))
    with pytest.raises(ValueError):
        tree.add_child(0, Sample([1.0, 1.0, 1.0], 1))
    assert list(tree.edges()) == [(0, 1)]


def test_candidate_ids_fanout_rule():
    tree = new_tree(Sample([0.0], 0), max_children=2)
    tree.add_child(0, Sample([1.0], 1))
    assert candidate_ids(tree, 0) == [0, 1]
    tree.add_child(0, Sample([2.0], 1))
    # root is now full: it may not be its own candidate
    assert candidate_ids(tree, 0) == [1, 2]


def test_traverse_single_node_is_leaf_stop():
    tree = new_tree(Sample([0.0, 0.0], 0))
    trace = traverse(tree, IDENT, np.array([9.0, 9.0]))
    assert trace.stop_mode == STOP_LEAF and trace.final == 0
    assert trace.steps == [] and trace.visited == [0]


def test_traverse_tie_resolves_to_lowest_id():
    tree = new_tree(Sample([0.0, 0.0], 0))
    tree.add_child(0, Sample([2.0, 0.0], 1))
    # query equidistant from both: the current node (lower id) wins the tie
    trace = traverse(tree, IDENT, np.array([1.0, 0.0]))
    assert trace.stop_mode == STOP_STAYED and trace.final == 0
    assert len(trace.steps) == 1 and trace.steps[0].chosen_id == 0


def test_traverse_descends_to_leaf():
    tree = two_node_tree()
    trace = traverse(tree, IDENT, np.array([5.0, 0.0]))
    assert trace.stop_mode == STOP_LEAF and trace.final == 1
    assert trace.visited == [0, 1]
    assert predict_hard(tree, IDENT, np.array([5.0, 0.0])) == 1


def test_traverse_stays_when_current_closest():
    tree = two_node_tree()
    trace = traverse(tree, IDENT, np.array([0.5, 0.0]))
    assert trace.stop_mode == STOP_STAYED and trace.final == 0


def test_full_node_cannot_stop_traversal():
    tree = two_node_tree(max_children=1)
    # query hugs the root, but the root is full so the walk must descend
    trace = traverse(tree, IDENT, np.array([0.1, 0.0]))
    assert trace.final == 1 and trace.stop_mode == STOP_LEAF
    assert trace.steps[0].candidates == [1]


def test_traverse_matches_reference_oracle():
    rng = np.random.default_rng(100)
    bounds = [None, 1, 2, 3, None]
    for trial in range(40):
        dim = int(rng.integers(2, 5))
        tree = random_tree(rng, n_range=(3, 25), dim=dim,
                           class_count=int(rng.integers(2, 5)),
                           max_children=bounds[trial % len(bounds)])
        children = [list(n.children) for n in tree.nodes]
        for _ in range(10):
            q = rng.normal(size=dim)

            def dist_of(i):
                return float(np.linalg.norm(q - tree.nodes[i].sample.features))

            expected = ref_traverse(children, tree.max_children, dist_of)
            trace = traverse(tree, IDENT, q)
            assert trace.final == expected
            assert predict_hard(tree, IDENT, q) == tree.nodes[expected].label


def test_trace_postconditions_on_random_trees():
    rng = np.random.default_rng(101)
    for _ in range(20):
        tree = random_tree(rng, n_range=(3, 20), dim=3, class_count=3)
        q = rng.normal(size=3)
        trace = traverse(tree, IDENT, q)
        assert trace.steps[0].node == tree.root
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert b.node == a.chosen_id
        for step in trace.steps:
            assert step.candidates == sorted(step.candidates)
            assert np.all(step.distances >= 0.0)
            dmin = step.distances[step.chosen]
            assert np.all(step.distances[: step.chosen] > dmin)
        if trace.stop_mode == STOP_STAYED:
            assert trace.steps[-1].chosen_id == trace.steps[-1].node == trace.final
        else:
            assert not tree.nodes[trace.final].children
            assert trace.steps[-1].chosen_id == trace.final
        visited = trace.visited
        assert visited[0] == tree.root and visited[-1] == trace.final
        for p, c in zip(visited, visited[1:]):
            assert tree.nodes[c].parent == p


def test_insert_if_wrong():
    tree = two_node_tree()
    n0 = len(tree)
    assert not insert_if_wrong(tree, IDENT, Sample([0.2, 0.0], 0))  # already right
    assert len(tree) == n0
    assert insert_if_wrong(tree, IDENT, Sample([0.3, 0.0], 1))  # near root, label 1
    assert len(tree) == n0 + 1
    new = tree.nodes[-1]
    assert new.parent == 0 and new.label != tree.nodes[0].label


@pytest.mark.parametrize("max_children", [None, 2])
def test_build_matches_replay_oracle_identity(max_children):
    data = gen_half_moons(200, 0.1, seed=7)
    tree = build_tree(data.samples, IDENT, max_children, data.class_count)
    labels, children, parents = ref_replay_build(
        [(s.features, s.label) for s in data.samples], lambda x: x, max_children)
    assert [n.label for n in tree.nodes] == labels
    assert [list(n.children) for n in tree.nodes] == children
    assert [-1 if n.parent is None else n.parent for n in tree.nodes] == parents


def test_build_matches_replay_oracle_mlp():
    rng = np.random.default_rng(102)
    params = init_params(MlpArchitecture((3, 8, 2)), 103)
    samples = random_samples(rng, 150, 3, 3)
    tree = build_tree(samples, make_embedder(params), None, 3)
    labels, children, parents = ref_replay_build(
        [(s.features, s.label) for s in samples], lambda x: embed(params, x))
    assert [n.label for n in tree.nodes] == labels
    assert [list(n.children) for n in tree.nodes] == children


def test_build_tree_validation():
    with pytest.raises(ValueError):
        build_tree([], IDENT)
    ragged = [Sample([0.0, 0.0], 0), Sample([1.0], 1)]
    with pytest.raises(ValueError):
        build_tree(ragged, IDENT)


def test_build_tree_deterministic_and_monotone():
    data = gen_half_moons(120, 0.15, seed=8)
    a = build_tree(data.samples, IDENT)
    b = build_tree(data.samples, IDENT)
    assert [n.label for n in a.nodes] == [n.label for n in b.nodes]
    assert all(np.array_equal(x.sample.features, y.sample.features)
               for x, y in zip(a.nodes, b.nodes))
    tree = new_tree(data.samples[0])
    sizes = []
    for s in data.samples[1:]:
        insert_if_wrong(tree, IDENT, s)
        sizes.append(len(tree))
    assert sizes == sorted(sizes) and sizes[-1] == len(a)


def test_node_embedding_cache_keyed_by_embedder():
    tree = two_node_tree()
    calls = {"n": 0}

    def counted(key):
        def fn(x):
            calls["n"] += len(np.atleast_2d(x))  # embedded rows, not calls
            return np.asarray(x, dtype=np.float64)

        fn.cache_key = key
        return fn

    e1 = counted(("count", 1))
    node_embedding(tree, 0, e1)
    node_embedding(tree, 0, e1)
    assert calls["n"] == 1  # second hit served from cache
    node_embedding(tree, 0, counted(("count", 2)))
    assert calls["n"] == 2  # new stamp invalidates
    assert np.array_equal(node_embedding(tree, 1, e1), [4.0, 0.0])
    assert calls["n"] == 3 and tree.emb_key == ("count", 1)
    assert tree.emb_valid[:2].tolist() == [False, True]  # row 0 was filled under key 2

    # A new key on the same tree may change the embedding width.
    def widen(x):
        calls["n"] += len(np.atleast_2d(x))
        return np.insert(x, x.shape[-1], -1.0, axis=-1)

    widen.cache_key = ("widen",)
    fill_embeddings(tree, widen, range(len(tree)))
    assert calls["n"] == 5 and tree.emb.shape[1] == 3
    assert np.array_equal(tree.emb[:2], [[0.0, 0.0, -1.0], [4.0, 0.0, -1.0]])
    fill_embeddings(tree, widen, range(len(tree)))
    assert calls["n"] == 5  # every row already valid under this key
    assert traverse(tree, widen, np.array([3.0, 0.0])).final == 1
    fill_embeddings(tree, IDENT, range(len(tree)))
    assert tree.emb.shape[1] == 2 and np.array_equal(tree.emb[:2], [[0.0, 0.0], [4.0, 0.0]])
    assert tree.sq[:2].tolist() == [0.0, 16.0]  # squared norms follow the rows


def test_embedding_matrix_grows_and_traverse_matches_per_candidate_replay():
    rng = np.random.default_rng(105)
    params = init_params(MlpArchitecture((3, 8, 2)), 106)
    embedder = make_embedder(params)
    calls = {"n": 0}

    def counted(x):
        calls["n"] += len(np.atleast_2d(x))  # embedded rows, not calls
        return embedder(x)

    counted.cache_key = embedder.cache_key
    tree = new_tree(Sample(rng.normal(size=3), 0), class_count=3)
    for s in random_samples(rng, 400, 3, 3):
        insert_if_wrong(tree, counted, s)
        n = len(tree)
        capacity = len(tree.emb_valid)
        assert capacity >= n and capacity & (capacity - 1) == 0  # doubles as nodes arrive
        assert tree.emb is None or tree.emb.shape == (capacity, 2)
        assert not tree.emb_valid[n:].any()
    assert len(tree) > 100
    for i in np.flatnonzero(tree.emb_valid):
        assert np.array_equal(tree.emb[i], embed(params, tree.nodes[i].sample.features))
    # One embedded row per query plus the root's single fill: an inserted
    # query's row is stored, never embedded again.
    assert calls["n"] == 400 + 1 and tree.emb_valid[:len(tree)].all()

    for _ in range(50):
        q = rng.normal(size=3)
        trace = traverse(tree, embedder, q)
        q_emb = embed(params, q)
        for step in trace.steps:
            replay = [l2_value(q_emb, embed(params, tree.nodes[c].sample.features))
                      for c in step.candidates]
            assert step.distances.tolist() == replay
    fill_embeddings(tree, embedder, range(len(tree)))
    assert tree.emb_valid[:len(tree)].all()


def test_build_tree_stores_query_rows_and_block_queries_match_one_by_one():
    # build_tree embeds its samples as one block and stores each inserted
    # sample's query row; predict_hard embeds a query block once. Fed the
    # same block rows, the one-row paths (an insert_if_wrong loop and
    # per-query traverse) give the same tree, rows and walks, bitwise.
    rng = np.random.default_rng(107)
    params = init_params(MlpArchitecture((3, 8, 8, 2), "tanh"), 108)
    embedder = make_embedder(params)
    samples = random_samples(rng, 150, 3, 3)
    rows = embedder(np.array([s.features for s in samples]))
    tree = build_tree(samples, embedder, 3, 3)
    replay = new_tree(samples[0], 3, 3)
    replay.reset_embeddings(embedder.cache_key)
    boundary_tree._store_rows(replay, [0], rows[:1])
    for s, row in zip(samples[1:], rows[1:]):
        insert_if_wrong(replay, embedder, s, row)
    assert [(n.parent, n.label) for n in tree.nodes] == [(n.parent, n.label) for n in replay.nodes]
    assert tree.emb_key == embedder.cache_key and tree.emb_valid[:len(tree)].all()
    index = {id(s): i for i, s in enumerate(samples)}
    want = rows[[index[id(node.sample)] for node in tree.nodes]]
    assert tree.emb[:len(tree)].tobytes() == replay.emb[:len(replay)].tobytes() == want.tobytes()
    assert np.array_equal(tree.sq[:len(tree)], np.einsum("ij,ij->i", want, want))

    queries = rng.normal(size=(40, 3))
    q_rows = embedder(queries)
    labels = predict_hard(tree, embedder, queries)
    assert labels == [replay.nodes[traverse(replay, embedder, q, r).final].label
                      for q, r in zip(queries, q_rows)]
    for q, r in zip(queries[:10], q_rows):
        a = traverse(tree, embedder, q, r)
        b = traverse(replay, embedder, q, r)
        assert (a.visited, a.final, a.stop_mode) == (b.visited, b.final, b.stop_mode)
        assert all(x.distances.tobytes() == y.distances.tobytes() for x, y in zip(a.steps, b.steps))


# ---- the block walk ----------------------------------------------------------


def _blobs784(rng, n):
    centers = rng.uniform(0.0, 1.0, (10, 784))
    points = rng.normal(0.0, 0.9, (n, 784)) + centers[np.arange(n) % 10]
    return [Sample(p, i % 10) for i, p in enumerate(points)]


def _assert_block_walk_matches_traverse(tree, embedder, queries):
    # traverse is fed the block's query rows: a GEMM block row and a
    # one-row embedding agree only to rounding
    finals = walk_block(tree, embedder, queries)
    expected = [traverse(tree, embedder, q, r).final for q, r in zip(queries, embedder(queries))]
    assert finals.dtype == np.intp and np.array_equal(finals, expected)
    assert predict_hard(tree, embedder, queries) == [tree.nodes[i].label for i in expected]


@pytest.mark.parametrize("max_children", [None, 1, 2, 3])
@pytest.mark.parametrize("data", ["moons", "blobs784"])
@pytest.mark.parametrize("kind", ["identity", "stale-mlp"])
def test_walk_block_finals_equal_per_query_traverse(data, kind, max_children):
    rng = np.random.default_rng(110)
    if data == "moons":
        samples, class_count = shuffle_split(gen_half_moons(500, 0.1, seed=111), 1, (1.0,))[0].samples, 2
    else:
        samples, class_count = _blobs784(rng, 420), 10
    dim = samples[0].features.shape[0]
    if kind == "identity":
        embedder = identity_embedder()
        tree = build_tree(samples[:300], embedder, max_children, class_count)
    else:
        arch = MlpArchitecture((dim, 16, 4), "tanh")
        tree = build_tree(samples[:300], make_embedder(init_params(arch, 112)),
                          max_children, class_count)
        # new parameters after the build, as in train: every row is stale
        embedder = make_embedder(init_params(arch, 113))
    assert len(tree) > 10
    # 784-d groups of more than CHUNK_FLOATS // 784 = 83 rows span chunks
    queries = np.array([s.features for s in samples[300:]])
    _assert_block_walk_matches_traverse(tree, embedder, queries)


@pytest.mark.parametrize("max_children", [None, 1, 2, 3])
def test_walk_block_ties_resolve_to_lowest_id(max_children, monkeypatch):
    # integer-grid points: duplicate samples and many candidates at exactly
    # equal distances from a query
    rng = np.random.default_rng(114)
    grid = [Sample(rng.integers(0, 4, 2).astype(float), int(rng.integers(3)))
            for _ in range(300)]
    tree = build_tree(grid, IDENT, max_children, 3)
    queries = rng.integers(0, 4, (200, 2)) / 2.0
    _assert_block_walk_matches_traverse(tree, IDENT, queries)
    # chunks of 2 rows: choices assemble across chunk boundaries
    monkeypatch.setattr(boundary_tree, "CHUNK_FLOATS", 4)
    _assert_block_walk_matches_traverse(tree, IDENT, queries[:50])

    # a hand-made tie: nodes 1 and 2 are equidistant from the origin, node 3
    # duplicates node 1; the lowest id wins each tie
    tree = new_tree(Sample([0.0, 10.0], 0), max_children, class_count=3)
    for parent, point, label in [(0, [1.0, 0.0], 1), (0, [-1.0, 0.0], 2), (1, [1.0, 0.0], 0)]:
        tree.add_child(parent, Sample(point, label))
    finals = walk_block(tree, IDENT, np.array([[0.0, 0.0], [1.0, 0.0], [-0.5, 0.0]]))
    assert finals.tolist() == ([1, 1, 2] if max_children != 1 else [3, 3, 2])
    _assert_block_walk_matches_traverse(tree, IDENT, np.array([[0.0, 0.0], [1.0, 0.0]]))

    # squared distances one ulp apart with equal square roots: the walk
    # compares the distances themselves, so node 1 wins the tie
    tree = new_tree(Sample([0.0, 10.0], 0), max_children, class_count=3)
    tree.add_child(0, Sample([1.1, 1.2999999999995564], 1))
    tree.add_child(0, Sample([1.1, 1.2999999999995562], 2))
    assert walk_block(tree, IDENT, np.zeros((1, 2))).tolist() == [1]
    _assert_block_walk_matches_traverse(tree, IDENT, np.zeros((1, 2)))


# SCREEN_MIN_WIDTH values that force every hard decision through the GEMM
# screen, or none: each path is then exercised on small data.
SCREEN_PATHS = {"screened": 1, "exact": 1 << 30}


def _reference_build(samples, embedder, max_children, class_count, block=None):
    """build_tree's insert-on-error rule with traverse's decisions, and,
    given a `block` length, how many samples walk, at their turn, a
    different path than at the start of their block of `block` samples:
    for finite data, exactly the rows the block build re-walks."""
    tree = new_tree(samples[0], max_children, class_count)
    changed = 0
    for i, s in enumerate(samples[1:]):
        if block and i % block == 0:
            start = [traverse(tree, embedder, t.features).visited for t in samples[1 + i:1 + i + block]]
        trace = traverse(tree, embedder, s.features)
        changed += bool(block) and trace.visited != start[i % block]
        if tree.nodes[trace.final].label != s.label:
            tree.add_child(trace.final, s)
    return tree, changed


def _block_rows(embedder, samples):
    """An embedder with `embedder`'s stamp that gives each sample's features
    their row of one embedder call over all of them, the rows build_tree
    stores: a GEMM block row and a one-row embedding agree only to
    rounding, so the one-row oracle reuses the block's rows."""
    rows = embedder(np.array([s.features for s in samples]))
    table = {s.features.tobytes(): r for s, r in zip(samples, rows)}

    def lookup(x):
        x = np.asarray(x)
        return table[x.tobytes()] if x.ndim == 1 else np.array([table[r.tobytes()] for r in x])

    lookup.cache_key = embedder.cache_key
    return lookup


def _assert_build_matches_traverse(samples, embedder, max_children, class_count):
    tree = build_tree(samples, embedder, max_children, class_count)
    reference, _ = _reference_build(samples, _block_rows(embedder, samples), max_children, class_count)
    assert [(n.parent, n.label) for n in tree.nodes] == [(n.parent, n.label) for n in reference.nodes]
    return tree


@pytest.mark.parametrize("path", sorted(SCREEN_PATHS))
@pytest.mark.parametrize("max_children", [None, 1, 2])
@pytest.mark.parametrize("data", ["moons", "blobs784"])
@pytest.mark.parametrize("kind", ["identity", "mlp"])
def test_build_and_block_walk_equal_traverse_on_either_path(kind, data, max_children, path,
                                                            monkeypatch):
    monkeypatch.setattr(boundary_tree, "SCREEN_MIN_WIDTH", SCREEN_PATHS[path])
    rng = np.random.default_rng(120)
    if data == "moons":
        samples, class_count = shuffle_split(gen_half_moons(300, 0.25, seed=121), 1, (1.0,))[0].samples, 2
    else:
        samples, class_count = _blobs784(rng, 300), 10
    dim = samples[0].features.shape[0]
    if kind == "identity":
        embedder = identity_embedder()
    else:
        embedder = make_embedder(init_params(MlpArchitecture((dim, 16, 4), "tanh"), 122))
    tree = _assert_build_matches_traverse(samples[:200], embedder, max_children, class_count)
    assert len(tree) > 10
    _assert_block_walk_matches_traverse(tree, embedder, np.array([s.features for s in samples[200:]]))


def _grid_samples(rng, n):
    # integer-grid points in 3 classes: many duplicate points with different
    # labels, so a new node often ties a pending row's choice exactly
    return [Sample(rng.integers(0, 3, 2).astype(float), int(rng.integers(3))) for _ in range(n)]


def _nonfinite_samples(rng, n):
    points = rng.normal(size=(n, 3))
    points[rng.random((n, 3)) < 0.02] = np.nan
    points[rng.random((n, 3)) < 0.02] = np.inf
    points[rng.random((n, 3)) < 0.02] = -np.inf
    points[0] = 0.0  # a finite root
    return [Sample(p, int(rng.integers(3))) for p in points]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("path", sorted(SCREEN_PATHS))
@pytest.mark.parametrize("block", [1, 2, 3, 1000])
@pytest.mark.parametrize("max_children", [None, 1, 2])
@pytest.mark.parametrize("data", ["grid", "moons", "nonfinite"])
def test_block_build_equals_traverse_loop_and_rewalks_only_changed_rows(data, max_children, block,
                                                                         path, monkeypatch):
    # The build walks BUILD_BLOCK rows at a time, and a row goes through the
    # one-row descent only once an insert may have changed its walk. For
    # finite data those are exactly the rows whose path at their turn
    # differs from their path at the start of the block: a row that ties
    # the new node keeps its walk (the new node has the highest id). Rows
    # with a NaN distance are always re-walked.
    monkeypatch.setattr(boundary_tree, "SCREEN_MIN_WIDTH", SCREEN_PATHS[path])
    monkeypatch.setattr(boundary_tree, "BUILD_BLOCK", block)
    rng = np.random.default_rng(124)
    if data == "grid":
        samples = _grid_samples(rng, 200)
    elif data == "moons":
        samples = shuffle_split(gen_half_moons(200, 0.25, seed=125), 1, (1.0,))[0].samples
    else:
        samples = _nonfinite_samples(rng, 200)
    rewalks = []
    descend = boundary_tree._descend
    monkeypatch.setattr(boundary_tree, "_descend", lambda tree, row: rewalks.append(1) or descend(tree, row))
    tree = build_tree(samples, IDENT, max_children, 3)
    reference, changed = _reference_build(samples, IDENT, max_children, 3, block)
    assert [(n.parent, n.label) for n in tree.nodes] == [(n.parent, n.label) for n in reference.nodes]
    assert len(tree) > 10
    if data == "nonfinite":
        assert len(rewalks) >= changed
    else:
        assert len(rewalks) == changed
    if block == 1:
        assert changed == 0
    elif block == 1000 and max_children == 1:
        assert changed > 0


@pytest.mark.parametrize("path", sorted(SCREEN_PATHS))
@pytest.mark.parametrize("max_children", [None, 2])
def test_nonfinite_build_walk_and_insert_emit_no_warning(max_children, path, monkeypatch):
    # build_tree, walk_block and insert_if_wrong each silence numpy's
    # floating-point warnings once per call. NaN, infinite and overflowing
    # rows take the exact path, so their trees and finals stay those of the
    # traverse + add_child loop (which still warns, so it runs outside).
    monkeypatch.setattr(boundary_tree, "SCREEN_MIN_WIDTH", SCREEN_PATHS[path])
    rng = np.random.default_rng(126)
    samples = _nonfinite_samples(rng, 300)
    samples = [Sample(np.where(rng.random(3) < 0.02, 1e200, s.features), s.label) if i else s
               for i, s in enumerate(samples)]
    train, queries = samples[:200], np.array([s.features for s in samples[200:]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reference, _ = _reference_build(train, IDENT, max_children, 3)
        expected = [traverse(reference, IDENT, q).final for q in queries]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = build_tree(train, IDENT, max_children, 3)
        finals = walk_block(tree, IDENT, queries)
        grown = new_tree(train[0], max_children, 3)
        for s in train[1:]:
            insert_if_wrong(grown, IDENT, s)
    shape = [(n.parent, n.label) for n in reference.nodes]
    assert len(tree) > 10
    assert [(n.parent, n.label) for n in tree.nodes] == shape
    assert [(n.parent, n.label) for n in grown.nodes] == shape
    assert finals.tolist() == expected


@pytest.mark.parametrize("path", sorted(SCREEN_PATHS))
def test_near_ties_at_784_d_follow_traverse(path, monkeypatch):
    # The query is 1000*1 plus small noise; its two candidates q + v and
    # q + perm(v) are at equal real distance, so their exact float sums
    # differ only by rounding, while a GEMM's sq - 2 q.c cancels |q|^2 ~ 8e8
    # and errs far more. The screen must leave these rows to the exact path.
    monkeypatch.setattr(boundary_tree, "SCREEN_MIN_WIDTH", SCREEN_PATHS[path])
    rng = np.random.default_rng(123)
    gemm_misorders = 0
    for _ in range(200):
        q = 1000.0 + rng.normal(0.0, 1e-3, 784)
        v = rng.normal(size=784)
        near = np.array([q + v, q + rng.permutation(v)])
        exact = l2_value(q, near)
        gemm = np.einsum("ij,ij->i", near, near) - 2.0 * (near @ q)
        gemm_misorders += int(np.argmin(gemm) != np.argmin(exact))

        # two siblings under a far root: the walk decides between them
        tree = new_tree(Sample(np.zeros(784), 0), class_count=3)
        tree.add_child(0, Sample(near[0], 1))
        tree.add_child(0, Sample(near[1], 2))
        _assert_block_walk_matches_traverse(tree, IDENT, q[None])
        # the build stores near[1] under near[0], then decides q between them
        samples = [Sample(np.zeros(784), 0), Sample(near[0], 1), Sample(near[1], 2), Sample(q, 0)]
        assert len(_assert_build_matches_traverse(samples, IDENT, None, 3)) == 4
        # in blocks of two, near[1] and q walk together to near[0]; storing
        # near[1] there leaves q's walk only if near[1] is strictly nearer
        monkeypatch.setattr(boundary_tree, "BUILD_BLOCK", 2)
        samples.insert(2, samples[0])
        assert len(_assert_build_matches_traverse(samples, IDENT, None, 3)) == 4
        monkeypatch.undo()
        monkeypatch.setattr(boundary_tree, "SCREEN_MIN_WIDTH", SCREEN_PATHS[path])
    # the data defeat an unguarded screen: its argmin is a coin flip here
    assert gemm_misorders > 40


def test_walk_block_one_node_tree_and_empty_block():
    tree = new_tree(Sample([0.0, 0.0], 1))
    assert walk_block(tree, IDENT, np.ones((3, 2))).tolist() == [0, 0, 0]
    assert predict_hard(tree, IDENT, np.ones((3, 2))) == [1, 1, 1]
    tree = two_node_tree()
    assert walk_block(tree, IDENT, np.zeros((0, 2))).shape == (0,)
    assert predict_hard(tree, IDENT, np.zeros((0, 2))) == []


@pytest.mark.parametrize("kind", ["identity", "mlp"])
def test_malformed_query_shapes_are_rejected(kind):
    if kind == "identity":
        embedder = IDENT
    else:
        embedder = make_embedder(init_params(MlpArchitecture((2, 8, 3)), 115))
    tree = build_tree(shuffle_split(gen_half_moons(60, 0.1, seed=116), 1, (1.0,))[0].samples, embedder)
    width = "feature width d = 2"
    for bad in (np.zeros((2, 3, 2)), np.zeros((2, 3)), np.zeros(3), np.float64(1.0),
                np.zeros((0, 3))):
        with pytest.raises(ValueError, match=width):
            predict_hard(tree, embedder, bad)
    for bad in (np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(ValueError, match=width):
            traverse(tree, embedder, bad)
    with pytest.raises(ValueError, match=width):
        walk_block(tree, embedder, np.zeros(2))
    assert predict_hard(tree, embedder, np.zeros((0, 2))) == []
    assert predict_hard(tree, embedder, np.zeros(2)) == predict_hard(tree, embedder, np.zeros((1, 2)))[0]


def test_block_predict_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, which costs the process about
    # 1.7 MB of resident memory; the block walk groups without it, and
    # neither the exact path (2-d) nor the GEMM screen (784-d) imports it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import betree\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "data = betree.shuffle_split(betree.gen_half_moons(300, 0.1, seed=117), 1, (1.0,))[0]\n"
        "emb = betree.identity_embedder()\n"
        "tree = betree.build_tree(data.samples[:200], emb)\n"
        "assert len(tree) > 5\n"
        "betree.predict_hard(tree, emb, np.array([s.features for s in data.samples[200:]]))\n"
        "assert betree.boundary_tree.SCREEN_MIN_WIDTH <= 784\n"
        "rng = np.random.default_rng(119)\n"
        "points = rng.normal(0.0, 0.9, (300, 784)) + rng.uniform(0.0, 1.0, (10, 784))[np.arange(300) % 10]\n"
        "tree = betree.build_tree([betree.Sample(p, i % 10) for i, p in enumerate(points[:200])], emb, None, 10)\n"
        "assert len(tree) > 5\n"
        "betree.predict_hard(tree, emb, points[200:])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(104)
    tree = random_tree(rng, n_range=(5, 20), dim=4, class_count=3)
    path = tmp_path / "tree.btree"
    save_tree(tree, path)
    back = load_tree(path, max_children=tree.max_children)
    assert len(back) == len(tree) and back.class_count == tree.class_count
    for a, b in zip(tree.nodes, back.nodes):
        assert (a.id, a.parent, a.label) == (b.id, b.parent, b.label)
        assert np.array_equal(a.sample.features, b.sample.features)
        assert list(a.children) == list(b.children)
    for _ in range(20):
        q = rng.normal(size=4)
        assert traverse(back, IDENT, q).visited == traverse(tree, IDENT, q).visited


def _tree_bytes(count_line, node_chunks):
    out = b"BETREE-TREE v1\n" + count_line
    for line, feats in node_chunks:
        out += line + np.asarray(feats, dtype="<f8").tobytes()
    return out


def test_load_tree_format_errors(tmp_path):
    cases = {
        "magic": b"BETREE-TREE v9\n1 2 2\n0 -1 0\n" + b"\x00" * 16,
        "count line": _tree_bytes(b"1 2\n", [(b"0 -1 0\n", [0, 0])]),
        "empty": _tree_bytes(b"0 2 2\n", []),
        "node line": _tree_bytes(b"1 2 2\n", [(b"0 -1\n", [0, 0])]),
        "non-integer": _tree_bytes(b"1 2 2\n", [(b"0 -1 x\n", [0, 0])]),
        "sequential": _tree_bytes(b"2 2 2\n", [(b"0 -1 0\n", [0, 0]),
                                               (b"2 0 1\n", [1, 1])]),
        "root parent": _tree_bytes(b"1 2 2\n", [(b"0 0 0\n", [0, 0])]),
        "bad parent": _tree_bytes(b"2 2 2\n", [(b"0 -1 0\n", [0, 0]),
                                               (b"1 1 1\n", [1, 1])]),
        "truncated": _tree_bytes(b"1 2 2\n", [(b"0 -1 0\n", [0.0])]),
        "trailing": _tree_bytes(b"1 2 2\n", [(b"0 -1 0\n", [0, 0])]) + b"x",
    }
    for name, blob in cases.items():
        path = tmp_path / f"{name.replace(' ', '_')}.btree"
        path.write_bytes(blob)
        with pytest.raises(TreeFormatError):
            load_tree(path)


def test_load_tree_rejects_out_of_range_label(tmp_path):
    blob = _tree_bytes(b"1 2 2\n", [(b"0 -1 5\n", [0, 0])])
    path = tmp_path / "label.btree"
    path.write_bytes(blob)
    with pytest.raises(TreeFormatError, match="node 0"):
        load_tree(path)
    blob = _tree_bytes(b"2 2 2\n", [(b"0 -1 0\n", [0, 0]), (b"1 0 2\n", [1, 1])])
    path.write_bytes(blob)
    with pytest.raises(TreeFormatError, match="node 1"):
        load_tree(path)
