"""Acceptance criteria, one test per criterion, each printing a verdict line.

The half-moons end-to-end runs (criteria 1, 7, 8) share a module-scoped
fixture so the expensive training happens once. Criterion 6 needs MNIST IDX
files (BETREE_MNIST_DIR or ./data/mnist) and skips honestly when absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from betree import (
    Dataset,
    MlpArchitecture,
    TrainConfig,
    evaluate,
    gen_half_moons,
    greedy_path,
    identity_embedder,
    init_params,
    load_idx,
    loss_and_grad,
    make_embedder,
    path_log_prob,
    predict_soft,
    shuffle_split,
    train,
    traverse,
    write_train_log,
)
from conftest import registered_trees, violating_edges
from helpers import fd_max_rel_error, general_position_case, random_tree
from oracles import enumerate_traversals, enumerated_class_expectation

MOON_SEEDS = (0, 1, 2, 3, 4)


def _report(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _skip(capsys, num, name, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): SKIP - {detail}")
    pytest.skip(detail)


def _moon_config(seed):
    return TrainConfig(
        arch=MlpArchitecture((2, 100, 100, 30, 2)),
        tree_build_samples=20,
        grad_steps_per_iter=10,
        convergence_rel_threshold=1e-9,
        max_outer_iters=2500,
        lr=1e-3,
        seed=seed + 2,
    )


def _moon_data(seed):
    full = gen_half_moons(1000, 0.1, seed)
    return shuffle_split(full, seed + 1, (0.8, 0.2))


@pytest.fixture(scope="module")
def halfmoon_runs():
    """One frozen training run per seed: (params, log, test_error, nodes)."""
    t0 = time.perf_counter()
    runs = []
    for seed in MOON_SEEDS:
        train_ds, test_ds = _moon_data(seed)
        params, log = train(train_ds, test_ds, _moon_config(seed))
        err, nodes = evaluate(params, train_ds, test_ds)
        runs.append({"seed": seed, "params": params, "log": log,
                     "err": err, "nodes": nodes})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_1_half_moons_end_to_end(halfmoon_runs, capsys):
    runs = halfmoon_runs["runs"]
    elapsed = halfmoon_runs["elapsed"]
    wins = sum(1 for r in runs if r["nodes"] <= 5 and r["err"] <= 0.01)
    detail = (
        f"{wins}/5 seeds reached <=5 nodes and <=1% test error "
        f"(nodes {[r['nodes'] for r in runs]}, "
        f"errors {[round(r['err'], 4) for r in runs]}, {elapsed:.1f}s)"
    )
    _report(capsys, 1, "half-moons end-to-end", wins >= 3 and elapsed <= 300.0, detail)


def test_criterion_2_gradient_correctness(capsys):
    rng = np.random.default_rng(20260825)
    t0 = time.perf_counter()
    worst = 0.0
    flat_worst = 0.0
    for _ in range(100):
        tree, params, query = general_position_case(rng)
        # The last-layer bias shifts every embedding by the same vector, so
        # every distance (and the loss) is exactly flat along it. Central
        # differences only see rounding noise on a flat direction; verify its
        # gradient analytically and finite-difference everything else.
        _, grads, _ = loss_and_grad(tree, params, query)
        flat_worst = max(flat_worst, float(np.max(np.abs(grads.biases[-1]))))
        worst = max(worst, fd_max_rel_error(tree, params, query, step=1e-5))
    elapsed = time.perf_counter() - t0
    detail = (
        f"100 random trees, max relative error {worst:.3e}, "
        f"flat-direction gradient {flat_worst:.1e} ({elapsed:.1f}s)"
    )
    _report(capsys, 2, "gradient correctness",
            worst < 1e-4 and flat_worst <= 1e-12 and elapsed <= 60.0, detail)


def test_criterion_3_greedy_hard_equivalence(capsys):
    rng = np.random.default_rng(3003)
    mismatches = 0
    for case in range(1000):
        dim = int(rng.integers(2, 6))
        class_count = int(rng.integers(2, 4))
        if case % 2:
            params, emb = None, identity_embedder()
        else:
            params = init_params(MlpArchitecture((dim, 6, 3)), int(rng.integers(1 << 31)))
            emb = make_embedder(params)
        bound = (None, 2, 3)[case % 3]
        tree = random_tree(rng, n_range=(2, 15), dim=dim, class_count=class_count,
                           embedder=emb, max_children=bound)
        q = rng.normal(size=dim)
        hard = traverse(tree, emb, q)
        soft = greedy_path(tree, params, q)
        seq = [soft.decisions[0].node] if soft.decisions else [soft.final]
        seq += [d.chosen_id for d in soft.decisions if d.chosen_id != d.node]
        if seq != hard.visited or soft.stop_mode != hard.stop_mode:
            mismatches += 1
    detail = f"1000 (tree, query) pairs, {mismatches} sequence mismatches"
    _report(capsys, 3, "greedy/hard equivalence", mismatches == 0, detail)


def test_criterion_4_path_probability_oracle(capsys):
    rng = np.random.default_rng(4004)
    worst_path = 0.0
    worst_mass = 0.0
    divergences = []
    trees = 0
    for trial in range(120):
        bound = 2 if trial % 4 == 0 else None
        size = 1 + trial % 7
        tree = random_tree(rng, n_range=(max(1, size - 1), size), dim=2,
                           class_count=2, max_children=bound)
        q = rng.normal(size=2)
        children = [list(n.children) for n in tree.nodes]

        def dist_of(i):
            return float(np.linalg.norm(q - tree.nodes[i].sample.features))

        walks = enumerate_traversals(children, tree.max_children, dist_of)
        table = dict(walks)

        pt = greedy_path(tree, None, q)
        seq = [pt.decisions[0].node] if pt.decisions else [pt.final]
        seq += [d.chosen_id for d in pt.decisions if d.chosen_id != d.node]
        got = math.exp(path_log_prob(pt))
        worst_path = max(worst_path, abs(got - table[tuple(seq)]))

        expectation = enumerated_class_expectation(walks, [n.label for n in tree.nodes], 2)
        worst_mass = max(worst_mass, abs(expectation.sum() - 1.0))
        divergences.append(float(np.max(np.abs(expectation - predict_soft(tree, None, q)))))
        trees += 1
    detail = (
        f"{trees} trees (1-7 nodes): max path-prob error {worst_path:.2e}, "
        f"expectation mass off by {worst_mass:.2e}; greedy-vs-full divergence "
        f"mean {np.mean(divergences):.4f}, max {np.max(divergences):.4f} (reported only)"
    )
    _report(capsys, 4, "path-probability oracle",
            worst_path <= 1e-12 and worst_mass <= 1e-10, detail)


def test_criterion_5_edge_boundary_invariant(capsys):
    trees = registered_trees()
    bad = [t for t in trees if violating_edges(t)]
    detail = f"{len(trees)} trees registered so far, {len(bad)} with same-label edges"
    _report(capsys, 5, "edge-boundary invariant", len(trees) > 0 and not bad, detail)


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _mnist_dir():
    roots = []
    env = os.environ.get("BETREE_MNIST_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path("data/mnist"))
    for root in roots:
        if all((root / name).is_file() for name in MNIST_FILES):
            return root
    return None


def test_criterion_6_mnist_desk_scale(capsys):
    root = _mnist_dir()
    if root is None:
        _skip(capsys, 6, "mnist desk scale",
              "IDX files not found (set BETREE_MNIST_DIR or place them in ./data/mnist)")
    t0 = time.perf_counter()
    train_full = load_idx(root / MNIST_FILES[0], root / MNIST_FILES[1])
    test_ds = load_idx(root / MNIST_FILES[2], root / MNIST_FILES[3])
    subset = Dataset(train_full.samples[:10000], train_full.feature_dim,
                     train_full.class_count, train_full.provenance)

    raw_err, raw_nodes = evaluate(None, subset, test_ds)

    config = TrainConfig(
        arch=MlpArchitecture((784, 400, 400, 20)),
        tree_build_samples=1000,
        grad_steps_per_iter=1000,
        convergence_rel_threshold=1e-3,
        max_outer_iters=40,
        lr=1e-3,
        seed=2,
    )
    params, log = train(subset, None, config)
    learned_err, learned_nodes = evaluate(params, subset, test_ds)
    elapsed = time.perf_counter() - t0
    ok = (raw_err <= 0.15 and learned_err <= 0.05 and learned_nodes <= 1000
          and elapsed <= 7200.0)
    detail = (
        f"raw {raw_err:.4f} ({raw_nodes} nodes), learned {learned_err:.4f} "
        f"({learned_nodes} nodes) after {len(log.records)} iterations, {elapsed:.0f}s"
    )
    _report(capsys, 6, "mnist desk scale", ok, detail)


def test_criterion_7_deterministic_train_logs(halfmoon_runs, capsys, tmp_path):
    first = halfmoon_runs["runs"][0]
    train_ds, test_ds = _moon_data(first["seed"])
    params, log = train(train_ds, test_ds, _moon_config(first["seed"]))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_train_log(first["log"], a, timing=False)
    write_train_log(log, b, timing=False)
    same = a.read_bytes() == b.read_bytes()
    same_params = all(
        np.array_equal(x, y) for x, y in zip(first["params"].weights, params.weights)
    )
    detail = (f"seed {first['seed']} rerun: {len(log.records)} records, logs "
              f"byte-identical={same}, parameters identical={same_params}")
    _report(capsys, 7, "deterministic train logs", same and same_params, detail)


def test_criterion_8_node_count_shrinkage(halfmoon_runs, capsys):
    pairs = [(r["log"].records[0].nodes, r["log"].records[-1].nodes)
             for r in halfmoon_runs["runs"]]
    ok = all(last <= first for first, last in pairs)
    detail = "first->last iteration node counts " + ", ".join(
        f"{f}->{l}" for f, l in pairs)
    _report(capsys, 8, "node-count shrinkage", ok, detail)
