"""Benchmark workloads: seeded inputs, one operation each, and the checks
that decide whether an operation failed.

Every input is made from the workload seed; betree only ever receives the
generated Dataset and TrainConfig. A workload seed stands for a family of
member seeds, because tree sizes, and with them the cost of an operation,
vary from one data seed to the next; averaging over a family keeps a run's
figures comparable across workload seeds. An operation (one member) is
deterministic, so every repeat of it must reproduce its first outputs
exactly.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import betree
from betree import Dataset, MlpArchitecture, Sample, TrainConfig


def gen_blobs784(n: int, seed: int) -> Dataset:
    """MNIST-shaped stand-in: 784-d points in 10 balanced classes, class
    centers uniform on [0, 1], isotropic Gaussian noise with sd 0.9."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (10, 784))
    points = rng.normal(0.0, 0.9, (n, 784))
    for c in range(10):
        points[c::10] += centers[c]  # row i has label i % 10; no n x 784 temporary
    return Dataset([Sample(p, i % 10) for i, p in enumerate(points)], 784, 10, "blobs784")


@dataclass(frozen=True)
class Spec:
    name: str
    family: int  # member seeds per workload seed
    make_data: object  # seed -> Dataset
    fractions: tuple[float, float]
    arch: tuple[int, ...]
    tree_build_samples: int
    grad_steps_per_iter: int
    max_outer_iters: int
    train_with_test_set: bool


# moons-train: the acceptance-1 configuration and seed family (data seed s,
# split seed s+1, training seed s+2; workload seed 0 covers acceptance-1's
# seeds 0-4) with an iteration cap instead of 2500.
# blobs784: criterion 6 at MNIST shape, training of the 784-400-400-20
# embedding without a test set.
# Both evaluate on raw features: the cost of a learned-embedding evaluate
# follows the size of the learned tree, which after a capped training
# varies several-fold between data seeds.
SPECS = {
    "moons-train": Spec(
        name="moons-train",
        family=20,
        make_data=lambda seed: betree.gen_half_moons(1000, 0.1, seed),
        fractions=(0.8, 0.2),
        arch=(2, 100, 100, 30, 2),
        tree_build_samples=20,
        grad_steps_per_iter=10,
        max_outer_iters=50,
        train_with_test_set=True,
    ),
    "blobs784": Spec(
        name="blobs784",
        family=16,
        make_data=lambda seed: gen_blobs784(4000, seed),
        fractions=(0.75, 0.25),
        arch=(784, 400, 400, 20),
        tree_build_samples=100,
        grad_steps_per_iter=20,
        max_outer_iters=2,
        train_with_test_set=False,
    ),
}


@dataclass
class Inputs:
    seed: int
    train_set: Dataset
    test_set: Dataset
    config: TrainConfig
    data_s: float  # time spent generating and splitting the data


def member_seeds(spec: Spec, seed: int) -> list[int]:
    return [seed * spec.family + k for k in range(spec.family)]


def setup(spec: Spec, seed: int) -> Inputs:
    """One member's data generation, split and parameter init (init_params
    is also the first thing train() does; it is timed here so that set-up
    cost is visible)."""
    t0 = time.perf_counter()
    train_set, test_set = betree.shuffle_split(spec.make_data(seed), seed + 1, spec.fractions)
    data_s = time.perf_counter() - t0
    config = TrainConfig(
        arch=MlpArchitecture(spec.arch),
        tree_build_samples=spec.tree_build_samples,
        grad_steps_per_iter=spec.grad_steps_per_iter,
        convergence_rel_threshold=1e-9,
        max_outer_iters=spec.max_outer_iters,
        lr=1e-3,
        seed=seed + 2,
    )
    betree.init_params(config.arch, config.seed)
    return Inputs(seed, train_set, test_set, config, data_s)


@dataclass
class OpResult:
    wall_s: float
    train_s: float
    eval_s: float
    iter_s: list[float]
    test_error: float
    tree_nodes: int
    params_sha256: str
    log_sha256: str
    iterations: int
    clamps: int
    errors: list[str]


def _params_digest(params) -> str:
    h = hashlib.sha256()
    for w, b in zip(params.weights, params.biases):
        h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return h.hexdigest()


def _log_digest(log, path: Path) -> str:
    betree.write_train_log(log, path, timing=False)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Share of the benchmark-clocked train() time that the per-iteration
# IterRecord.seconds must cover; the rest is set-up before the first
# iteration, which must stay small.
MIN_LOGGED_SHARE = 0.95


def run_op(spec: Spec, inputs: Inputs, log_path: Path) -> OpResult:
    """One operation: the raw-feature evaluate (one full tree over the
    train set, error on the test set), then train() at a fixed seed and cap."""
    clock = time.perf_counter
    errors: list[str] = []
    t0 = clock()
    err, nodes = betree.evaluate(None, inputs.train_set, inputs.test_set)
    t1 = clock()
    try:
        params, log = betree.train(inputs.train_set,
                                   inputs.test_set if spec.train_with_test_set else None,
                                   inputs.config)
    except betree.TrainingDivergedError as e:
        params, log = e.params, e.log
        errors.append(f"training diverged: {e}")
    t2 = clock()

    iter_s = [r.seconds for r in log.records]
    if not all(math.isfinite(r.mean_loss) for r in log.records):
        errors.append("non-finite mean loss in the train log")
    if sum(iter_s) < MIN_LOGGED_SHARE * (t2 - t1):
        errors.append(
            f"IterRecord.seconds cover {sum(iter_s):.4f} s of the {t2 - t1:.4f} s train() call")
    return OpResult(
        wall_s=t2 - t0, train_s=t2 - t1, eval_s=t1 - t0, iter_s=iter_s,
        test_error=err, tree_nodes=nodes,
        params_sha256=_params_digest(params), log_sha256=_log_digest(log, log_path),
        iterations=len(log.records), clamps=log.total_clamps, errors=errors,
    )


def recount(inputs: Inputs) -> tuple[float, int, list[str]]:
    """Independent raw-feature evaluate: build_tree plus one traverse per
    test query, and the edge-boundary invariant (every edge joins two
    different labels)."""
    embedder = betree.identity_embedder()
    tree = betree.build_tree(inputs.train_set.samples, embedder, None, inputs.train_set.class_count)
    wrong = 0
    for s in inputs.test_set.samples:
        final = betree.traverse(tree, embedder, s.features).final
        wrong += tree.nodes[final].label != s.label
    bad = [(a, b) for a, b in tree.edges() if tree.nodes[a].label == tree.nodes[b].label]
    errors = [f"{len(bad)} tree edges join equal labels"] if bad else []
    return wrong / len(inputs.test_set.samples), len(tree), errors
