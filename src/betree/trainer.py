"""Training loop: alternate between rebuilding the boundary tree under the
current transform and one batched gradient step with the structure frozen,
until the mean loss stops moving. Both read one recorded forward per
iteration. Also full-tree evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary_tree import BoundaryTree, build_tree, check_max_children, predict_hard
from .soft_path import loss_and_grad
from .tape import Tape
from .transform import (
    AdamState,
    MlpArchitecture,
    NonFiniteGradientError,
    ParameterSet,
    adam_step,
    forward,
    identity_embedder,
    init_params,
    make_embedder,
)


@dataclass
class TrainConfig:
    """Training settings. Each outer iteration builds a tree from
    `tree_build_samples` samples, then takes one Adam step on the mean loss
    of the next `grad_steps_per_iter` samples (the query batch; 0 skips the
    step)."""

    arch: MlpArchitecture
    tree_build_samples: int = 20
    grad_steps_per_iter: int = 10
    convergence_rel_threshold: float = 1e-3
    max_outer_iters: int = 200
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    max_children: int | None = None

    def __post_init__(self):
        if self.tree_build_samples < 1:
            raise ValueError("tree_build_samples must be >= 1")
        if self.grad_steps_per_iter < 0:
            raise ValueError("grad_steps_per_iter must be >= 0")
        if self.convergence_rel_threshold <= 0:
            raise ValueError("convergence_rel_threshold must be > 0")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        check_max_children(self.max_children)


@dataclass
class IterRecord:
    iteration: int
    mean_loss: float
    nodes: int
    test_error: float | None
    clamps: int
    seconds: float
    full_test_error: float | None = None


@dataclass
class TrainLog:
    records: list[IterRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def total_clamps(self) -> int:
        return sum(r.clamps for r in self.records)


class TrainingDivergedError(RuntimeError):
    """Loss or gradient went non-finite; carries the last good parameters
    and the log up to the failed iteration."""

    def __init__(self, message, params: ParameterSet, log: TrainLog):
        super().__init__(message)
        self.params = params
        self.log = log


class _SampleStream:
    """Seeded shuffled cycle over a sample list.

    take() hands out contiguous blocks of the current permutation, so the
    tree-building block and the gradient block of one iteration never
    overlap; the permutation is redrawn whenever the remainder is too short
    for the next request (reshuffle per epoch).
    """

    def __init__(self, samples, seed: int):
        self.samples = list(samples)
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(len(self.samples))
        self.pos = 0

    def ensure(self, n: int) -> None:
        if n > len(self.samples):
            raise ValueError(
                f"need {n} samples per iteration but the dataset has {len(self.samples)}"
            )
        if self.pos + n > len(self.order):
            self.order = self.rng.permutation(len(self.samples))
            self.pos = 0

    def take(self, n: int):
        out = [self.samples[i] for i in self.order[self.pos:self.pos + n]]
        self.pos += n
        return out


def converged(log: TrainLog, threshold: float) -> bool:
    """Relative mean-loss change between the last two iterations below
    threshold. Needs at least two records."""
    if len(log.records) < 2:
        return False
    prev = log.records[-2].mean_loss
    cur = log.records[-1].mean_loss
    if not (math.isfinite(prev) and math.isfinite(cur)):
        return False
    return abs(cur - prev) / max(1e-12, abs(prev)) < threshold


def hard_error(tree: BoundaryTree, embedder, samples) -> float:
    """Fraction of samples the tree misclassifies (0.0 for no samples). The
    samples go through predict_hard as one block: embedded by one call and
    walked level by level, with the labels per-query traverse would give
    for the same embedded rows."""
    if not samples:
        return 0.0
    return _block_error(tree, embedder, *_stack(samples))


def _stack(samples) -> tuple[np.ndarray, list[int]]:
    """Features of `samples` as one row block, and their labels."""
    return np.array([s.features for s in samples]), [s.label for s in samples]


def _block_error(tree: BoundaryTree, embedder, features, labels) -> float:
    """hard_error over a stacked row block `features` with its `labels`."""
    wrong = sum(1 for got, want in zip(predict_hard(tree, embedder, features), labels)
                if got != want)
    return wrong / len(labels)


def train(train_set, test_set, config: TrainConfig, *,
          full_tree_eval: bool = False) -> tuple[ParameterSet, TrainLog]:
    """Run the outer loop and return the final parameters plus the log.

    Per outer iteration: take the next tree_build_samples stream samples
    and the next grad_steps_per_iter (the query batch), and embed both
    blocks, stacked, by one recorded forward (transform.forward) under the
    current parameters. Discard the tree and rebuild it from the build
    samples' rows of that record, then take one Adam step on the mean loss
    of the batch walked through that tree (one loss_and_grad over the
    batch, reading the queries' rows and the node rows of the same record,
    and taking the backward over the ones its head read), and record the
    iteration with that mean loss. Stops on convergence or at
    max_outer_iters.

    test_error in the log is measured per iteration against that iteration's
    small tree with the end-of-iteration parameters; full_tree_eval adds the
    error of a tree rebuilt over the whole train set (much slower). The test
    set is stacked into one row block once per call. Each
    record's seconds run from the end of the previous record, the first
    from the start of the call, so they add up to the whole call.
    """
    t0 = time.perf_counter()
    samples = list(train_set.samples)
    if not samples:
        raise ValueError("train: empty dataset")
    if samples[0].features.shape != (config.arch.in_dim,):
        raise ValueError(
            f"train: feature dim {samples[0].features.shape[0]} does not match "
            f"architecture input {config.arch.in_dim}"
        )
    class_count = train_set.class_count
    need = config.tree_build_samples + config.grad_steps_per_iter

    params = init_params(config.arch, config.seed)
    adam = AdamState.fresh(params, config.lr, config.beta1, config.beta2, config.eps)
    stream = _SampleStream(samples, config.seed + 1)
    log = TrainLog()
    test_block = _stack(test_set.samples) if test_set is not None and test_set.samples else None

    for iteration in range(config.max_outer_iters):
        stream.ensure(need)
        build = stream.take(config.tree_build_samples)
        batch = stream.take(config.grad_steps_per_iter)
        tape = Tape()
        rows = forward(tape, params, np.array([s.features for s in build + batch]))
        tree = build_tree(build, make_embedder(params), config.max_children, class_count,
                          rows=rows[:len(build)])
        mean_loss, clamps = 0.0, 0
        if batch:
            mean_loss, grads, clamps = loss_and_grad(tree, params, batch, tape)
            if not math.isfinite(mean_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at iteration {iteration}", params, log)
            try:
                params = adam_step(params, grads, adam)
            except NonFiniteGradientError as e:
                raise TrainingDivergedError(
                    f"{e} (iteration {iteration})", params, log) from e
        # Free the record before the evaluation and the next iteration's
        # forward; the tree keeps copies of its rows.
        del tape, rows

        test_error = None
        full_test_error = None
        if test_block is not None:
            embedder = make_embedder(params)
            test_error = _block_error(tree, embedder, *test_block)
            if full_tree_eval:
                full_tree = build_tree(samples, embedder, config.max_children, class_count)
                full_test_error = _block_error(full_tree, embedder, *test_block)

        t1 = time.perf_counter()
        log.records.append(IterRecord(
            iteration=iteration,
            mean_loss=mean_loss,
            nodes=len(tree),
            test_error=test_error,
            clamps=clamps,
            seconds=t1 - t0,
            full_test_error=full_test_error,
        ))
        t0 = t1
        if converged(log, config.convergence_rel_threshold):
            log.converged = True
            break

    return params, log


def evaluate(params: ParameterSet | None, train_set, test_set,
             max_children: int | None = None) -> tuple[float, int]:
    """Build a fresh tree over the full train set (identity embedding when
    params is None) and report hard test error plus the node count. The
    test set is predicted as one block (see hard_error)."""
    embedder = identity_embedder() if params is None else make_embedder(params)
    tree = build_tree(train_set.samples, embedder, max_children, train_set.class_count)
    return hard_error(tree, embedder, test_set.samples), len(tree)


# ---- log serialization -----------------------------------------------------

LOG_COLUMNS = ("iter", "mean_loss", "nodes", "test_error", "clamps", "seconds")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_train_log(log: TrainLog, path, *, comment: str | None = None,
                    timing: bool = True, full_tree_column: bool = False) -> None:
    """CSV stream of the per-iteration records.

    timing=False leaves the seconds field empty so two identical runs
    produce byte-identical files. full_tree_column appends the optional
    full-tree test error as a labeled extra column.
    """
    cols = list(LOG_COLUMNS)
    if full_tree_column:
        cols.append("full_test_error")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(",".join(cols) + "\n")
        for r in log.records:
            row = [
                str(r.iteration),
                _fmt(r.mean_loss),
                str(r.nodes),
                _fmt(r.test_error),
                str(r.clamps),
                _fmt(r.seconds) if timing else "",
            ]
            if full_tree_column:
                row.append(_fmt(r.full_test_error))
            f.write(",".join(row) + "\n")
