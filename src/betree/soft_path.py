"""Differentiable relaxation of boundary-tree traversal.

Each traversal decision becomes a softmax over negative embedding distances,
a root-to-final path gets the product of its transition probabilities, and
the class prediction aggregates the last decision's candidate mass by label.
The walk is boundary_tree.traverse itself under the plain embedder; the
queries and their last decisions' candidates then go on a Tape as one row
block, and one head node turns that block into the batch's summed
cross-entropy with a closed-form gradient, so the loss gradient reaches the
transform parameters through the queries and through the stored samples
they aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transform
from .boundary_tree import STOP_STAYED, BoundaryTree, Sample, TraceStep, traverse
from .tape import DISTANCE_EPS, Tape, l2_value, neg_dist_log_softmax_value

# A structural miss (the true class has no member in the aggregation set)
# scores the true class at this floor mass instead of 0.
LOG_FLOOR = 1e-30
MISS_LOSS = -math.log(LOG_FLOOR)


@dataclass
class PathTrace:
    """Greedy decision sequence for one raw query, tied to its tree and
    parameters (None for the identity embedding)."""

    tree: BoundaryTree
    params: transform.ParameterSet | None
    query: np.ndarray
    decisions: list[TraceStep]
    final: int
    stop_mode: str


@dataclass
class LossHead:
    """The loss head of a query batch at one block value: the summed loss,
    its gradient with respect to the block, each query's last-decision
    distances (None without a decision) and the structural-miss count."""

    value: np.float64
    grad: np.ndarray
    distances: list[np.ndarray | None]
    misses: int


def greedy_path(tree: BoundaryTree, params, y, y_emb=None) -> PathTrace:
    """Soft traversal: boundary_tree.traverse under the plain embedder of
    `params` (identity when params is None). `y_emb` is the query's plain
    embedding when the caller already has it."""
    embedder = transform.identity_embedder() if params is None else transform.make_embedder(params)
    trace = traverse(tree, embedder, y, y_emb)
    return PathTrace(tree, params, np.asarray(y, dtype=np.float64),
                     trace.steps, trace.final, trace.stop_mode)


def embed_paths(tape: Tape, traces: list[PathTrace]) -> tuple[int, list[list[int]]]:
    """Put one row block on `tape`; returns its ref and, per trace, the
    block rows of its last decision's candidates in candidate order (empty
    without a decision).

    The block holds the k queries, then the union of their last decisions'
    candidates in first-seen order, each node once, embedded by a single
    transform.forward (a constant when params is None), so one backward
    pass reaches the parameters with one weight-gradient product per
    layer. Every row is bitwise the plain embedder's, so the walks are the
    ones the loss differentiates.
    """
    first = traces[0]
    tree, params = first.tree, first.params
    if any(t.tree is not tree or t.params is not params for t in traces):
        raise ValueError("embed_paths: traces must share one tree and parameter set")
    row_of: dict[int, int] = {}
    for t in traces:
        if t.decisions:
            for c in t.decisions[-1].candidates:
                row_of.setdefault(c, len(traces) + len(row_of))
    block = np.array([*(t.query for t in traces), *(tree.nodes[c].sample.features for c in row_of)])
    ref = tape.constant(block) if params is None else transform.forward(tape, params, block)
    return ref, [[row_of[c] for c in t.decisions[-1].candidates] if t.decisions else []
                 for t in traces]


def path_log_prob(trace: PathTrace) -> float:
    """Log-probability of the traced node sequence under the stochastic
    relaxation: the sum of the chosen transitions' log-probs. An empty
    decision list is the empty product (log 1 = 0)."""
    total = np.float64(0.0)
    for d in trace.decisions:
        total = total + neg_dist_log_softmax_value(d.distances)[d.chosen]
    return float(total)


def aggregation_mask(trace: PathTrace) -> np.ndarray:
    """Which of the last decision's candidates carry class mass: after a
    stayed stop, the whole candidate set (the final node and its children);
    after a leaf stop, all but the decision node (the final node and its
    siblings)."""
    last = trace.decisions[-1]
    if trace.stop_mode == STOP_STAYED:
        return np.ones(len(last.candidates), dtype=bool)
    return np.array([c != last.node for c in last.candidates])


def _log_mass(neg: np.ndarray, mask: np.ndarray):
    """logsumexp of `neg` over `mask`, and the softmax of the masked
    entries (zero elsewhere)."""
    m = neg[mask].max()
    e = np.exp(neg - m, where=mask, out=np.zeros_like(neg))
    total = e.sum()
    return m + np.log(total), e / total


def class_probs(trace: PathTrace) -> np.ndarray:
    """Per-class probabilities from the last decision's candidate mass: the
    softmax over the aggregation set, summed by label. The path prefix
    would scale every class alike, so only the last decision counts. A
    query without a decision gets the root's label with probability 1."""
    tree = trace.tree
    probs = np.zeros(tree.class_count)
    if not trace.decisions:
        probs[tree.nodes[trace.final].label] = 1.0
        return probs
    last = trace.decisions[-1]
    _, p = _log_mass(-last.distances, aggregation_mask(trace))
    np.add.at(probs, [tree.nodes[c].label for c in last.candidates], p)
    return probs


def loss_head(block: np.ndarray, rows: list[list[int]], traces: list[PathTrace],
              labels) -> LossHead:
    """Summed cross-entropy of the traces' class masses, read off `block`
    (embed_paths' value, with its `rows`), and its closed-form gradient.

    For query i with aggregation set A and true-class part A∩c of its last
    decision's candidates, the loss is logsumexp_A(-d) - logsumexp_{A∩c}(-d)
    and its derivative in d is softmax_{A∩c}(-d) - softmax_A(-d), as in NCA
    (Goldberger et al. 2005); it reaches the block rows through
    (q - c) / d, with the zero subgradient below DISTANCE_EPS. A structural
    miss (empty A∩c) is scored at the floor mass LOG_FLOOR: MISS_LOSS plus
    the log of A's share of the full candidate softmax. A query without a
    decision scores 0 if the root's label is right and MISS_LOSS if not.
    """
    grad = np.zeros_like(block)
    value = np.float64(0.0)
    distances, misses = [], 0
    for i, (t, r, y) in enumerate(zip(traces, rows, labels)):
        nodes = t.tree.nodes
        if not t.decisions:
            miss = nodes[t.final].label != y
            value += MISS_LOSS if miss else 0.0
            misses += int(miss)
            distances.append(None)
            continue
        d = l2_value(block[i], block[r])
        neg = -d
        agg = aggregation_mask(t)
        true = agg & np.array([nodes[c].label == y for c in t.decisions[-1].candidates])
        log_a, p_a = _log_mass(neg, agg)
        if true.any():
            log_t, p_t = _log_mass(neg, true)
            value += log_a - log_t
            g = p_t - p_a
        else:
            misses += 1
            log_all, p_all = _log_mass(neg, np.ones_like(agg))
            value += MISS_LOSS + (log_a - log_all)
            g = p_all - p_a
        scale = np.divide(g, d, out=np.zeros_like(d), where=d >= DISTANCE_EPS)
        scaled = scale[:, None] * (block[i] - block[r])
        grad[i] += scaled.sum(axis=0)
        grad[r] -= scaled
        distances.append(d)
    return LossHead(value, grad, distances, misses)


def batch_loss(tape: Tape, traces: list[PathTrace], labels) -> tuple[int, LossHead]:
    """The traces' summed loss as one tape node over embed_paths' block;
    returns its ref and the LossHead behind it."""
    class_count = traces[0].tree.class_count
    for y in labels:
        if not 0 <= y < class_count:
            raise ValueError(f"true label {y} outside [0, {class_count})")
    block, rows = embed_paths(tape, traces)
    head = loss_head(tape.value(block), rows, traces, labels)
    return tape.push(head.value, (block,), lambda g: (g * head.grad,)), head


def loss_and_grad(tree: BoundaryTree, params: transform.ParameterSet, samples):
    """One gradient step's loss over one Sample or a batch of them, on a
    fresh tape: the queries are embedded plain as one block for their
    greedy_path walks, batch_loss puts the block and the head on, and one
    backward from the head gives the gradient.

    Returns (mean loss value, mean gradient ParameterSet, structural-miss
    count over the batch). Parameters are not mutated; the tape is
    discarded with the return.
    """
    samples = [samples] if isinstance(samples, Sample) else list(samples)
    if not samples:
        raise ValueError("loss_and_grad: no samples")
    tape = Tape()
    queries = np.array([s.features for s in samples])
    traces = [greedy_path(tree, params, s.features, row)
              for s, row in zip(samples, transform.make_embedder(params)(queries))]
    ref, head = batch_loss(tape, traces, [s.label for s in samples])
    grads = transform.collect_param_grads(tape, params, tape.backward(ref))
    value = float(head.value)
    if len(samples) > 1:
        value /= len(samples)
        grads.flat /= len(samples)
    return value, grads, head.misses


def predict_soft(tree: BoundaryTree, params, y) -> np.ndarray:
    """Class probabilities for a query (see class_probs)."""
    return class_probs(greedy_path(tree, params, y))
