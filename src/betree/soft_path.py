"""Differentiable relaxation of boundary-tree traversal.

Each traversal decision becomes a softmax over negative embedding distances,
a root-to-final path gets the product of its transition probabilities, and
the class prediction aggregates the last decision's candidate mass by label.
The walk is boundary_tree.traverse itself under the plain embedder; the
query and the last decision's candidates then go on a Tape as one row block,
so the loss gradient reaches the transform parameters through the query and
through the stored samples it aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .boundary_tree import STOP_STAYED, BoundaryTree, Sample, TraceStep, traverse
from .tape import Tape, neg_dist_log_softmax_value


@dataclass
class PathTrace:
    """Greedy decision sequence for one query, tied to its tape and tree.

    `candidates_ref` is the on-tape row block of the last decision's
    candidate embeddings, in candidate order (None when there was no
    decision).
    """

    tape: Tape
    tree: BoundaryTree
    query_ref: int
    candidates_ref: int | None
    decisions: list[TraceStep]
    final: int
    stop_mode: str


@dataclass
class ClassLogProb:
    """Per-class log-probability refs, the raw log-score refs used for clamp
    diagnostics, and the ref of the aggregation decision's distance vector
    (None without a decision)."""

    refs: list[int]
    log_score_refs: list[int]
    dist_ref: int | None

    def values(self, tape: Tape) -> np.ndarray:
        return np.array([float(tape.value(r)) for r in self.refs])


def greedy_path(tape: Tape, tree: BoundaryTree, params, y) -> PathTrace:
    """Soft traversal: boundary_tree.traverse under the plain embedder of
    `params` (identity when params is None), then the query and the last
    decision's candidates on `tape`.

    Only what the loss reads goes on the tape: one row block of the query
    followed by the last decision's candidates (constants when params is
    None), so one backward pass reaches the parameters through all of them
    with one weight-gradient product per layer. Every row is bitwise the
    plain embedder's, so the walk is the one the loss differentiates.
    """
    embedder = transform.identity_embedder() if params is None else transform.make_embedder(params)
    trace = traverse(tree, embedder, y)
    cands = trace.steps[-1].candidates if trace.steps else []
    block = np.array([y, *(tree.nodes[c].sample.features for c in cands)], dtype=np.float64)
    rows = tape.constant(block) if params is None else transform.forward(tape, params, block)
    query_ref = tape.take(rows, 0)
    candidates_ref = tape.take(rows, slice(1, None)) if cands else None
    return PathTrace(tape, tree, query_ref, candidates_ref,
                     trace.steps, trace.final, trace.stop_mode)


def path_log_prob(trace: PathTrace) -> int:
    """Log-probability of the traced node sequence under the stochastic
    relaxation: the sum of the chosen transitions' log-probs, as a tape
    constant that never reaches the loss. An empty decision list is the
    empty product (log 1 = 0)."""
    total = np.float64(0.0)
    for d in trace.decisions:
        total = total + neg_dist_log_softmax_value(d.distances)[d.chosen]
    return trace.tape.constant(total)


def class_log_prob(trace: PathTrace) -> ClassLogProb:
    """Per-class log-probabilities from the final decision's candidate mass.

    Aggregation set: for a stayed stop, the last decision's full candidate
    set (final node plus its children); for a leaf stop, that set minus the
    decision node (the final node and its siblings). Per-class scores sum
    the aggregated transition probabilities by label and are renormalized.
    Only the last decision goes on the tape: the path prefix's
    log-probability would add the same term to every class and cancel in the
    normalization. A single-node tree predicts the root's label with
    probability 1.
    """
    tape = trace.tape
    tree = trace.tree
    dist_ref = None
    if not trace.decisions:
        members = [(trace.final, tape.constant(1.0))]
    else:
        last = trace.decisions[-1]
        dist_ref = tape.l2_distance(trace.query_ref, trace.candidates_ref)
        logp_refs = tape.neg_dist_log_softmax(dist_ref)
        members = [(cid, tape.exp(lp)) for cid, lp in zip(last.candidates, logp_refs)
                   if trace.stop_mode == STOP_STAYED or cid != last.node]

    score_refs = []
    for c in range(tree.class_count):
        parts = [p for nid, p in members if tree.nodes[nid].label == c]
        score_refs.append(tape.sum_scalars(parts))
    log_score_refs = [tape.log(s) for s in score_refs]
    log_total = tape.log(tape.sum_scalars(score_refs))
    refs = [tape.sub(ls, log_total) for ls in log_score_refs]
    return ClassLogProb(refs, log_score_refs, dist_ref)


def loss(trace: PathTrace, true_label: int) -> int:
    """Cross-entropy against the true class; counts a clamp event when the
    true class carried no aggregated mass (the log floor fired)."""
    tree = trace.tree
    if not 0 <= true_label < tree.class_count:
        raise ValueError(f"true_label {true_label} outside [0, {tree.class_count})")
    clp = class_log_prob(trace)
    tape = trace.tape
    if tape.nodes[clp.log_score_refs[true_label]].clamped:
        tape.clamp_events += 1
    return tape.neg(clp.refs[true_label])


def loss_and_grad(tree: BoundaryTree, params: transform.ParameterSet, sample: Sample):
    """Fresh-tape pipeline: greedy_path, class_log_prob, loss, backward.

    Returns (loss value, gradient ParameterSet, clamp event count). Parameters are not
    mutated; the tape is discarded with the return.
    """
    tape = Tape()
    trace = greedy_path(tape, tree, params, sample.features)
    loss_ref = loss(trace, sample.label)
    grad_map = tape.backward(loss_ref)
    grads = transform.collect_param_grads(tape, params, grad_map)
    return float(tape.value(loss_ref)), grads, tape.clamp_events


def predict_soft(tree: BoundaryTree, params, y) -> np.ndarray:
    """Class probabilities for a query on a throwaway tape (no gradients)."""
    tape = Tape()
    trace = greedy_path(tape, tree, params, y)
    clp = class_log_prob(trace)
    return np.exp(clp.values(tape))
