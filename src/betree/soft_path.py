"""Differentiable relaxation of boundary-tree traversal.

Each traversal decision becomes a softmax over negative embedding distances,
a root-to-final path gets the product of its transition probabilities, and
the class prediction aggregates the last decision's candidate mass by label.
The walk is boundary_tree.traverse itself under the plain embedder; the
queries and their last decisions' candidates then go on a Tape as one row
block, so the loss gradient reaches the transform parameters through the
queries and through the stored samples they aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .boundary_tree import STOP_STAYED, BoundaryTree, Sample, TraceStep, traverse
from .tape import Tape, neg_dist_log_softmax_value


@dataclass
class PathTrace:
    """Greedy decision sequence for one raw query, tied to its tape, tree
    and parameters (None for the identity embedding).

    `query_ref` and `candidates_ref` are the query's row and the row block
    of the last decision's candidate embeddings, in candidate order, on the
    tape; embed_paths sets them (candidates_ref stays None without a
    decision).
    """

    tape: Tape
    tree: BoundaryTree
    params: transform.ParameterSet | None
    query: np.ndarray
    decisions: list[TraceStep]
    final: int
    stop_mode: str
    query_ref: int | None = None
    candidates_ref: int | None = None


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


def greedy_path(tape: Tape, tree: BoundaryTree, params, y, y_emb=None) -> PathTrace:
    """Soft traversal: boundary_tree.traverse under the plain embedder of
    `params` (identity when params is None). `y_emb` is the query's plain
    embedding when the caller already has it.

    Nothing goes on `tape` yet: embed_paths puts the rows the loss reads
    there, for this trace alone (class_log_prob does that on demand) or
    for a whole batch of traces at once.
    """
    embedder = transform.identity_embedder() if params is None else transform.make_embedder(params)
    trace = traverse(tree, embedder, y, y_emb)
    return PathTrace(tape, tree, params, np.asarray(y, dtype=np.float64),
                     trace.steps, trace.final, trace.stop_mode)


def embed_paths(traces: list[PathTrace]) -> int:
    """Put one row block on the traces' shared tape and set each trace's
    query_ref and candidates_ref to its rows; returns the block's ref.

    The block holds the k queries, then the union of their last decisions'
    candidates in first-seen order, each node once, embedded by a single
    transform.forward (constants when params is None), so one backward
    pass reaches the parameters with one weight-gradient product per
    layer. Every row is bitwise the plain embedder's, so the walks are the
    ones the loss differentiates. For one trace the block is
    [query; last decision's candidates].
    """
    first = traces[0]
    tape, tree, params = first.tape, first.tree, first.params
    if any(t.tape is not tape or t.tree is not tree or t.params is not params for t in traces):
        raise ValueError("embed_paths: traces must share one tape, tree and parameter set")
    row_of: dict[int, int] = {}
    for t in traces:
        if t.decisions:
            for c in t.decisions[-1].candidates:
                row_of.setdefault(c, len(traces) + len(row_of))
    block = np.array([*(t.query for t in traces), *(tree.nodes[c].sample.features for c in row_of)])
    rows = tape.constant(block) if params is None else transform.forward(tape, params, block)
    for i, t in enumerate(traces):
        t.query_ref = tape.take(rows, i)
        if t.decisions:
            t.candidates_ref = tape.take(rows, [row_of[c] for c in t.decisions[-1].candidates])
    return rows


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
    if trace.query_ref is None:
        embed_paths([trace])
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


def loss_and_grad(tree: BoundaryTree, params: transform.ParameterSet, samples):
    """One gradient step's loss over one Sample or a batch of them, on a
    fresh tape: the queries are embedded plain as one block for their
    greedy_path walks, embed_paths puts the tape block on, and one backward
    from the sum of the per-query losses gives the gradient.

    Returns (mean loss value, mean gradient ParameterSet, clamp event
    count over the batch). Parameters are not mutated; the tape is
    discarded with the return.
    """
    samples = [samples] if isinstance(samples, Sample) else list(samples)
    if not samples:
        raise ValueError("loss_and_grad: no samples")
    tape = Tape()
    queries = np.array([s.features for s in samples])
    traces = [greedy_path(tape, tree, params, s.features, row)
              for s, row in zip(samples, transform.make_embedder(params)(queries))]
    embed_paths(traces)
    total = tape.sum_scalars([loss(t, s.label) for t, s in zip(traces, samples)])
    grads = transform.collect_param_grads(tape, params, tape.backward(total))
    value = float(tape.value(total))
    if len(samples) > 1:
        value /= len(samples)
        grads.flat /= len(samples)
    return value, grads, tape.clamp_events


def predict_soft(tree: BoundaryTree, params, y) -> np.ndarray:
    """Class probabilities for a query on a throwaway tape (no gradients)."""
    tape = Tape()
    trace = greedy_path(tape, tree, params, y)
    clp = class_log_prob(trace)
    return np.exp(clp.values(tape))
