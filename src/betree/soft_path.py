"""Differentiable relaxation of boundary-tree traversal.

Each traversal decision becomes a softmax over negative embedding distances,
a root-to-final path gets the product of its transition probabilities, and
the class prediction aggregates the last decision's candidate mass by label.
The walk is boundary_tree.traverse itself under the plain embedder. The loss
head then turns the rows the walks compared (the queries' rows and the
tree's rows of their last decisions' candidates) into the batch's summed
cross-entropy with a closed-form gradient with respect to those rows,
computed once per group of queries with the same candidate count and
bitwise equal to a per-query loop (see loss_head). Each of those rows is a
row of the step's one recorded forward (transform.forward): the query rows
themselves, and the tree's rows as the copies the build stored. So the
written-out backward (tape.Tape.backward) over exactly the recorded rows
the head read carries that gradient to the transform parameters, through
the queries and through the stored samples they aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transform
from .boundary_tree import (
    STOP_STAYED,
    BoundaryTree,
    Sample,
    TraceStep,
    _check_queries,
    _store_rows,
    node_embedding,
    traverse,
)
from .tape import DISTANCE_EPS, Tape, neg_dist_log_softmax_value

# A structural miss (the true class has no member in the aggregation set)
# scores the true class at this floor mass instead of 0.
LOG_FLOOR = 1e-30
MISS_LOSS = -math.log(LOG_FLOOR)


@dataclass
class PathTrace:
    """Greedy decision sequence for one raw query, tied to its tree and
    parameters (None for the identity embedding); `embedded` is the query
    row the walk compared."""

    tree: BoundaryTree
    params: transform.ParameterSet | None
    embedded: np.ndarray
    decisions: list[TraceStep]
    final: int
    stop_mode: str


@dataclass
class LossHead:
    """The loss head of a query batch at one block of rows: the summed
    loss, its gradient with respect to the block, each query's
    last-decision distances (None without a decision) and the
    structural-miss count."""

    value: np.float64
    grad: np.ndarray
    distances: list[np.ndarray | None]
    misses: int


def greedy_path(tree: BoundaryTree, params, y, y_emb=None) -> PathTrace:
    """Soft traversal: boundary_tree.traverse under the plain embedder of
    `params` (identity when params is None). `y_emb` is the query's row
    when the caller already has it (loss_and_grad passes its recorded
    row); the walk compares it, or the query's one-row embedding, and the
    trace keeps it."""
    embedder = transform.identity_embedder() if params is None else transform.make_embedder(params)
    if y_emb is None:
        y_emb = embedder(_check_queries(tree, y, (1,), "greedy_path"))
    trace = traverse(tree, embedder, y, y_emb)
    return PathTrace(tree, params, np.asarray(y_emb), trace.steps, trace.final, trace.stop_mode)


def embed_paths(traces: list[PathTrace]) -> tuple[list[int], np.ndarray, list[list[int]]]:
    """The batch's row block: the node ids of its rows after the queries,
    the walked block and, per trace, the block rows of its last decision's
    candidates in candidate order (empty without a decision).

    The block holds the k queries, then the union of their last decisions'
    candidates in first-seen order, each node once. The walked block holds
    the rows the walks compared: each trace's `embedded` row, then the
    tree's rows of the union.
    """
    if not traces:
        raise ValueError("embed_paths: no traces")
    first = traces[0]
    tree, params = first.tree, first.params
    if any(t.tree is not tree or t.params is not params for t in traces):
        raise ValueError("embed_paths: traces must share one tree and parameter set")
    row_of: dict[int, int] = {}
    for t in traces:
        if t.decisions:
            for c in t.decisions[-1].candidates:
                row_of.setdefault(c, len(traces) + len(row_of))
    embedder = transform.identity_embedder() if params is None else transform.make_embedder(params)
    union = list(row_of)
    walked = np.array([t.embedded for t in traces])
    if union:
        walked = np.concatenate([walked, node_embedding(tree, union, embedder)])
    return union, walked, [[row_of[c] for c in t.decisions[-1].candidates] if t.decisions else []
                           for t in traces]


def path_log_prob(trace: PathTrace) -> float:
    """Log-probability of the traced node sequence under the stochastic
    relaxation: the sum of the chosen transitions' log-probs. An empty
    decision list is the empty product (log 1 = 0)."""
    total = np.float64(0.0)
    for d in trace.decisions:
        total = total + neg_dist_log_softmax_value(d.distances)[d.chosen]
    return float(total)


def aggregation_mask(candidates: np.ndarray, node: np.ndarray, stayed: np.ndarray) -> np.ndarray:
    """Which last-decision candidates carry class mass, for rows of
    candidate ids (rows x n) with each row's decision node and stop kind
    (`stayed` True for a stayed stop): after a stayed stop, the whole
    candidate set (the final node and its children); after a leaf stop, all
    but the decision node (the final node and its siblings)."""
    return (candidates != node[:, None]) | stayed[:, None]


def _log_mass(neg: np.ndarray, mask: np.ndarray):
    """logsumexp of each row of `neg` (... x n) over each row of `mask`
    (the same shape, or with leading axes `neg` broadcasts to), and the
    softmax of the masked entries (zero elsewhere). Every row needs a
    masked entry. Each row is reduced at its own length n, so a row's
    results are bitwise those of the same row alone."""
    m = np.maximum.reduce(np.where(mask, neg, -np.inf), axis=-1)
    e = np.exp(neg - m[..., None], where=mask, out=np.zeros(mask.shape))
    total = np.add.reduce(e, axis=-1)
    return m + np.log(total), e / total[..., None]


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
    agg = aggregation_mask(np.array([last.candidates]), np.array([last.node]),
                           np.array([trace.stop_mode == STOP_STAYED]))
    _, p = _log_mass(-last.distances[None], agg)
    np.add.at(probs, [tree.nodes[c].label for c in last.candidates], p[0])
    return probs


def loss_head(block: np.ndarray, rows: list[list[int]], traces: list[PathTrace],
              labels) -> LossHead:
    """Summed cross-entropy of the traces' class masses, read off `block`
    (embed_paths' walked block, with its `rows`), and its closed-form
    gradient with respect to the block. Each query's distances use
    l2_value's arithmetic over the rows its walk compared, so they are
    bitwise its last decision's.

    For query i with aggregation set A and true-class part A∩c of its last
    decision's candidates, the loss is logsumexp_A(-d) - logsumexp_{A∩c}(-d)
    and its derivative in d is softmax_{A∩c}(-d) - softmax_A(-d), as in NCA
    (Goldberger et al. 2005); it reaches the block rows through
    (q - c) / d, with the zero subgradient below DISTANCE_EPS. A structural
    miss (empty A∩c) is scored at the floor mass LOG_FLOOR: MISS_LOSS plus
    the log of A's share of the full candidate softmax, which is the same
    formula with A∩c replaced by every candidate. A query without a
    decision scores 0 if the root's label is right and MISS_LOSS if not.

    The Python loop only collects indices; the numpy work runs once per
    group of queries with the same candidate count n (any decision nodes).
    numpy sums a row pairwise at its own length, so a group of rows of
    length n, never padded, reduces each row bitwise as it would alone.
    The rest is elementwise, and what depends on order keeps the batch
    order: the terms are added one by one, and the union rows, which
    several groups can share, take their contributions through one
    np.subtract.at in query order. So the head is bitwise that of a loop
    over queries.
    """
    grad = np.zeros_like(block)
    # terms[1 + i] is query i's loss; the sum starts from terms[0] = 0
    terms = np.zeros(len(traces) + 1)
    distances: list[np.ndarray | None] = [None] * len(traces)
    misses = 0
    tree = traces[0].tree if traces else None
    # per candidate count n, one int row per query: its index, its first
    # union contribution, decision node, stayed stop, label, block rows and
    # candidate ids
    groups: dict[int, list[list[int]]] = {}
    union_rows: list[int] = []
    for i, (t, r, y) in enumerate(zip(traces, rows, labels)):
        if t.tree is not tree:
            raise ValueError("loss_head: traces must share one tree")
        if not t.decisions:
            miss = tree.nodes[t.final].label != y
            terms[1 + i] = MISS_LOSS if miss else 0.0
            misses += int(miss)
            continue
        last = t.decisions[-1]
        groups.setdefault(len(r), []).append(
            [i, len(union_rows), last.node, t.stop_mode == STOP_STAYED, y, *r, *last.candidates])
        union_rows += r
    if groups:
        node_labels = np.array([node.label for node in tree.nodes])
    contrib = np.empty((len(union_rows), block.shape[1]))
    for n, members in groups.items():
        cols = np.array(members)
        q, start, node, stayed, y = cols[:, :5].T
        r, cands = cols[:, 5:5 + n], cols[:, 5 + n:]
        diff = block[q][:, None, :] - block[r]
        d = np.sqrt((diff * diff).sum(axis=-1))
        agg = aggregation_mask(cands, node, stayed.astype(bool))
        true = agg & (node_labels[cands] == y[:, None])
        hit = true.any(axis=1)
        true[~hit] = True
        (log_a, log_t), (p_a, p_t) = _log_mass(-d, np.array([agg, true]))
        term = log_a - log_t
        terms[1 + q] = np.where(hit, term, MISS_LOSS + term)
        misses += len(q) - int(hit.sum())
        scale = np.divide(p_t - p_a, d, out=np.zeros(d.shape), where=d >= DISTANCE_EPS)
        scaled = scale[:, :, None] * diff
        grad[q] += scaled.sum(axis=1)
        contrib[start[:, None] + np.arange(n)] = scaled
        for j, row in zip(q.tolist(), d):
            distances[j] = row
    if union_rows:
        np.subtract.at(grad, union_rows, contrib)
    return LossHead(np.add.accumulate(terms)[-1], grad, distances, misses)


def batch_loss(traces: list[PathTrace], labels) -> tuple[list[int], LossHead]:
    """The traces' loss head over embed_paths' walked block; returns the
    node ids of the block's rows after the queries (embed_paths' union)
    and the LossHead, whose value and gradient are those of the rows the
    walks compared."""
    if not traces:
        raise ValueError("batch_loss: no traces")
    class_count = traces[0].tree.class_count
    for y in labels:
        if not 0 <= y < class_count:
            raise ValueError(f"true label {y} outside [0, {class_count})")
    union, walked, rows = embed_paths(traces)
    return union, loss_head(walked, rows, traces, labels)


def loss_and_grad(tree: BoundaryTree, params: transform.ParameterSet, samples,
                  tape: Tape | None = None):
    """One gradient step's loss over one Sample or a batch of k of them,
    with every row it reads taken from one recorded forward.

    `tape` is that record when the caller has it: one transform.forward of
    `params` over [the samples `tree` was built from; the k queries], whose
    first rows the build took as its rows (build_tree's `rows`), so node
    n's row is tree.nodes[n].row. Without it, loss_and_grad records its own
    forward over [every node's sample, in id order; the queries] and
    re-stores the tree's rows from it, so each node's row is then its id.

    The queries walk (greedy_path) from their rows, the record's last k;
    batch_loss computes the head from those rows and the tree's; and the
    backward runs over the record's rows the head read, the query rows and
    then the union's. The head's gradient is divided by k first, so the
    result is the gradient of the mean loss at exactly the rows it read.

    Returns (mean loss value, mean gradient ParameterSet, structural-miss
    count over the batch). Parameters are not mutated.
    """
    samples = [samples] if isinstance(samples, Sample) else list(samples)
    if not samples:
        raise ValueError("loss_and_grad: no samples")
    if tape is None:
        tape = Tape()
        transform.forward(tape, params, np.array([*(node.sample.features for node in tree.nodes),
                                                  *(s.features for s in samples)]))
        tree.reset_embeddings(transform.make_embedder(params).cache_key)
        _store_rows(tree, np.arange(len(tree)), tape.output[:len(tree)])
        for node in tree.nodes:
            node.row = node.id
    k = len(samples)
    queries = range(len(tape.output) - k, len(tape.output))
    traces = [greedy_path(tree, params, s.features, tape.output[r]) for s, r in zip(samples, queries)]
    union, head = batch_loss(traces, [s.label for s in samples])
    grads = tape.backward(head.grad / k, [*queries, *(tree.nodes[c].row for c in union)])
    return float(head.value) / k, grads, head.misses


def predict_soft(tree: BoundaryTree, params, y) -> np.ndarray:
    """Class probabilities for a query (see class_probs)."""
    return class_probs(greedy_path(tree, params, y))
