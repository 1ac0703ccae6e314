"""Differentiable relaxation of boundary-tree traversal.

Each traversal decision becomes a softmax over negative embedding distances,
a root-to-final path gets the product of its transition probabilities, and
the class prediction aggregates the last decision's candidate mass by label.
Everything is recorded on a Tape so the loss gradient reaches the transform
parameters through the query and through every stored sample on the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .boundary_tree import STOP_LEAF, STOP_STAYED, BoundaryTree, Sample, candidate_ids
from .tape import Tape

# How the class-prediction aggregation set is chosen (see class_log_prob):
# "candidates" uses the last decision's candidate set, "tree" uses the final
# node's tree-siblings.
SIBLING_MODES = ("candidates", "tree")


@dataclass
class Decision:
    """One softened traversal step at `node` over `candidates` (node first,
    then its children, unless the fan-out bound excluded the node)."""

    node: int
    candidates: list[int]
    dist_refs: list[int]
    logp_refs: list[int]
    chosen: int  # index into candidates

    @property
    def chosen_id(self) -> int:
        return self.candidates[self.chosen]


@dataclass
class PathTrace:
    """Greedy decision sequence for one query, tied to its tape and tree."""

    tape: Tape
    tree: BoundaryTree
    params: transform.ParameterSet | None
    query_ref: int
    decisions: list[Decision]
    final: int
    stop_mode: str


@dataclass
class ClassLogProb:
    """Per-class log-probability refs plus the raw log-score refs used for
    clamp diagnostics."""

    refs: list[int]
    log_score_refs: list[int]

    def values(self, tape: Tape) -> np.ndarray:
        return np.array([float(tape.value(r)) for r in self.refs])


def _embed_ref(tape: Tape, params, x) -> int:
    if params is None:
        return tape.constant(np.asarray(x, dtype=np.float64))
    return transform.forward(tape, params, x)


def greedy_path(tape: Tape, tree: BoundaryTree, params, y) -> PathTrace:
    """Soft traversal following the distance argmin, like the hard one.

    The query and every node it is compared against are embedded on the
    shared tape, so one backward pass reaches the parameters through all of
    them. The visited node sequence is bitwise identical to
    boundary_tree.traverse under the same parameters: distances come from
    the same arithmetic and ties resolve to the lowest id in both.
    """
    query_ref = _embed_ref(tape, params, y)
    emb_refs: dict[int, int] = {}

    def node_ref(nid: int) -> int:
        ref = emb_refs.get(nid)
        if ref is None:
            ref = _embed_ref(tape, params, tree.nodes[nid].sample.features)
            emb_refs[nid] = ref
        return ref

    decisions: list[Decision] = []
    current = tree.root
    while True:
        if not tree.nodes[current].children:
            return PathTrace(tape, tree, params, query_ref, decisions, current, STOP_LEAF)
        cands = candidate_ids(tree, current)
        dist_refs = [tape.l2_distance(query_ref, node_ref(c)) for c in cands]
        logp_refs = tape.neg_dist_log_softmax(dist_refs)
        dists = np.array([tape.value(r) for r in dist_refs])
        chosen = int(np.argmin(dists))
        decisions.append(Decision(current, cands, dist_refs, logp_refs, chosen))
        nxt = cands[chosen]
        if nxt == current:
            return PathTrace(tape, tree, params, query_ref, decisions, current, STOP_STAYED)
        current = nxt


def path_log_prob(trace: PathTrace) -> int:
    """Log-probability of the traced node sequence under the stochastic
    relaxation: the sum of the chosen transitions' log-probs. An empty
    decision list is the empty product (log 1 = 0)."""
    tape = trace.tape
    return tape.sum_scalars([d.logp_refs[d.chosen] for d in trace.decisions])


def _aggregation(trace: PathTrace, sibling_mode: str):
    """The decision whose candidates form the class prediction and the
    indices of the aggregated candidates. None means the degenerate
    single-member case (the root)."""
    decisions = trace.decisions
    if sibling_mode == "candidates":
        if not decisions:
            return None
        last = decisions[-1]
        if trace.stop_mode == STOP_STAYED:
            idx = list(range(len(last.candidates)))
        else:
            idx = [i for i, cid in enumerate(last.candidates) if cid != last.node]
        return last, idx
    if sibling_mode == "tree":
        # Tree-siblings of the final node: its parent's children. For a leaf
        # stop that is the last decision's candidates minus the decision
        # node; for a stayed stop the level above decides, so the stay
        # decision is dropped entirely.
        if trace.stop_mode == STOP_LEAF:
            if not decisions:
                return None
            last = decisions[-1]
            idx = [i for i, cid in enumerate(last.candidates) if cid != last.node]
            return last, idx
        if len(decisions) < 2:
            return None
        agg = decisions[-2]
        idx = [i for i, cid in enumerate(agg.candidates) if cid != agg.node]
        return agg, idx
    raise ValueError(f"unknown sibling_mode {sibling_mode!r}, expected one of {SIBLING_MODES}")


def class_log_prob(trace: PathTrace, sibling_mode: str = "candidates") -> ClassLogProb:
    """Per-class log-probabilities from the final decision's candidate mass.

    Aggregation set: for a stayed stop, the last decision's full candidate
    set (final node plus its children); for a leaf stop, that set minus the
    decision node (the final node and its siblings). Per-class scores sum
    the aggregated transition probabilities by label and are renormalized.
    The path prefix's log-probability would add the same term to every
    class and cancel in the normalization, so it is left off the tape: the
    loss and its gradient do not depend on the prefix decisions. A
    single-node tree predicts the root's label with probability 1.
    """
    tape = trace.tape
    tree = trace.tree
    agg = _aggregation(trace, sibling_mode)
    if agg is None:
        members = [(trace.final, tape.constant(1.0))]
    else:
        decision, idx = agg
        members = [(decision.candidates[i], tape.exp(decision.logp_refs[i])) for i in idx]

    score_refs = []
    for c in range(tree.class_count):
        parts = [p for nid, p in members if tree.nodes[nid].label == c]
        score_refs.append(tape.sum_scalars(parts))
    log_score_refs = [tape.log(s) for s in score_refs]
    log_total = tape.log(tape.sum_scalars(score_refs))
    refs = [tape.sub(ls, log_total) for ls in log_score_refs]
    return ClassLogProb(refs, log_score_refs)


def loss(trace: PathTrace, true_label: int, sibling_mode: str = "candidates") -> int:
    """Cross-entropy against the true class; counts a clamp event when the
    true class carried no aggregated mass (the log floor fired)."""
    tree = trace.tree
    if not 0 <= true_label < tree.class_count:
        raise ValueError(f"true_label {true_label} outside [0, {tree.class_count})")
    clp = class_log_prob(trace, sibling_mode)
    tape = trace.tape
    if tape.nodes[clp.log_score_refs[true_label]].clamped:
        tape.clamp_events += 1
    return tape.neg(clp.refs[true_label])


def loss_and_grad(tree: BoundaryTree, params: transform.ParameterSet, sample: Sample,
                  sibling_mode: str = "candidates"):
    """Fresh-tape pipeline: greedy_path, class_log_prob, loss, backward.

    Returns (loss value, gradient ParameterSet, clamp event count). Parameters are not
    mutated; the tape is discarded with the return.
    """
    tape = Tape()
    trace = greedy_path(tape, tree, params, sample.features)
    loss_ref = loss(trace, sample.label, sibling_mode)
    grad_map = tape.backward(loss_ref)
    grads = transform.collect_param_grads(tape, params, grad_map)
    return float(tape.value(loss_ref)), grads, tape.clamp_events


def predict_soft(tree: BoundaryTree, params, y, sibling_mode: str = "candidates") -> np.ndarray:
    """Class probabilities for a query on a throwaway tape (no gradients)."""
    tape = Tape()
    trace = greedy_path(tape, tree, params, y)
    clp = class_log_prob(trace, sibling_mode)
    return np.exp(clp.values(tape))
