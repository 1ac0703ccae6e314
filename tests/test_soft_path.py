"""Softened traversal: path probabilities, class aggregation, loss, gradients."""

import copy
import math

import numpy as np
import pytest

from betree import (
    AdamState,
    STOP_LEAF,
    STOP_STAYED,
    MlpArchitecture,
    ParameterSet,
    Sample,
    MISS_LOSS,
    Tape,
    adam_step,
    batch_loss,
    build_tree,
    class_probs,
    collect_param_grads,
    embed,
    embed_paths,
    greedy_path,
    identity_embedder,
    init_params,
    loss_and_grad,
    loss_head,
    make_embedder,
    neg_dist_log_softmax_value,
    new_tree,
    path_log_prob,
    predict_hard,
    predict_soft,
    traverse,
)
from betree import transform
from betree.tape import grad_check
from helpers import (
    bind_as_leaves,
    general_position_case,
    in_general_position,
    random_samples,
    random_tree,
)
from oracles import enumerate_traversals, enumerated_class_expectation, softmax_neg

IDENT = identity_embedder()


def soft_visited(pt):
    seq = [pt.decisions[0].node] if pt.decisions else [pt.final]
    for d in pt.decisions:
        if d.chosen_id != d.node:
            seq.append(d.chosen_id)
    return seq


def chain_tree():
    """root(0)@x=0 label 0 -> child(1)@x=3 label 1 -> grandchild(2)@x=1 label 0."""
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([3.0], 1))
    tree.add_child(1, Sample([1.0], 0))
    return tree


def leaf_stop_tree():
    """root(0)@0 label 0 with children (1)@4 and (2)@5, both label 1."""
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([4.0], 1))
    tree.add_child(0, Sample([5.0], 1))
    return tree


# ---- greedy_path -------------------------------------------------------------

def test_single_node_trace():
    tree = new_tree(Sample([0.0, 0.0], 1))
    pt = greedy_path(tree, None, np.array([3.0, 3.0]))
    assert pt.decisions == [] and pt.final == 0 and pt.stop_mode == STOP_LEAF
    assert path_log_prob(pt) == 0.0  # empty product


def test_two_node_descent():
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([4.0], 1))
    pt = greedy_path(tree, None, np.array([5.0]))
    assert len(pt.decisions) == 1 and pt.final == 1 and pt.stop_mode == STOP_LEAF


@pytest.mark.parametrize("use_mlp", [False, True])
def test_greedy_path_mirrors_hard_traverse(use_mlp):
    rng = np.random.default_rng(200)
    for _ in range(25):
        class_count = int(rng.integers(2, 4))
        if use_mlp:
            params = init_params(MlpArchitecture((3, 6, 2)), int(rng.integers(1 << 31)))
            emb = make_embedder(params)
        else:
            params, emb = None, IDENT
        tree = random_tree(rng, n_range=(3, 30), dim=3, class_count=class_count,
                           embedder=emb, max_children=(2 if _ % 2 else None))
        q = rng.normal(size=3)
        hard = traverse(tree, emb, q)
        pt = greedy_path(tree, params, q)
        assert soft_visited(pt) == hard.visited
        assert (pt.final, pt.stop_mode) == (hard.final, hard.stop_mode)
        assert len(pt.decisions) == len(hard.steps)
        for dec, step in zip(pt.decisions, hard.steps):
            assert (dec.node, dec.candidates, dec.chosen) == (step.node, step.candidates, step.chosen)
            assert np.array_equal(dec.distances, step.distances)
        if pt.decisions:
            # the distances the loss differentiates are the walk's last ones
            _, head = batch_loss(Tape(), [pt], [0])
            assert np.array_equal(head.distances[0], pt.decisions[-1].distances)


def test_soft_path_leaves_hard_predictions_unchanged():
    # greedy_path refills the tree's embedding rows under a key of its own,
    # so on one tree, gradient steps under moving parameters, soft
    # predictions (another width) and hard predictions must each match a
    # fresh copy of the tree that no soft path has touched
    rng = np.random.default_rng(207)
    hard_emb = make_embedder(init_params(MlpArchitecture((3, 6, 4)), 208))
    params = init_params(MlpArchitecture((3, 5, 2)), 209)
    adam = AdamState.fresh(params)
    tree = build_tree(random_samples(rng, 60, 3, 3), hard_emb, None, 3)
    untouched = copy.deepcopy(tree)
    for s in random_samples(rng, 30, 3, 3):
        value, grads, _ = loss_and_grad(tree, params, s)
        assert value == loss_and_grad(copy.deepcopy(untouched), params, s)[0]
        params = adam_step(params, grads, adam)
        assert np.array_equal(predict_soft(tree, None, s.features),
                              predict_soft(copy.deepcopy(untouched), None, s.features))
        assert predict_hard(tree, hard_emb, s.features) == predict_hard(untouched, hard_emb, s.features)


def test_decision_probabilities_normalize():
    rng = np.random.default_rng(201)
    for _ in range(10):
        tree = random_tree(rng, n_range=(4, 15), dim=2, class_count=2)
        pt = greedy_path(tree, None, rng.normal(size=2))
        for dec in pt.decisions:
            probs = np.exp(neg_dist_log_softmax_value(dec.distances))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.allclose(probs, softmax_neg(dec.distances), atol=1e-14)


# ---- path_log_prob -----------------------------------------------------------

def test_path_log_prob_hand_product():
    # decision 1: distances (2, 1), take the child with p = 1/(1+e^-1) = 0.73106
    # decision 2: distances (1, 1), stay with p = 0.5
    tree = chain_tree()
    pt = greedy_path(tree, None, np.array([2.0]))
    assert pt.stop_mode == STOP_STAYED and pt.final == 1
    lp = path_log_prob(pt)
    assert abs(lp - math.log(0.36553)) < 1e-4


def test_path_prob_matches_enumeration_oracle():
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(60):
        bound = 2 if trial % 3 == 0 else None
        tree = random_tree(rng, n_range=(2, 7), dim=2, class_count=2,
                           max_children=bound)
        q = rng.normal(size=2)
        pt = greedy_path(tree, None, q)
        if not pt.decisions:
            continue
        children = [list(n.children) for n in tree.nodes]

        def dist_of(i):
            return float(np.linalg.norm(q - tree.nodes[i].sample.features))

        table = dict(enumerate_traversals(children, tree.max_children, dist_of))
        assert abs(sum(table.values()) - 1.0) < 1e-12
        got = math.exp(path_log_prob(pt))
        assert abs(got - table[tuple(soft_visited(pt))]) < 1e-12
        checked += 1
    assert checked >= 40


# ---- class_probs -------------------------------------------------------------

def test_single_node_class_prob_is_one_hot():
    tree = new_tree(Sample([0.0], 1), class_count=3)
    pt = greedy_path(tree, None, np.array([5.0]))
    probs = class_probs(pt)
    assert abs(probs[1] - 1.0) < 1e-15 and probs[0] < 1e-12 and probs[2] < 1e-12


def test_stayed_uniform_hand_example():
    # query equidistant from the root and both children: stay at the root and
    # aggregate the full candidate set uniformly, so the doubly-represented
    # class takes 2/3 of the mass and the root's own class 1/3
    tree = new_tree(Sample([0.0, 0.0], 0))
    tree.add_child(0, Sample([2.0, 0.0], 1))
    tree.add_child(0, Sample([0.0, 2.0], 1))
    pt = greedy_path(tree, None, np.array([1.0, 1.0]))
    assert pt.stop_mode == STOP_STAYED
    probs = class_probs(pt)
    assert abs(probs[0] - 1.0 / 3.0) < 1e-12
    assert abs(probs[1] - 2.0 / 3.0) < 1e-12


def test_leaf_stop_drops_decision_node_and_renormalizes():
    # distances: root 3, children 1 and 2; walk ends at the nearer child and
    # the class mass comes from the two label-1 children only
    tree = leaf_stop_tree()
    pt = greedy_path(tree, None, np.array([3.0]))
    assert pt.stop_mode == STOP_LEAF and pt.final == 1
    probs = class_probs(pt)
    assert abs(probs[1] - 1.0) < 1e-12
    assert probs[0] < 1e-12


def test_class_probs_normalize_and_prefix_cancels():
    rng = np.random.default_rng(203)
    for _ in range(20):
        class_count = int(rng.integers(2, 5))
        tree = random_tree(rng, n_range=(3, 20), dim=3, class_count=class_count)
        q = rng.normal(size=3)
        pt = greedy_path(tree, None, q)
        probs = class_probs(pt)
        assert abs(probs.sum() - 1.0) < 1e-10
        if not pt.decisions:
            continue
        # independent evaluation of the aggregation: softmax over the last
        # decision's distances, decision node masked out on a leaf stop
        last = pt.decisions[-1]
        w = softmax_neg(last.distances)
        expected = np.zeros(class_count)
        for i, cid in enumerate(last.candidates):
            if pt.stop_mode == STOP_LEAF and cid == last.node:
                continue
            expected[tree.nodes[cid].label] += w[i]
        expected = np.maximum(expected, 1e-30)
        expected = expected / expected.sum()
        assert np.allclose(probs, expected, atol=1e-12)


# ---- loss --------------------------------------------------------------------

def test_loss_zero_for_certain_correct_root():
    tree = new_tree(Sample([0.0], 1), class_count=2)
    tape = Tape()
    pt = greedy_path(tree, None, np.array([2.0]))
    ref, head = batch_loss(tape, [pt], [1])
    assert float(tape.value(ref)) == 0.0 and head.misses == 0
    # the wrong label on a one-node tree is a structural miss
    _, wrong = batch_loss(Tape(), [pt], [0])
    assert wrong.value == MISS_LOSS and wrong.misses == 1


def test_loss_log2_at_even_odds():
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([2.0], 1))
    tape = Tape()
    pt = greedy_path(tree, None, np.array([1.0]))  # tie: stay, p = 0.5 each
    ref, _ = batch_loss(tape, [pt], [0])
    assert abs(float(tape.value(ref)) - math.log(2.0)) < 1e-12


def test_loss_validates_label():
    pt = greedy_path(new_tree(Sample([0.0], 0)), None, np.array([1.0]))
    for bad in (7, -1):
        with pytest.raises(ValueError):
            batch_loss(Tape(), [pt], [bad])


def test_clamp_counter_fires_only_for_true_class():
    # a clamp is a structural miss: the true class has no member in the
    # aggregation set (here the two label-1 children of a leaf stop)
    tree = leaf_stop_tree()
    pt = greedy_path(tree, None, np.array([3.0]))
    assert batch_loss(Tape(), [pt], [1])[1].misses == 0
    tape = Tape()
    ref, head = batch_loss(tape, [pt], [0])
    val = float(tape.value(ref))
    assert head.misses == 1
    assert val > 60.0  # -log(1e-30) scale, large but finite


def test_uniform_zero_net_loss():
    # all-zero MLP embeds everything identically: softmax uniform, walk stays
    # at the root, and the loss is the log of the true-class candidate share
    arch = MlpArchitecture((1, 3, 2))
    zeros = ParameterSet(arch, np.zeros(arch.n_params))
    tree = leaf_stop_tree()
    value, grads, clamps = loss_and_grad(tree, zeros, Sample([9.0], 0))
    assert abs(value - math.log(3.0)) < 1e-12  # p(label 0) = 1/3
    assert clamps == 0
    value1, _, _ = loss_and_grad(tree, zeros, Sample([9.0], 1))
    assert abs(value1 - math.log(1.5)) < 1e-12  # p(label 1) = 2/3


def test_loss_and_grad_matches_manual_pipeline():
    rng = np.random.default_rng(204)
    params = init_params(MlpArchitecture((2, 5, 3)), 205)
    tree = random_tree(rng, n_range=(4, 12), dim=2, class_count=2,
                       embedder=make_embedder(params))
    sample = Sample(rng.normal(size=2), 1)
    value, grads, clamps = loss_and_grad(tree, params, sample)

    tape = Tape()
    pt = greedy_path(tree, params, sample.features)
    ref, head = batch_loss(tape, [pt], [sample.label])
    grad_map = tape.backward(ref)
    manual = collect_param_grads(tape, params, grad_map)
    assert value == float(tape.value(ref))
    assert clamps == head.misses
    for a, b in zip(grads.weights + grads.biases, manual.weights + manual.biases):
        assert np.array_equal(a, b)


def test_single_node_tree_has_zero_gradients():
    params = init_params(MlpArchitecture((2, 4, 2)), 206)
    tree = new_tree(Sample([0.5, -0.5], 0))
    value, grads, clamps = loss_and_grad(tree, params, Sample([1.0, 1.0], 0))
    assert value == 0.0 and clamps == 0
    assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)


# ---- batched step ------------------------------------------------------------

def _batch_case(rng, k):
    params = init_params(MlpArchitecture((3, 7, 4)), int(rng.integers(1 << 31)))
    class_count = int(rng.integers(2, 4))
    tree = random_tree(rng, n_range=(2, 20), dim=3, class_count=class_count,
                       embedder=make_embedder(params), max_children=(None, 2)[int(rng.integers(2))])
    return tree, params, random_samples(rng, k, 3, class_count)


def test_batch_step_is_the_mean_of_per_query_steps():
    rng = np.random.default_rng(210)
    for k in (2, 3, 8, 20):
        for _ in range(5):
            tree, params, batch = _batch_case(rng, k)
            value, grads, clamps = loss_and_grad(tree, params, batch)
            # every per-query loss is bitwise its single-query head at the
            # query row the batch walked, summed in batch order
            rows = make_embedder(params)(np.array([s.features for s in batch]))
            heads = [batch_loss(Tape(), [greedy_path(tree, params, s.features, r)], [s.label])[1]
                     for s, r in zip(batch, rows)]
            assert value == sum(float(h.value) for h in heads) / k
            # a single step embeds its query alone, which moves its row, and
            # so its loss and gradient, by rounding only
            singles = [loss_and_grad(tree, params, s) for s in batch]
            assert abs(value - sum(v for v, _, _ in singles) / k) <= 1e-12 * max(1.0, value)
            assert clamps == sum(c for _, _, c in singles) == sum(h.misses for h in heads)
            mean = sum(g.flat for _, g, _ in singles) / k
            assert np.max(np.abs(grads.flat - mean)) <= 1e-12 * np.max(np.abs(mean))


def test_batch_step_rejects_an_empty_batch():
    tree, params, _ = _batch_case(np.random.default_rng(211), 1)
    with pytest.raises(ValueError):
        loss_and_grad(tree, params, [])


def test_batch_loss_gradient_matches_fd():
    rng = np.random.default_rng(212)
    checked = 0
    while checked < 8:
        tree, params, query = general_position_case(rng)
        batch = [query]
        for _ in range(200):
            q = Sample(rng.normal(size=params.arch.in_dim), int(rng.integers(tree.class_count)))
            if len(batch) < 3 and in_general_position(tree, params, q):
                batch.append(q)
        if len(batch) < 3:
            continue
        n_w = len(params.weights)
        # the last-layer bias moves every embedding together, so the loss is
        # flat along it (criterion 2 checks that direction analytically)
        last_bias = params.biases[-1].copy()
        arrays = [w.copy() for w in params.weights] + [b.copy() for b in params.biases[:-1]]

        def build_loss(tape, refs):
            bound = bind_as_leaves(tape, params.arch, refs[:n_w],
                                   list(refs[n_w:]) + [tape.leaf(last_bias)])
            traces = [greedy_path(tree, bound, s.features) for s in batch]
            return batch_loss(tape, traces, [s.label for s in batch])[0]

        assert grad_check(build_loss, arrays, step=1e-5) < 1e-4
        checked += 1


def test_embed_paths_block_is_queries_then_candidate_union():
    rng = np.random.default_rng(213)
    for k in (1, 2, 5, 12):
        for _ in range(4):
            tree, params, batch = _batch_case(rng, k)
            tape = Tape()
            traces = [greedy_path(tree, params, s.features) for s in batch]
            ref, walked, cand_rows = embed_paths(tape, traces)
            block = tape.value(ref)
            union = []
            for t in traces:
                if t.decisions:
                    union += [c for c in t.decisions[-1].candidates if c not in union]
            rows = [s.features for s in batch] + [tree.nodes[c].sample.features for c in union]
            assert block.shape == walked.shape == (k + len(union), params.arch.out_dim)
            assert block.tobytes() == embed(params, np.array(rows)).tobytes()
            # the walked block holds the rows the walks compared
            want = np.concatenate([[t.embedded for t in traces], tree.emb[union]])
            assert walked.tobytes() == want.tobytes()
            for t, r in zip(traces, cand_rows):
                if t.decisions:
                    assert r == [k + union.index(c) for c in t.decisions[-1].candidates]
                else:
                    assert r == []


@pytest.mark.parametrize("use_mlp", [False, True])
def test_head_distances_are_the_walks_last_distances(use_mlp):
    # The head reads the rows the walks compared (the query block of
    # loss_and_grad, then the tree's rows), not the tape block, so every
    # query's distances are bitwise its walk's last decision's.
    rng = np.random.default_rng(215)
    for k in (1, 5, 20):
        for _ in range(4):
            tree, params, batch = _batch_case(rng, k)
            if not use_mlp:
                params = None
                tree = random_tree(rng, n_range=(2, 20), dim=3, class_count=tree.class_count,
                                   max_children=tree.max_children)
            embedder = IDENT if params is None else make_embedder(params)
            rows = embedder(np.array([s.features for s in batch]))
            traces = [greedy_path(tree, params, s.features, r) for s, r in zip(batch, rows)]
            _, head = batch_loss(Tape(), traces, [s.label for s in batch])
            for t, d in zip(traces, head.distances):
                if t.decisions:
                    assert d.tobytes() == t.decisions[-1].distances.tobytes()
                else:
                    assert d is None


def test_embed_paths_rejects_traces_of_different_trees():
    tree, params, batch = _batch_case(np.random.default_rng(214), 2)
    other = copy.deepcopy(tree)
    traces = [greedy_path(tree, params, batch[0].features),
              greedy_path(other, params, batch[1].features)]
    with pytest.raises(ValueError):
        embed_paths(Tape(), traces)
    # nor of different parameter sets
    traces[1] = greedy_path(tree, copy.deepcopy(params), batch[1].features)
    with pytest.raises(ValueError):
        embed_paths(Tape(), traces)


def test_batch_step_embeds_no_tree_row(monkeypatch):
    # the tree was built under these parameters, so every walk reads the
    # rows the build stored: the only plain embed call is the query block
    rng = np.random.default_rng(215)
    tree, params, batch = _batch_case(rng, 6)
    calls = []
    real = transform.embed

    def counting(p, x):
        calls.append(np.shape(x))
        return real(p, x)

    monkeypatch.setattr(transform, "embed", counting)
    loss_and_grad(tree, params, batch)
    assert calls == [(6, 3)]


def test_batch_step_tape_is_the_mlp_chain_and_one_head():
    # parameter leaves, the raw-feature constant, matmul_add and activation
    # per layer, then the head: 4L + 1 nodes whatever the batch size
    rng = np.random.default_rng(216)
    params = init_params(MlpArchitecture((3, 7, 5, 4)), 217)
    tree = random_tree(rng, n_range=(5, 20), dim=3, class_count=3, embedder=make_embedder(params))
    sizes = []
    real = Tape.backward

    def counting(tape, ref):
        sizes.append(len(tape))
        return real(tape, ref)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Tape, "backward", counting)
        for k in (1, 10, 200):
            loss_and_grad(tree, params, random_samples(rng, k, 3, 3))
    assert sizes == [4 * params.arch.n_layers + 1] * 3


# ---- structural misses -----------------------------------------------------------

def _aggregated_labels(tree, hard):
    """Labels of the aggregation set, read off a hard traversal."""
    if not hard.steps:
        return {tree.nodes[hard.final].label}
    last = hard.steps[-1]
    kept = [c for c in last.candidates if hard.stop_mode == STOP_STAYED or c != last.node]
    return {tree.nodes[c].label for c in kept}


@pytest.mark.parametrize("use_mlp", [False, True])
def test_clamps_are_exactly_structural_misses(use_mlp):
    rng = np.random.default_rng(218 + use_mlp)
    seen_modes, total_misses, total = set(), 0, 0
    for case in range(60):
        class_count = int(rng.integers(2, 5))
        if use_mlp:
            params = init_params(MlpArchitecture((3, 6, 2)), int(rng.integers(1 << 31)))
            emb = make_embedder(params)
        else:
            params, emb = None, IDENT
        tree = random_tree(rng, n_range=(1, 25), dim=3, class_count=class_count,
                           embedder=emb, max_children=(None, 2, 3)[case % 3])
        batch = random_samples(rng, 12, 3, class_count)
        want = 0
        for s in batch:
            hard = traverse(tree, emb, s.features)
            seen_modes.add(hard.stop_mode)
            want += s.label not in _aggregated_labels(tree, hard)
        if use_mlp:
            _, _, clamps = loss_and_grad(tree, params, batch)
        else:
            traces = [greedy_path(tree, None, s.features) for s in batch]
            clamps = batch_loss(Tape(), traces, [s.label for s in batch])[1].misses
        assert clamps == want
        total_misses += want
        total += len(batch)
    assert seen_modes == {STOP_LEAF, STOP_STAYED} and 0 < total_misses < total


def _miss_case(rng, stop_mode):
    """(tree, tanh params, query) whose walk ends with `stop_mode` and whose
    true class is absent from the aggregation set; every decision's
    distances are more than 1e-2 apart, and after a leaf stop the decision
    node holds 5-95% of the softmax mass, so the miss has a gradient."""
    while True:
        params = init_params(MlpArchitecture((3, 6, 3), "tanh"), int(rng.integers(1 << 31)))
        tree = build_tree(random_samples(rng, 12, 3, 3), make_embedder(params), None, 3)
        q = rng.normal(size=3)
        pt = greedy_path(tree, params, q)
        if not pt.decisions or pt.stop_mode != stop_mode:
            continue
        if any(np.any(np.diff(np.sort(d.distances)) < 1e-2) for d in pt.decisions):
            continue
        absent = set(range(3)) - _aggregated_labels(tree, traverse(tree, make_embedder(params), q))
        if not absent:
            continue
        last = pt.decisions[-1]
        node_mass = softmax_neg(last.distances)[last.candidates.index(last.node)]
        if stop_mode == STOP_LEAF and not 0.05 < node_mass < 0.95:
            continue
        return tree, params, Sample(q, min(absent))


def test_leaf_stop_miss_gradient_matches_fd():
    # a leaf-stop miss is MISS_LOSS plus the log of the aggregated share of
    # the candidate softmax: its gradient pushes mass back to the decision node
    rng = np.random.default_rng(220)
    for _ in range(4):
        tree, params, query = _miss_case(rng, STOP_LEAF)
        value, grads, clamps = loss_and_grad(tree, params, query)
        assert clamps == 1 and MISS_LOSS - 5.0 < value < MISS_LOSS
        assert np.max(np.abs(grads.flat)) > 1e-3
        n_w = len(params.weights)
        last_bias = params.biases[-1].copy()
        arrays = [w.copy() for w in params.weights] + [b.copy() for b in params.biases[:-1]]

        def build_loss(tape, refs):
            bound = bind_as_leaves(tape, params.arch, refs[:n_w],
                                   list(refs[n_w:]) + [tape.leaf(last_bias)])
            return batch_loss(tape, [greedy_path(tree, bound, query.features)], [query.label])[0]

        assert grad_check(build_loss, arrays, step=1e-5) < 1e-4


def test_stayed_stop_miss_has_no_gradient():
    # a stayed stop aggregates the whole candidate set, whose mass is 1: the
    # miss is the constant MISS_LOSS and its gradient is zero
    rng = np.random.default_rng(221)
    for _ in range(4):
        tree, params, query = _miss_case(rng, STOP_STAYED)
        value, grads, clamps = loss_and_grad(tree, params, query)
        assert clamps == 1 and value == MISS_LOSS
        assert np.max(np.abs(grads.flat)) <= 1e-12


def test_present_true_class_below_the_floor_gets_the_exact_log_ratio():
    # the true class (node 1, label 1) is aggregated but 101 distance units
    # further than the root: its mass e^-101 / (1 + e^-101) is far below
    # LOG_FLOOR, yet it is no miss, and the loss is the exact logsumexp
    # difference, larger than MISS_LOSS
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([101.0], 1))
    pt = greedy_path(tree, None, np.array([-1.0]))
    assert pt.stop_mode == STOP_STAYED and list(pt.decisions[-1].distances) == [1.0, 102.0]
    head = batch_loss(Tape(), [pt], [1])[1]
    want = np.logaddexp(-1.0, -102.0) - (-102.0)
    assert head.misses == 0
    assert abs(head.value - want) <= 1e-12 * want and head.value > MISS_LOSS
    assert abs(head.value - (101.0 + math.log1p(math.exp(-101.0)))) <= 1e-12 * want

    _, walked, rows = embed_paths(Tape(), [pt])

    def build_loss(t, refs):
        h = loss_head(t.value(refs[0]), rows, [pt], [1])
        return t.push(h.value, (refs[0],), lambda g: (g * h.grad,))

    assert grad_check(build_loss, [walked], step=1e-5) < 1e-6


# ---- predict_soft vs predict_hard ---------------------------------------------

def _agreement_cases(n_cases, seed):
    rng = np.random.default_rng(seed)
    agree = 0
    for _ in range(n_cases):
        dim = int(rng.integers(2, 10))
        class_count = int(rng.integers(2, 6))
        tree = random_tree(rng, n_range=(3, 10), dim=dim, class_count=class_count)
        q = rng.normal(size=dim)
        probs = predict_soft(tree, None, q)
        hard = predict_hard(tree, IDENT, q)
        assert abs(probs.sum() - 1.0) < 1e-10
        assert probs[hard] > 0.0  # the hard stop always carries soft mass
        top = np.sort(probs)[-2:] if len(probs) > 1 else probs
        if len(probs) > 1 and top[1] - top[0] < 1e-12:
            continue  # no unique argmax, skip the comparison
        if probs[hard] >= 1.0 - 1e-12:
            assert int(np.argmax(probs)) == hard  # label-pure aggregation
        if int(np.argmax(probs)) == hard:
            agree += 1
    return agree


def test_soft_argmax_usually_matches_hard_prediction():
    # The greedy stop and the soft argmax are different estimators and are
    # not guaranteed to coincide: sibling mass can outweigh the stop node.
    # Frozen measurement for this generator and seed; a band guards against
    # silent behavioral drift in either direction.
    agree = _agreement_cases(1000, 20260825)
    assert agree == 857
    assert 750 <= agree <= 950


def test_disagreement_mechanism_example():
    # stayed stop where the two children jointly out-mass the root's label:
    # hard predicts the root, the soft argmax goes with the children.
    # distances 1.0 vs 1.2, 1.2: p(root) = e^-1 / (e^-1 + 2 e^-1.2) = 0.379
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([2.2], 1))
    tree.add_child(0, Sample([-0.2], 1))
    q = np.array([1.0])
    assert predict_hard(tree, IDENT, q) == 0
    probs = predict_soft(tree, None, q)
    assert int(np.argmax(probs)) == 1
    assert probs[1] > 0.5 > probs[0]
    assert abs(probs[0] - 0.37916) < 1e-4
