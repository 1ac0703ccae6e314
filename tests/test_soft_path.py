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
from betree.boundary_tree import _store_rows
from helpers import (
    fd_max_rel_error,
    general_position_case,
    in_general_position,
    random_samples,
    random_tree,
)
from oracles import (
    enumerate_traversals,
    enumerated_class_expectation,
    fd_gradient,
    ref_loss_head,
    softmax_neg,
)

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
            _, head = batch_loss([pt], [0])
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
    pt = greedy_path(tree, None, np.array([2.0]))
    _, head = batch_loss([pt], [1])
    assert head.value == 0.0 and head.misses == 0
    # the wrong label on a one-node tree is a structural miss
    _, wrong = batch_loss([pt], [0])
    assert wrong.value == MISS_LOSS and wrong.misses == 1


def test_loss_log2_at_even_odds():
    tree = new_tree(Sample([0.0], 0))
    tree.add_child(0, Sample([2.0], 1))
    pt = greedy_path(tree, None, np.array([1.0]))  # tie: stay, p = 0.5 each
    _, head = batch_loss([pt], [0])
    assert abs(head.value - math.log(2.0)) < 1e-12


def test_loss_validates_label():
    pt = greedy_path(new_tree(Sample([0.0], 0)), None, np.array([1.0]))
    for bad in (7, -1):
        with pytest.raises(ValueError):
            batch_loss([pt], [bad])


def test_clamp_counter_fires_only_for_true_class():
    # a clamp is a structural miss: the true class has no member in the
    # aggregation set (here the two label-1 children of a leaf stop)
    tree = leaf_stop_tree()
    pt = greedy_path(tree, None, np.array([3.0]))
    assert batch_loss([pt], [1])[1].misses == 0
    _, head = batch_loss([pt], [0])
    val = float(head.value)
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
    # the standalone step records one forward over [the tree's samples in
    # id order; the query], re-stores every node's row from it, walks from
    # the query's recorded row and takes the backward over the recorded
    # rows its head read
    rng = np.random.default_rng(204)
    params = init_params(MlpArchitecture((2, 5, 3)), 205)
    tree = random_tree(rng, n_range=(4, 12), dim=2, class_count=2,
                       embedder=make_embedder(params))
    sample = Sample(rng.normal(size=2), 1)
    value, grads, clamps = loss_and_grad(tree, params, sample)

    tape = Tape()
    out = transform.forward(tape, params, np.array([*(n.sample.features for n in tree.nodes),
                                                    sample.features]))
    assert tree.emb[:len(tree)].tobytes() == out[:-1].tobytes()
    assert [n.row for n in tree.nodes] == list(range(len(tree)))
    pt = greedy_path(tree, params, sample.features, out[-1])
    union, head = batch_loss([pt], [sample.label])
    manual = tape.backward(head.grad, [len(tree), *union])
    assert value == float(head.value)
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
            tape, _ = _manual_step(tree, params, batch)
            heads = [batch_loss([greedy_path(tree, params, s.features, r)], [s.label])[1]
                     for s, r in zip(batch, tape.output[-k:])]
            assert value == sum(float(h.value) for h in heads) / k
            # a single step records its query in a block of another shape,
            # which moves its row, and so its loss and gradient, by
            # rounding only
            singles = [loss_and_grad(tree, params, s) for s in batch]
            assert abs(value - sum(v for v, _, _ in singles) / k) <= 1e-12 * max(1.0, value)
            assert clamps == sum(c for _, _, c in singles) == sum(h.misses for h in heads)
            mean = sum(g.flat for _, g, _ in singles) / k
            assert np.max(np.abs(grads.flat - mean)) <= 1e-12 * np.max(np.abs(mean))


def _manual_step(tree, params, batch):
    """loss_and_grad's standalone step, built here: one recorded forward
    over [the tree's samples; the batch], the tree's rows re-stored from
    it, the batch's traces at its recorded rows, the head, and the
    backward of the head's gradient, divided by k, over the recorded rows
    the head read. Returns the tape and the (mean) gradient."""
    k = len(batch)
    tape = Tape()
    out = transform.forward(tape, params, np.array([*(n.sample.features for n in tree.nodes),
                                                    *(s.features for s in batch)]))
    tree.reset_embeddings(make_embedder(params).cache_key)
    _store_rows(tree, np.arange(len(tree)), out[:len(tree)])
    traces = [greedy_path(tree, params, s.features, r) for s, r in zip(batch, out[len(tree):])]
    union, head = batch_loss(traces, [s.label for s in batch])
    return tape, tape.backward(head.grad / k, [*range(len(tree), len(out)), *union])


def _gathered_backward(tape, g, rows):
    """The written-out backward of a record holding only `rows` of `tape`'s
    record: a fresh Tape whose blocks are those rows, gathered here."""
    gathered = Tape()
    gathered.params, gathered.inputs = tape.params, [x[rows] for x in tape.inputs]
    return gathered.backward(g)


def _step_spy(monkeypatch):
    """Spy on Tape.backward: each call's tape, gradient and rows, then the
    real backward."""
    calls = []
    real = Tape.backward

    def spy(tape, g, rows=None):
        calls.append((tape, g.copy(), rows))
        return real(tape, g, rows)

    monkeypatch.setattr(Tape, "backward", spy)
    return calls


@pytest.mark.parametrize("recorded_by", ["loss_and_grad", "caller"])
def test_step_gradient_is_the_backward_of_the_rows_the_head_read(recorded_by, monkeypatch):
    # on the standalone path and on train's (a caller's record over [build
    # samples; queries], whose first rows the build took), the backward
    # runs over the record's query rows and its rows of the head's union,
    # which are bitwise the rows the head read; the gradient is bitwise
    # the written-out backward of a record holding only those rows
    rng = np.random.default_rng(222)
    calls = _step_spy(monkeypatch)
    for k in (1, 4, 9):
        for case in range(4):
            params = init_params(MlpArchitecture((3, 7, 5, 4)), int(rng.integers(1 << 31)))
            build = random_samples(rng, int(rng.integers(2, 40)), 3, 3)
            batch = random_samples(rng, k, 3, 3)
            embedder, max_children = make_embedder(params), (None, 2)[case % 2]
            tape = None
            if recorded_by == "caller":
                tape = Tape()
                out = transform.forward(tape, params, np.array([s.features for s in build + batch]))
                tree = build_tree(build, embedder, max_children, 3, rows=out[:len(build)])
            else:
                tree = build_tree(build, embedder, max_children, 3)
            calls.clear()
            value, grads, _ = loss_and_grad(tree, params, batch, tape)
            [(record, g, rows)] = calls
            assert tape is None or record is tape
            n = len(record.output)
            traces = [greedy_path(tree, params, s.features, r)
                      for s, r in zip(batch, record.output[n - k:])]
            union, head = batch_loss(traces, [s.label for s in batch])
            assert value == float(head.value) / k
            assert g.tobytes() == (head.grad / k).tobytes()
            assert list(rows) == [*range(n - k, n), *(tree.nodes[c].row for c in union)]
            for c in union:
                assert tree.emb[c].tobytes() == record.output[tree.nodes[c].row].tobytes()
            assert grads.flat.tobytes() == _gathered_backward(record, g, rows).flat.tobytes()


def test_step_gradient_is_the_backward_and_never_aliased():
    # loss_and_grad's gradient is bitwise the written-out backward of the
    # same step, its head's gradient divided by the batch size, and a
    # later step leaves it alone
    rng = np.random.default_rng(213)
    for k in (1, 5):
        tree, params, batch = _batch_case(rng, k)
        _, grads, _ = loss_and_grad(tree, params, batch)
        _, want = _manual_step(tree, params, batch)
        assert grads.flat.tobytes() == want.flat.tobytes()

        kept = grads.flat.copy()
        _, later, _ = loss_and_grad(tree, params, batch[::-1])
        assert grads.flat.tobytes() == kept.tobytes()
        assert not np.shares_memory(later.flat, grads.flat)


def test_a_step_tape_is_freed_without_the_cyclic_collector():
    # a reference cycle through the tape would keep every step's recorded
    # blocks alive until a collection ran
    import gc
    import weakref

    tree, params, batch = _batch_case(np.random.default_rng(214), 4)
    gc.collect()
    gc.disable()
    try:
        tape, grads = _manual_step(tree, params, batch)
        alive = weakref.ref(tape)
        del tape
        assert alive() is None
        assert grads.flat.any()
    finally:
        gc.enable()


def test_batch_step_rejects_an_empty_batch():
    # each entry point names itself
    tree, params, _ = _batch_case(np.random.default_rng(211), 1)
    with pytest.raises(ValueError, match="loss_and_grad"):
        loss_and_grad(tree, params, [])
    with pytest.raises(ValueError, match="batch_loss"):
        batch_loss([], [])
    with pytest.raises(ValueError, match="embed_paths"):
        embed_paths([])


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
        # the last-layer bias moves every embedding together, so the loss is
        # flat along it (criterion 2 checks that direction analytically)
        assert fd_max_rel_error(tree, params, batch, step=1e-5) < 1e-4
        checked += 1


def test_embed_paths_block_is_queries_then_candidate_union():
    rng = np.random.default_rng(213)
    for k in (1, 2, 5, 12):
        for _ in range(4):
            tree, params, batch = _batch_case(rng, k)
            traces = [greedy_path(tree, params, s.features) for s in batch]
            got_union, walked, cand_rows = embed_paths(traces)
            union = []
            for t in traces:
                if t.decisions:
                    union += [c for c in t.decisions[-1].candidates if c not in union]
            assert got_union == union
            assert walked.shape == (k + len(union), params.arch.out_dim)
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
    # loss_and_grad, then the tree's rows), not a new embedding, so every
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
            _, head = batch_loss(traces, [s.label for s in batch])
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
        embed_paths(traces)
    # nor of different parameter sets
    traces[1] = greedy_path(tree, copy.deepcopy(params), batch[1].features)
    with pytest.raises(ValueError):
        embed_paths(traces)


def test_batch_step_embeds_by_one_forward_only(monkeypatch):
    # the standalone step embeds by one recorded forward over [the tree's
    # samples; the queries] and by no plain embed call; given a caller's
    # record, it embeds nothing at all, so every walk reads recorded rows
    rng = np.random.default_rng(215)
    tree, params, batch = _batch_case(rng, 6)
    embeds, forwards = [], []
    real_embed, real_forward = transform.embed, transform.forward

    def counting_embed(p, x):
        embeds.append(np.shape(x))
        return real_embed(p, x)

    def counting_forward(tape, p, x):
        forwards.append(np.shape(x))
        return real_forward(tape, p, x)

    monkeypatch.setattr(transform, "embed", counting_embed)
    monkeypatch.setattr(transform, "forward", counting_forward)
    loss_and_grad(tree, params, batch)
    assert embeds == [] and forwards == [(len(tree) + 6, 3)]

    build = random_samples(rng, 15, 3, tree.class_count)
    tape = Tape()
    out = real_forward(tape, params, np.array([s.features for s in build + batch]))
    tree = build_tree(build, make_embedder(params), None, tree.class_count, rows=out[:15])
    forwards.clear()
    loss_and_grad(tree, params, batch, tape)
    assert embeds == [] and forwards == []


def test_batch_step_tape_records_one_block_per_layer():
    # the raw block, then each hidden layer's output: one recorded block per
    # layer whatever the batch size, and one backward per step
    rng = np.random.default_rng(216)
    params = init_params(MlpArchitecture((3, 7, 5, 4)), 217)
    tree = random_tree(rng, n_range=(5, 20), dim=3, class_count=3, embedder=make_embedder(params))
    sizes = []
    real = Tape.backward

    def counting(tape, g, rows=None):
        sizes.append((len(tape), len(tape.inputs[0]), len(g), len(rows)))
        return real(tape, g, rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Tape, "backward", counting)
        for k in (1, 10, 200):
            loss_and_grad(tree, params, random_samples(rng, k, 3, 3))
    assert [n for n, _, _, _ in sizes] == [params.arch.n_layers] * 3
    # the record is the tree's samples and the queries; the backward's rows
    # are the queries and their candidates' union, one gradient row each
    assert [recorded for _, recorded, _, _ in sizes] == [len(tree) + k for k in (1, 10, 200)]
    assert all(rows == g > k for (_, _, g, rows), k in zip(sizes, (1, 10, 200)))


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
            clamps = batch_loss(traces, [s.label for s in batch])[1].misses
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
        assert fd_max_rel_error(tree, params, query, step=1e-5) < 1e-4


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
    head = batch_loss([pt], [1])[1]
    want = np.logaddexp(-1.0, -102.0) - (-102.0)
    assert head.misses == 0
    assert abs(head.value - want) <= 1e-12 * want and head.value > MISS_LOSS
    assert abs(head.value - (101.0 + math.log1p(math.exp(-101.0)))) <= 1e-12 * want

    _, walked, rows = embed_paths([pt])
    numeric = fd_gradient(lambda b: float(loss_head(b, rows, [pt], [1]).value), walked, step=1e-5)
    rel = np.abs(head.grad - numeric) / np.maximum(1e-8, np.abs(head.grad) + np.abs(numeric))
    assert np.max(rel) < 1e-6


# ---- the grouped head against the per-query oracle ----------------------------
#
# loss_head runs its numpy work once per candidate-count group; the oracle
# is the same head one query at a time. They must agree to the byte.

_FANOUTS = (0, 1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 200)


def _wide_tree(rng, dim, max_children, class_count=3):
    """Identity tree whose fan-outs span numpy's pairwise-sum boundaries:
    2-9 root children 10 apart, each with a fan-out from _FANOUTS at scale
    1, and up to three of those with 0-2 children at scale 0.1. Labels are
    random but differ from the parent's, so walks miss and every edge is a
    class boundary. add_child does not apply the max_children bound,
    so a node can hold more children than the bound, and any node at or
    past it drops out of its own candidates."""
    tree = new_tree(Sample(np.zeros(dim), int(rng.integers(class_count))), max_children, class_count)

    def grow(parent, fanout, scale):
        for _ in range(fanout):
            p = tree.nodes[parent]
            label = (p.label + 1 + int(rng.integers(class_count - 1))) % class_count
            tree.add_child(parent, Sample(p.sample.features + scale * rng.normal(size=dim), label))

    grow(0, int(rng.choice((2, 3, 5, 9))), 10.0)
    for c in list(tree.nodes[0].children):
        grow(c, int(rng.choice(_FANOUTS)), 1.0)
        for g in tree.nodes[c].children[:3]:
            grow(g, int(rng.integers(3)), 0.1)
    return tree


def _assert_heads_equal(got, want):
    assert type(got.value) is np.float64 and got.value.tobytes() == want.value.tobytes()
    assert got.grad.tobytes() == want.grad.tobytes()
    assert got.misses == want.misses
    assert len(got.distances) == len(want.distances)
    for a, b in zip(got.distances, want.distances):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_grouped_head_is_bitwise_the_per_query_head():
    rng = np.random.default_rng(230)
    counts, kinds, shared = set(), set(), 0
    dropped = zero = False
    for case in range(18):
        dim = (1, 2, 3, 20, 130)[case % 5]
        tree = _wide_tree(rng, dim, (None, 1, 3)[case % 3])
        # queries on a node (distance 0), or near it at three scales
        at = rng.integers(len(tree), size=40)
        scale = rng.choice((0.0, 0.01, 0.3, 3.0), size=(40, 1))
        queries = np.array([tree.nodes[i].sample.features for i in at]) + scale * rng.normal(size=(40, dim))
        traces = [greedy_path(tree, None, q) for q in queries]
        labels = rng.integers(tree.class_count, size=40).tolist()
        _, walked, rows = embed_paths(traces)
        for block in (walked, walked * 10.0 ** rng.integers(-3, 4, size=(len(walked), 1))):
            _assert_heads_equal(loss_head(block, rows, traces, labels),
                                ref_loss_head(block, rows, traces, labels))
        counts_of_row = {}
        for t, r, y in zip(traces, rows, labels):
            last = t.decisions[-1]
            counts.add(len(r))
            dropped |= last.node not in last.candidates
            zero |= not last.distances.all()
            aggregated = {tree.nodes[c].label for c in last.candidates
                          if t.stop_mode == STOP_STAYED or c != last.node}
            kinds.add((t.stop_mode, y in aggregated))
            for row in r:
                counts_of_row.setdefault(row, set()).add(len(r))
        shared += sum(len(ns) > 1 for ns in counts_of_row.values())
    # candidate counts in every band of numpy's pairwise sum (1, 2-8,
    # 9-128, above 128), both stop kinds with and without a miss, a bound
    # that drops the decision node, a zero distance, and union rows that
    # several groups share
    assert 1 in counts and counts & set(range(2, 9)) and counts & set(range(9, 129))
    assert max(counts) > 128
    assert kinds == {(STOP_LEAF, True), (STOP_LEAF, False), (STOP_STAYED, True), (STOP_STAYED, False)}
    assert dropped and zero and shared > 0
    # queries without a decision (a one-node tree)
    tree = new_tree(Sample(rng.normal(size=3), 1), class_count=3)
    traces = [greedy_path(tree, None, rng.normal(size=3)) for _ in range(6)]
    labels = [0, 1, 2, 1, 1, 0]
    _, walked, rows = embed_paths(traces)
    head = loss_head(walked, rows, traces, labels)
    _assert_heads_equal(head, ref_loss_head(walked, rows, traces, labels))
    assert head.misses == 3 and head.value == 3 * MISS_LOSS and not head.grad.any()


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
