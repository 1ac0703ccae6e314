"""Tape engine: forward values, vjps against central differences, shape
validation and the backward sweep; the distance and log-softmax kernels,
and the loss head's distance gradient."""

import math

import numpy as np
import pytest

from betree import Sample, embed_paths, greedy_path, loss_head, new_tree
from betree.tape import (
    DISTANCE_EPS,
    ShapeError,
    Tape,
    affine,
    grad_check,
    l2_value,
    neg_dist_log_softmax_value,
)
from helpers import tape_sum
from oracles import affine_error_bound, fd_gradient, ref_affine, softmax_neg


def test_leaf_and_constant_hold_values():
    tape = Tape()
    a = tape.leaf([1.0, 2.0])
    b = tape.constant(3.0)
    assert np.array_equal(tape.value(a), [1.0, 2.0])
    assert float(tape.value(b)) == 3.0
    assert a in tape.leaf_refs and b not in tape.leaf_refs


def test_inputs_reject_rank_3():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.leaf(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        tape.constant(np.zeros((1, 1, 1)))



def test_leaf_rejects_a_gradient_destination_of_another_shape():
    with pytest.raises(ShapeError):
        Tape().leaf(np.zeros((2, 3)), into=np.zeros((3, 2)))


def test_matmul_add_value():
    tape = Tape()
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = np.array([1.0, -1.0])
    b = np.array([0.5, 0.5, 0.5])
    out = tape.matmul_add(tape.leaf(w), tape.leaf(x), tape.leaf(b))
    assert np.allclose(tape.value(out), w @ x + b)


def test_matmul_add_shape_errors_name_the_operand():
    tape = Tape()
    w = tape.leaf(np.ones((2, 3)))
    x_bad = tape.leaf(np.ones(2))
    b = tape.leaf(np.ones(2))
    with pytest.raises(ShapeError, match="input"):
        tape.matmul_add(w, x_bad, b)
    with pytest.raises(ShapeError, match="weight"):
        tape.matmul_add(x_bad, x_bad, b)
    x = tape.leaf(np.ones(3))
    b_bad = tape.leaf(np.ones(3))
    with pytest.raises(ShapeError, match="bias"):
        tape.matmul_add(w, x, b_bad)


def test_matmul_add_gradients_match_fd():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=4)
    b = rng.normal(size=3)

    def run(w_, x_, b_):
        tape = Tape()
        rw, rx, rb = tape.leaf(w_), tape.leaf(x_), tape.leaf(b_)
        out = tape_sum(tape, [tape.matmul_add(rw, rx, rb)])
        return tape, (rw, rx, rb), out

    tape, refs, out = run(w, x, b)
    grads = tape.backward(out)
    for ref, arr, idx in ((refs[0], w, 0), (refs[1], x, 1), (refs[2], b, 2)):
        def f(a, idx=idx):
            parts = [w, x, b]
            parts[idx] = a
            t, _, o = run(*parts)
            return float(t.value(o))

        assert np.allclose(grads[ref], fd_gradient(f, arr), atol=1e-7)


def test_affine_block_rows_agree_with_one_row_calls_to_rounding():
    # One GEMM for a block and for one row: the BLAS summation order
    # follows the block's shape, so a block row and its one-row call are
    # two float evaluations of the same entries, each within the rounding
    # bound of the reference.
    rng = np.random.default_rng(8)
    for m, n in ((1, 1), (3, 2), (100, 2), (30, 100), (400, 784), (20, 400)):
        w, b = rng.normal(size=(m, n)), rng.normal(size=m)
        for k in (1, 3, 64):
            x = rng.normal(size=(k, n))
            block = affine(w, x, b)
            assert block.shape == (k, m)
            rows = np.array([affine(w, row, b) for row in x])
            assert np.all(np.abs(block - rows) <= 2 * affine_error_bound(w, x, b))


@pytest.mark.parametrize("sizes", [(784, 400, 400, 20), (2, 100, 100, 30, 2)])
def test_affine_entries_match_an_fsum_reference(sizes):
    # Every entry against an independent per-entry math.fsum of the
    # products and the bias, within the dot-product error bound. A wrong
    # transpose (the 400 x 400 and 100 x 100 layers are square) or bias
    # broadcast is off by O(1), far outside it.
    rng = np.random.default_rng(len(sizes))
    for n, m in zip(sizes[:-1], sizes[1:]):
        w, b, x = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=(200, n))
        want, bound = ref_affine(w, x, b), affine_error_bound(w, x, b)
        assert np.all(np.abs(affine(w, x[0], b) - want[0]) <= bound[0])
        for k in (1, 2, 17, 200):
            got = affine(w, x[:k], b)
            assert got.shape == (k, m)
            assert np.all(np.abs(got - want[:k]) <= bound[:k])


def test_matmul_add_block_value_and_shape_errors():
    rng = np.random.default_rng(9)
    w, x, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=3)
    tape = Tape()
    rw, rb = tape.leaf(w), tape.leaf(b)
    out = tape.matmul_add(rw, tape.leaf(x), rb)
    assert np.array_equal(tape.value(out), affine(w, x, b))
    with pytest.raises(ShapeError, match="input"):
        tape.matmul_add(rw, tape.leaf(np.ones((5, 3))), rb)
    with pytest.raises(ShapeError, match="input"):
        tape.matmul_add(rw, tape.leaf(np.ones((0, 0))), rb)


def test_matmul_add_block_gradients_match_fd():
    rng = np.random.default_rng(10)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=(5, 4))
    b = rng.normal(size=3)

    def run(w_, x_, b_):
        # tanh readout, so every output entry gets its own upstream gradient
        tape = Tape()
        rw, rx, rb = tape.leaf(w_), tape.leaf(x_), tape.leaf(b_)
        out = tape_sum(tape, [tape.tanh(tape.matmul_add(rw, rx, rb))])
        return tape, (rw, rx, rb), out

    tape, refs, out = run(w, x, b)
    grads = tape.backward(out)
    for ref, arr, idx in ((refs[0], w, 0), (refs[1], x, 1), (refs[2], b, 2)):
        def f(a, idx=idx):
            parts = [w, x, b]
            parts[idx] = a
            t, _, o = run(*parts)
            return float(t.value(o))

        assert np.allclose(grads[ref], fd_gradient(f, arr), atol=1e-7)


def test_matmul_add_constant_input_gets_no_gradient():
    # the first layer's input is the raw-feature block, a constant: its
    # input gradient is never formed, and the weight and bias gradients are
    # bitwise those of the same pass with a leaf input
    rng = np.random.default_rng(12)
    w1, b1 = rng.normal(size=(6, 4)), rng.normal(size=6)
    w2, b2 = rng.normal(size=(3, 6)), rng.normal(size=3)
    x = rng.normal(size=(5, 4))

    def run(as_leaf):
        tape = Tape()
        refs = [tape.leaf(a) for a in (w1, b1, w2, b2)]
        rx = tape.leaf(x) if as_leaf else tape.constant(x)
        h = tape.relu(tape.matmul_add(refs[0], rx, refs[1]))
        out = tape_sum(tape, [tape.tanh(tape.matmul_add(refs[2], h, refs[3]))])
        grads = tape.backward(out)
        return tape, rx, [grads[r] for r in refs]

    tape, rx, got = run(False)
    _, _, want = run(True)
    assert tape.grads[rx] is None and rx not in tape.leaf_refs
    assert all(g.tobytes() == h.tobytes() for g, h in zip(got, want))


@pytest.mark.parametrize("op,ref_fn", [
    ("relu", lambda v: np.maximum(v, 0.0)),
    ("tanh", np.tanh),
])
def test_elementwise_values(op, ref_fn):
    rng = np.random.default_rng(1)
    v = rng.normal(size=5)
    tape = Tape()
    out = getattr(tape, op)(tape.leaf(v))
    assert np.array_equal(tape.value(out), ref_fn(v))


@pytest.mark.parametrize("op", ["relu", "tanh"])
def test_elementwise_gradients_match_fd(op):
    rng = np.random.default_rng(2)
    v = rng.normal(size=5) + np.sign(rng.normal(size=5)) * 0.05  # keep away from 0

    def f(a):
        tape = Tape()
        return float(tape.value(tape_sum(tape, [getattr(tape, op)(tape.leaf(a))])))

    tape = Tape()
    ref = tape.leaf(v)
    grads = tape.backward(tape_sum(tape, [getattr(tape, op)(ref)]))
    assert np.allclose(grads[ref], fd_gradient(f, v), atol=1e-7)


def test_relu_subgradient_at_zero_is_zero():
    tape = Tape()
    ref = tape.leaf([0.0, -1.0, 2.0])
    grads = tape.backward(tape_sum(tape, [tape.relu(ref)]))
    assert np.array_equal(grads[ref], [0.0, 0.0, 1.0])


# The tape has no distance op: the soft path's loss head computes its
# distances with l2_value and carries their gradient, through (q - c) / d,
# in closed form. These tests read the head off a block, with the traces
# fixed, so central differences see the distances alone move.

def _head_case(points, labels, query):
    """Identity tree over `points`: the root, then every other point as a
    child of the root (whose label no child shares). Returns the query's trace, its embed_paths block
    and rows."""
    tree = new_tree(Sample(points[0], labels[0]), class_count=max(labels) + 1)
    for p, y in zip(points[1:], labels[1:]):
        tree.add_child(0, Sample(p, y))
    pt = greedy_path(tree, None, query)
    _, walked, rows = embed_paths(Tape(), [pt])
    return pt, walked, rows


def _head_value(pt, rows, label):
    return lambda block: float(loss_head(block, rows, [pt], [label]).value)


def test_l2_distance_value_matches_norm():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=6), rng.normal(size=(3, 6))
    assert math.isclose(float(l2_value(a, b[0])), float(np.linalg.norm(a - b[0])), rel_tol=1e-12)
    assert np.allclose(l2_value(a, b), np.linalg.norm(a - b, axis=1), rtol=1e-12)
    # the head's distances are the kernel's
    pt, block, rows = _head_case(rng.normal(size=(4, 6)), [0, 1, 2, 1], a)
    head = loss_head(block, rows, [pt], [pt.tree.nodes[pt.final].label])
    assert np.array_equal(head.distances[0], l2_value(a, block[rows[0]]))


def test_l2_distance_gradients_match_fd():
    rng = np.random.default_rng(4)
    for trial in range(6):
        pt, block, rows = _head_case(rng.normal(size=(5, 4)), [0, 1, 2, 1, 2], rng.normal(size=4))
        label = pt.tree.nodes[pt.final].label  # the final node is aggregated: no miss
        head = loss_head(block, rows, [pt], [label])
        assert head.misses == 0
        assert np.allclose(head.grad, fd_gradient(_head_value(pt, rows, label), block), atol=1e-7)


def test_l2_distance_zero_guard():
    # the query sits on the root and stays there: that distance is 0, its
    # subgradient is zero, and the child's pair alone moves the query row
    v = np.array([1.0, 2.0])
    pt, block, rows = _head_case(np.array([v, [3.0, 0.0]]), [0, 1], v.copy())
    head = loss_head(block, rows, [pt], [0])
    assert head.distances[0][0] < DISTANCE_EPS
    assert np.array_equal(head.grad[rows[0][0]], np.zeros(2))
    assert np.all(np.isfinite(head.grad)) and np.any(head.grad[0] != 0.0)


@pytest.mark.parametrize("dim", [2, 784])
def test_l2_rows_bitwise_equal_per_row_and_tape(dim):
    # Traversal gathers candidate rows out of a larger matrix and takes all
    # their distances in one call; each must equal the rank-1 kernel and a
    # plain per-row sum to the bit. The loss head calls the same kernel
    # over the block rows.
    rng = np.random.default_rng(40 + dim)
    matrix = rng.normal(size=(64, dim)) * 10.0 ** rng.integers(-3, 4, size=(64, 1))
    for k in range(1, 41):
        ids = sorted(rng.choice(len(matrix), size=k, replace=False).tolist())
        y = rng.normal(size=dim)
        rows = l2_value(y, matrix[ids])
        assert rows.shape == (k,)
        for j, i in enumerate(ids):
            diff = y - matrix[i]
            plain = np.sqrt(np.sum(diff * diff))
            assert rows[j] == plain == l2_value(y, matrix[i])


def test_l2_distance_row_block_values_and_gradients_match_fd():
    # One distance per candidate row, each the rank-1 kernel's. The query
    # sits exactly on candidate 2 (a leaf): its subgradient is zero, which
    # is also what central differences of a norm at zero give.
    rng = np.random.default_rng(12)
    points = rng.normal(size=(5, 4))
    pt, block, rows = _head_case(points, [2, 1, 0, 1, 1], points[2].copy())
    assert pt.final == 2
    head = loss_head(block, rows, [pt], [0])
    d = head.distances[0]
    assert d.shape == (5,) and d[2] == 0.0
    assert all(d[j] == l2_value(block[0], block[r]) for j, r in enumerate(rows[0]))
    assert np.array_equal(head.grad[rows[0][2]], np.zeros(4))
    assert np.allclose(head.grad, fd_gradient(_head_value(pt, rows, 0), block), atol=1e-7)


def test_log_softmax_values_match_oracle_and_normalize():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dists = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 8)))
        logps = neg_dist_log_softmax_value(dists)
        assert abs(np.exp(logps).sum() - 1.0) < 1e-12
        assert np.allclose(np.exp(logps), softmax_neg(dists), atol=1e-12)


def test_log_softmax_shift_invariance():
    dists = np.array([0.5, 1.5, 3.0])
    shifted = np.exp(neg_dist_log_softmax_value(dists + 100.0))
    assert np.allclose(shifted, softmax_neg(dists), atol=1e-10)


def test_log_softmax_rejects_empty():
    with pytest.raises(ValueError):
        neg_dist_log_softmax_value(np.zeros(0))


def test_backward_requires_scalar_loss():
    tape = Tape()
    ref = tape.leaf(np.ones(3))
    with pytest.raises(ShapeError):
        tape.backward(ref)


def test_backward_accumulates_across_reuse():
    tape = Tape()
    ref = tape.leaf(2.0)
    out = tape_sum(tape, [ref, ref, ref, tape_sum(tape, [ref, ref])])  # 3x + 2x -> grad 5
    grads = tape.backward(out)
    assert float(grads[ref]) == 5.0


def test_backward_zeros_for_unreachable_leaves():
    tape = Tape()
    used = tape.leaf(3.0)
    unused = tape.leaf(np.ones((2, 2)))
    out = tape_sum(tape, [used], [6.0])
    grads = tape.backward(out)
    assert np.array_equal(grads[unused], np.zeros((2, 2)))
    assert float(grads[used]) == 6.0


def test_grad_check_accepts_correct_gradients():
    def build_loss(tape, refs):
        return tape_sum(tape, [tape.tanh(refs[0])])

    worst = grad_check(build_loss, [np.array([1.0, -2.0, 0.5])])
    assert worst < 1e-8


def test_grad_check_rejects_bad_step_and_nonfinite_loss():
    with pytest.raises(ValueError):
        grad_check(lambda t, r: r[0], [np.array(1.0)], step=0.0)

    def exploding(tape, refs):
        return tape_sum(tape, refs, [math.inf])

    with pytest.raises(FloatingPointError):
        grad_check(exploding, [np.array(1.0)])
