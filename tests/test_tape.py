"""The step record's written-out backward against central differences; the
distance kernel (boundary_tree.l2_value), the log-softmax
(soft_path._log_mass over an all-true mask), and the loss head's distance
gradient."""

import math

import numpy as np
import pytest

from betree import Sample, embed_paths, greedy_path, loss_head, new_tree
from betree.boundary_tree import DISTANCE_EPS, l2_value
from betree.soft_path import _log_mass
from betree.tape import Tape
from betree.transform import MlpArchitecture, ParameterSet, affine, embed, forward, init_params
from oracles import fd_gradient, softmax_neg


def _chain_case(activation, k, seed, sizes=(3, 5, 4, 2)):
    """(params, raw block of k rows, upstream gradient g) for an MLP of
    `sizes`; the relu case keeps every pre-activation at least 0.05 from 0,
    so the finite differences never cross a kink."""
    rng = np.random.default_rng(seed)
    params = init_params(MlpArchitecture(sizes, activation), seed)
    for _ in range(1000):
        x = rng.normal(size=(k, sizes[0]))
        h, far = x, True
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            pre = h @ w.T + b
            far &= bool(np.min(np.abs(pre)) > 0.05)
            h = np.maximum(pre, 0.0) if activation == "relu" else np.tanh(pre)
        if far or activation == "tanh":
            return params, x, rng.normal(size=(k, sizes[-1]))
    raise AssertionError(f"no relu case away from the kinks for {sizes} with {k} rows")


def _check_backward_against_fd(params, x, g):
    tape = Tape()
    out = forward(tape, params, x)
    assert out.tobytes() == embed(params, x).tobytes()
    assert len(tape) == params.arch.n_layers and tape.inputs[0].tobytes() == x.tobytes()
    grads = tape.backward(g)

    def f(flat):
        return float(np.sum(g * embed(ParameterSet(params.arch, flat), x)))

    assert np.allclose(grads.flat, fd_gradient(f, params.flat), atol=1e-7)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("k", [1, 6])
def test_backward_matches_fd(activation, k):
    # the gradient of sum(g * output) in every parameter, on one row and on
    # a row block, against central differences of the plain embedding
    _check_backward_against_fd(*_chain_case(activation, k, 40 + k))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("sizes", [(3, 4, 2), (3, 6, 5, 4, 2)])
def test_backward_matches_fd_at_other_depths(sizes, k, activation):
    # one hidden layer (the activation's gradient taken once) and four (it
    # is chained through three weights)
    _check_backward_against_fd(*_chain_case(activation, k, 80 + k + len(sizes), sizes))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_recorded_blocks_are_the_layer_activations(activation):
    # each recorded block above the raw one is the activation of the affine
    # kernel over the block below, bitwise; the output layer is linear
    params, x, _ = _chain_case(activation, 4, 45)
    tape = Tape()
    out = forward(tape, params, x)
    act = (lambda z: np.maximum(z, 0.0)) if activation == "relu" else np.tanh
    for i in range(params.arch.n_layers - 1):
        pre = affine(params.weights[i], tape.inputs[i], params.biases[i])
        assert tape.inputs[i + 1].tobytes() == act(pre).tobytes()
    assert out.tobytes() == affine(params.weights[-1], tape.inputs[-1], params.biases[-1]).tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backward_is_linear_in_g(activation):
    # the chain's backward is a linear map of g at fixed activations: a
    # combination of two g's gives that combination of their gradients to
    # rounding, and a zero g gives exact zeros
    params, x, g1 = _chain_case(activation, 5, 47)
    g2 = np.random.default_rng(48).normal(size=g1.shape)
    tape = Tape()
    forward(tape, params, x)
    mixed = tape.backward(2.0 * g1 - 3.0 * g2).flat
    want = 2.0 * tape.backward(g1).flat - 3.0 * tape.backward(g2).flat
    assert np.allclose(mixed, want, rtol=1e-12, atol=1e-12)
    assert np.any(want != 0.0)
    assert not np.any(tape.backward(np.zeros_like(g1)).flat)


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (6,)])
def test_backward_rejects_a_gradient_of_another_shape(shape):
    # the output block is (3, 2): more rows, another width and a flat
    # vector of its size are all refused, by name
    params, x, _ = _chain_case("relu", 3, 49)
    tape = Tape()
    forward(tape, params, x)
    with pytest.raises(ValueError, match="backward"):
        tape.backward(np.ones(shape))


def test_backward_before_any_forward_raises():
    with pytest.raises(ValueError, match="backward: nothing recorded"):
        Tape().backward(np.ones((1, 2)))


def test_relu_pre_activation_of_zero_takes_the_zero_subgradient():
    # hidden unit 0's pre-activation is exactly 0 for the row; unit 1's is
    # positive. Through unit 0 nothing moves; through unit 1 the weights do.
    arch = MlpArchitecture((2, 2, 1))
    params = ParameterSet(arch, np.zeros(arch.n_params))
    params.weights[0][...] = [[1.0, 1.0], [1.0, 0.0]]
    params.weights[1][...] = [[1.0, 1.0]]
    tape = Tape()
    forward(tape, params, np.array([[1.0, -1.0]]))
    assert tape.inputs[1].tolist() == [[0.0, 1.0]]
    grads = tape.backward(np.ones((1, 1)))
    assert grads.weights[0].tolist() == [[0.0, 0.0], [1.0, -1.0]]
    assert grads.biases[0].tolist() == [0.0, 1.0]


class _Unreadable:
    """Stands in for a weight that must not be read: numpy's conversion of
    it raises."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("the first layer's weight was read")


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_first_layer_computes_no_input_gradient(activation):
    # the raw block gets no gradient, so the backward never multiplies by
    # the first layer's weight; the result is unchanged without it
    params, x, g = _chain_case(activation, 4, 50)
    tape = Tape()
    forward(tape, params, x)
    want = tape.backward(g).flat.tobytes()
    tape.params = ParameterSet(params.arch, params.flat)
    tape.params.weights[0] = _Unreadable()
    assert tape.backward(g).flat.tobytes() == want


def test_gradient_lands_in_the_returned_vectors_views_and_is_never_aliased():
    # each layer's weight product and bias sum are written into views of one
    # fresh vector, bitwise the plain expressions; a later step's backward
    # returns another vector and leaves the earlier one alone
    params, x, g = _chain_case("tanh", 5, 60)
    tape = Tape()
    forward(tape, params, x)
    grads = tape.backward(g)
    for gw, gb in zip(grads.weights, grads.biases):
        assert np.shares_memory(gw, grads.flat) and np.shares_memory(gb, grads.flat)
    want, up = [], g
    for i in range(params.arch.n_layers - 1, -1, -1):
        h = tape.inputs[i]
        want[:0] = [(up.T @ h).ravel(), up.sum(axis=0)]
        if i:
            up = (up @ params.weights[i]) * (1.0 - h * h)
    assert grads.flat.tobytes() == np.concatenate(want).tobytes()

    kept = grads.flat.copy()
    later = Tape()
    forward(later, params, x[::-1])
    other = later.backward(g[::-1])
    again = tape.backward(g)
    for vec in (other.flat, again.flat):
        assert not np.shares_memory(vec, grads.flat)
    assert grads.flat.tobytes() == kept.tobytes() == again.flat.tobytes()


def test_forward_records_one_block_per_layer_afresh():
    # a second forward on the same tape replaces the record, output too
    params, x, _ = _chain_case("relu", 3, 70)
    tape = Tape()
    forward(tape, params, x)
    out = forward(tape, params, x[:1])
    assert len(tape) == params.arch.n_layers
    assert [len(h) for h in tape.inputs] == [1] * params.arch.n_layers
    assert tape.output is out and len(out) == 1


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backward_over_rows_is_the_backward_of_a_record_of_those_rows(activation):
    # the backward over some rows of the record (in any order, repeats
    # included) gathers each layer's rows once: bitwise the backward of a
    # record holding only those rows, and zero-padding g to every row
    # gives the same gradient to rounding
    params, x, _ = _chain_case(activation, 9, 75, (3, 6, 5, 2))
    tape = Tape()
    forward(tape, params, x)
    g = np.random.default_rng(76).normal(size=(5, 2))
    for rows in ([8, 0, 3, 4, 1], [2, 2, 7, 0, 2]):
        grads = tape.backward(g, rows)
        gathered = Tape()
        gathered.params, gathered.inputs = params, [h[rows] for h in tape.inputs]
        assert grads.flat.tobytes() == gathered.backward(g).flat.tobytes()
        padded = np.zeros((9, 2))
        np.add.at(padded, rows, g)
        assert np.allclose(grads.flat, tape.backward(padded).flat, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="backward: gradient shape"):
        tape.backward(g, [0, 1, 2])


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
    _, walked, rows = embed_paths([pt])
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


def _log_softmax(dists):
    """log softmax(-d) and softmax(-d) through _log_mass over an all-true
    mask."""
    neg = -dists
    lse, p = _log_mass(neg, np.ones(len(neg), dtype=bool))
    return neg - lse, p


def test_log_softmax_values_match_oracle_and_normalize():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dists = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 8)))
        logps, p = _log_softmax(dists)
        assert abs(np.exp(logps).sum() - 1.0) < 1e-12
        assert np.allclose(np.exp(logps), softmax_neg(dists), atol=1e-12)
        assert np.allclose(p, softmax_neg(dists), atol=1e-12)


def test_log_softmax_shift_invariance():
    dists = np.array([0.5, 1.5, 3.0])
    shifted = np.exp(_log_softmax(dists + 100.0)[0])
    assert np.allclose(shifted, softmax_neg(dists), atol=1e-10)


def test_log_softmax_rejects_empty():
    with pytest.raises(ValueError):
        _log_softmax(np.zeros(0))
