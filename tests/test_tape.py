"""Tape engine: forward values, vjps against central differences, clamps,
shape validation, and the backward sweep."""

import math

import numpy as np
import pytest

from betree.tape import (
    DISTANCE_EPS,
    LOG_FLOOR,
    LOG_FLOOR_VALUE,
    ShapeError,
    Tape,
    affine,
    grad_check,
    l2_value,
    neg_dist_log_softmax_value,
)
from helpers import tape_sum
from oracles import fd_gradient, softmax_neg


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


def test_affine_block_rows_equal_one_row_calls_bitwise():
    rng = np.random.default_rng(8)
    for m, n in ((1, 1), (3, 2), (100, 2), (30, 100), (400, 784), (20, 400)):
        w, b = rng.normal(size=(m, n)), rng.normal(size=m)
        for k in (1, 3, 64):
            x = rng.normal(size=(k, n))
            block = affine(w, x, b)
            assert block.shape == (k, m)
            assert block.tobytes() == np.array([w @ row + b for row in x]).tobytes()


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


def test_take_rows_value_and_gradient():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3))
    tape = Tape()
    rx = tape.leaf(x)
    first, rest = tape.take(rx, 0), tape.take(rx, slice(1, None))
    assert np.array_equal(tape.value(first), x[0]) and np.array_equal(tape.value(rest), x[1:])
    grads = tape.backward(tape_sum(tape, [first, rest], [2.0, -1.0]))
    assert np.array_equal(grads[rx], np.array([[2.0] * 3] + [[-1.0] * 3] * 3))
    with pytest.raises(ShapeError):
        tape.take(tape.leaf(np.ones(3)), 0)


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


def test_take_row_list_values_gradient_and_validation():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 3))
    order, run = [4, 0, 5], [2, 3, 4]
    tape = Tape()
    rx = tape.leaf(x)
    picked, ran = tape.take(rx, order), tape.take(rx, run)
    assert np.array_equal(tape.value(picked), x[order])
    assert np.array_equal(tape.value(ran), x[2:5])
    grads = tape.backward(tape_sum(tape, [tape.tanh(picked), ran], [1.0, 3.0]))

    def f(a):
        t = Tape()
        ra = t.leaf(a)
        return float(t.value(tape_sum(t, [t.tanh(t.take(ra, order)), t.take(ra, run)], [1.0, 3.0])))

    assert np.allclose(grads[rx], fd_gradient(f, x), atol=1e-7)
    for bad in ([1, 3, 1], [6], [-1]):
        with pytest.raises(ShapeError, match="take"):
            tape.take(rx, bad)


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


def test_l2_distance_value_matches_norm():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=6), rng.normal(size=6)
    tape = Tape()
    d = tape.l2_distance(tape.leaf(a), tape.leaf(b))
    assert math.isclose(float(tape.value(d)), float(np.linalg.norm(a - b)), rel_tol=1e-12)
    assert float(tape.value(d)) == float(l2_value(a, b))


def test_l2_distance_gradients_match_fd():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=4), rng.normal(size=4)

    def f_a(a_):
        tape = Tape()
        return float(tape.value(tape.l2_distance(tape.leaf(a_), tape.leaf(b))))

    tape = Tape()
    ra, rb = tape.leaf(a), tape.leaf(b)
    grads = tape.backward(tape.l2_distance(ra, rb))
    assert np.allclose(grads[ra], fd_gradient(f_a, a), atol=1e-7)
    assert np.allclose(grads[rb], -grads[ra])


def test_l2_distance_zero_guard():
    v = np.array([1.0, 2.0])
    tape = Tape()
    ra, rb = tape.leaf(v), tape.leaf(v.copy())
    d = tape.l2_distance(ra, rb)
    assert float(tape.value(d)) < DISTANCE_EPS
    grads = tape.backward(d)
    assert np.array_equal(grads[ra], np.zeros(2))
    assert np.all(np.isfinite(grads[rb]))


@pytest.mark.parametrize("dim", [2, 784])
def test_l2_rows_bitwise_equal_per_row_and_tape(dim):
    # Traversal gathers candidate rows out of a larger matrix and takes all
    # their distances in one call; each must equal the rank-1 kernel, a
    # plain per-row sum, and the tape op on the same pair, to the bit.
    rng = np.random.default_rng(40 + dim)
    matrix = rng.normal(size=(64, dim)) * 10.0 ** rng.integers(-3, 4, size=(64, 1))
    for k in range(1, 41):
        ids = sorted(rng.choice(len(matrix), size=k, replace=False).tolist())
        y = rng.normal(size=dim)
        rows = l2_value(y, matrix[ids])
        assert rows.shape == (k,)
        tape = Tape()
        y_ref = tape.constant(y)
        for j, i in enumerate(ids):
            diff = y - matrix[i]
            plain = np.sqrt(np.sum(diff * diff))
            via_tape = tape.value(tape.l2_distance(y_ref, tape.constant(matrix[i])))
            assert rows[j] == plain == l2_value(y, matrix[i]) == via_tape


def test_l2_distance_row_block_values_and_gradients_match_fd():
    # One distance per row, each the rank-1 kernel's. Row 2 sits exactly on
    # the query: its subgradient is zero, which is also what central
    # differences of a norm at zero give.
    rng = np.random.default_rng(12)
    a = rng.normal(size=4)
    b = rng.normal(size=(5, 4))
    b[2] = a

    def run(a_, b_):
        tape = Tape()
        ra, rb = tape.leaf(a_), tape.leaf(b_)
        d = tape.l2_distance(ra, rb)
        return tape, ra, rb, d, tape_sum(tape, [tape.tanh(d)])

    tape, ra, rb, d, out = run(a, b)
    dv = tape.value(d)
    assert dv.shape == (5,) and dv[2] == 0.0
    assert all(dv[i] == l2_value(a, b[i]) for i in range(5))
    grads = tape.backward(out)
    assert np.array_equal(grads[rb][2], np.zeros(4))

    def total(a_, b_):
        t, *_, o = run(a_, b_)
        return float(t.value(o))

    assert np.allclose(grads[ra], fd_gradient(lambda a_: total(a_, b), a), atol=1e-7)
    assert np.allclose(grads[rb], fd_gradient(lambda b_: total(a, b_), b), atol=1e-7)


def test_l2_distance_shape_errors():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.l2_distance(tape.leaf(np.ones(2)), tape.leaf(np.ones(3)))
    with pytest.raises(ShapeError):
        tape.l2_distance(tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        tape.l2_distance(tape.leaf(np.ones(2)), tape.leaf(np.ones((4, 3))))


def test_log_softmax_values_match_oracle_and_normalize():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dists = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 8)))
        tape = Tape()
        out = tape.neg_dist_log_softmax(tape.leaf(dists))
        logps = np.array([float(tape.value(r)) for r in out])
        assert abs(np.exp(logps).sum() - 1.0) < 1e-12
        assert np.allclose(np.exp(logps), softmax_neg(dists), atol=1e-12)
        # the tape op and plain path probabilities share one kernel
        assert np.array_equal(logps, neg_dist_log_softmax_value(dists))


def test_log_softmax_shift_invariance():
    dists = np.array([0.5, 1.5, 3.0])
    base = softmax_neg(dists)
    tape = Tape()
    out = tape.neg_dist_log_softmax(tape.leaf(dists + 100.0))
    shifted = np.exp([float(tape.value(r)) for r in out])
    assert np.allclose(shifted, base, atol=1e-10)


def test_log_softmax_gradients_match_fd():
    rng = np.random.default_rng(6)
    dists = rng.uniform(0.5, 3.0, size=4)
    weights = rng.normal(size=4)  # random combination to touch every output

    def f(ds):
        tape = Tape()
        out = tape.neg_dist_log_softmax(tape.leaf(ds))
        return float(tape.value(tape_sum(tape, out, weights)))

    tape = Tape()
    ref = tape.leaf(dists)
    out = tape.neg_dist_log_softmax(ref)
    grads = tape.backward(tape_sum(tape, out, weights))
    analytic = grads[ref]
    assert np.allclose(analytic, fd_gradient(f, dists), atol=1e-7)


def test_log_softmax_rejects_empty():
    with pytest.raises(ValueError):
        tape = Tape()
        tape.neg_dist_log_softmax(tape.leaf(np.zeros(0)))


def test_scalar_ops_values_and_gradients():
    rng = np.random.default_rng(7)
    x, y = 1.3, -0.4

    def build(tape, rx, ry):
        # exp(x - y) - (-x)
        return tape.sub(tape.exp(tape.sub(rx, ry)), tape.neg(rx))

    tape = Tape()
    rx, ry = tape.leaf(x), tape.leaf(y)
    out = build(tape, rx, ry)
    expected = math.exp(x - y) + x
    assert math.isclose(float(tape.value(out)), expected, rel_tol=1e-12)
    grads = tape.backward(out)

    def f(arr):
        t = Tape()
        return float(t.value(build(t, t.leaf(arr[0]), t.leaf(arr[1]))))

    fd = fd_gradient(f, np.array([x, y]))
    assert np.allclose([float(grads[rx]), float(grads[ry])], fd, atol=1e-8)


def test_binary_op_shape_mismatch():
    tape = Tape()
    a, b = tape.leaf(np.ones(2)), tape.leaf(np.ones(3))
    with pytest.raises(ShapeError):
        tape.sub(a, b)


def test_log_clamps_below_floor():
    tape = Tape()
    ref = tape.leaf(0.0)
    out = tape.log(ref)
    assert float(tape.value(out)) == LOG_FLOOR_VALUE
    assert tape.nodes[out].clamped
    grads = tape.backward(out)
    assert float(grads[ref]) == 0.0


def test_log_above_floor_is_exact_with_gradient():
    tape = Tape()
    ref = tape.leaf(2.5)
    out = tape.log(ref)
    assert math.isclose(float(tape.value(out)), math.log(2.5), rel_tol=1e-15)
    assert not tape.nodes[out].clamped
    grads = tape.backward(out)
    assert math.isclose(float(grads[ref]), 1 / 2.5, rel_tol=1e-12)
    assert LOG_FLOOR == 1e-30


def test_sum_scalars_empty_and_singleton():
    tape = Tape()
    zero = tape.sum_scalars([])
    assert float(tape.value(zero)) == 0.0
    ref = tape.leaf(4.0)
    assert tape.sum_scalars([ref]) == ref


def test_sum_scalars_accumulates_and_distributes_gradient():
    tape = Tape()
    refs = [tape.leaf(v) for v in (1.0, 2.0, 3.5)]
    out = tape.sum_scalars(refs)
    assert float(tape.value(out)) == 6.5
    grads = tape.backward(out)
    assert all(float(grads[r]) == 1.0 for r in refs)


def test_backward_requires_scalar_loss():
    tape = Tape()
    ref = tape.leaf(np.ones(3))
    with pytest.raises(ShapeError):
        tape.backward(ref)


def test_backward_accumulates_across_reuse():
    tape = Tape()
    ref = tape.leaf(2.0)
    out = tape.sub(tape.sum_scalars([ref, ref, ref]),
                   tape.neg(tape.sum_scalars([ref, ref])))  # 3x + 2x -> grad 5
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
        return tape.exp(tape_sum(tape, refs, [1e6]))

    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        grad_check(exploding, [np.array(1.0)])
