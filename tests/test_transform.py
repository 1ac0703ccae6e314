"""MLP transform: init, on/off-tape forward agreement, Adam, checkpoints."""

import math

import numpy as np
import pytest

from betree.tape import Tape
from betree.transform import (
    AdamState,
    CheckpointFormatError,
    MlpArchitecture,
    NonFiniteGradientError,
    ParameterSet,
    adam_step,
    bind_params,
    collect_param_grads,
    embed,
    forward,
    identity_embedder,
    init_params,
    load_checkpoint,
    make_embedder,
    save_checkpoint,
)
from helpers import tape_sum
from oracles import mlp_error_bound, ref_adam_step, ref_mlp_forward


def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture((5,))
    with pytest.raises(ValueError):
        MlpArchitecture((5, 0, 2))
    with pytest.raises(ValueError):
        MlpArchitecture((5, 3), activation="sigmoid")
    arch = MlpArchitecture((5, 4, 3))
    assert (arch.in_dim, arch.out_dim, arch.n_layers) == (5, 3, 2)


def test_init_params_shapes_and_he_scale():
    arch = MlpArchitecture((400, 300, 10))
    params = init_params(arch, 0)
    assert [w.shape for w in params.weights] == [(300, 400), (10, 300)]
    assert [b.shape for b in params.biases] == [(300,), (10,)]
    assert all(np.all(b == 0.0) for b in params.biases)
    measured = params.weights[0].std()
    assert abs(measured - math.sqrt(2.0 / 400)) < 0.05 * math.sqrt(2.0 / 400)


def test_init_params_deterministic():
    arch = MlpArchitecture((6, 5, 4))
    a, b = init_params(arch, 42), init_params(arch, 42)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert init_params(arch, 43).weights[0][0, 0] != a.weights[0][0, 0]


def test_parameter_set_rejects_wrong_shapes():
    arch = MlpArchitecture((3, 2))
    with pytest.raises(ValueError):
        ParameterSet(arch, np.zeros(6))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_embed_bitwise_and_oracle(activation):
    rng = np.random.default_rng(10)
    arch = MlpArchitecture((4, 7, 5, 3), activation)
    params = init_params(arch, 11)
    for _ in range(10):
        x = rng.normal(size=4)
        tape = Tape()
        on_tape = tape.value(forward(tape, params, x))
        off_tape = embed(params, x)
        assert np.array_equal(on_tape, off_tape)
        oracle = ref_mlp_forward(params.weights, params.biases, activation, x)
        assert np.allclose(off_tape, oracle, atol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("sizes", [(2, 100, 100, 30, 2), (784, 400, 400, 20)])
def test_block_rows_agree_with_per_row_embed_to_rounding(sizes, activation):
    # One affine kernel, a GEMM, for one row and for a row block. The same
    # block embeds bitwise alike off and on the tape; a block row and the
    # row's one-row embedding are two float evaluations of the MLP, so they
    # agree within twice its rounding bound.
    rng = np.random.default_rng(sum(sizes) + len(activation))
    params = init_params(MlpArchitecture(sizes, activation), 30)
    for k in (1, 2, 17, 200):
        block = rng.normal(size=(k, sizes[0]))
        rows = embed(params, block)
        assert rows.shape == (k, sizes[-1])
        tape = Tape()
        assert tape.value(forward(tape, params, block)).tobytes() == rows.tobytes()
        per_row = np.array([embed(params, x) for x in block])
        bound = mlp_error_bound(params.weights, params.biases, activation, block)
        assert np.all(np.abs(rows - per_row) <= 2 * bound)
    assert make_embedder(params)(block).tobytes() == rows.tobytes()


def test_forward_and_embed_validate_input_shape():
    params = init_params(MlpArchitecture((4, 3)), 0)
    with pytest.raises(ValueError):
        embed(params, np.ones(5))
    with pytest.raises(ValueError):
        forward(Tape(), params, np.ones(5))
    for bad in (np.ones((2, 5)), np.ones((2, 2, 4))):
        with pytest.raises(ValueError):
            embed(params, bad)
        with pytest.raises(ValueError):
            forward(Tape(), params, bad)


def test_block_forward_gradient_matches_per_row_forwards():
    # The block's GEMM weight gradient sums the rows' outer products in
    # another order, so it matches per-row forwards to rounding only.
    rng = np.random.default_rng(31)
    params = init_params(MlpArchitecture((3, 6, 4, 2), "tanh"), 32)
    block = rng.normal(size=(5, 3))

    # a tanh readout, so every output entry gets its own upstream gradient
    tape = Tape()
    out = tape_sum(tape, [tape.tanh(forward(tape, params, block))])
    got = collect_param_grads(tape, params, tape.backward(out))

    tape = Tape()
    out = tape_sum(tape, [tape.tanh(forward(tape, params, x)) for x in block])
    want = collect_param_grads(tape, params, tape.backward(out))
    assert np.allclose(got.flat, want.flat, rtol=1e-12, atol=1e-14)
    assert not np.array_equal(got.flat, np.zeros_like(got.flat))


def test_bind_params_reuses_leaves():
    params = init_params(MlpArchitecture((3, 4, 2)), 1)
    tape = Tape()
    refs1 = bind_params(tape, params)
    refs2 = bind_params(tape, params)
    assert refs1 is refs2


def test_gradients_accumulate_across_forwards_on_one_tape():
    rng = np.random.default_rng(12)
    params = init_params(MlpArchitecture((3, 5, 2)), 13)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)

    def single(x):
        tape = Tape()
        out = tape_sum(tape, [forward(tape, params, x)])
        return collect_param_grads(tape, params, tape.backward(out))

    tape = Tape()
    joint = tape_sum(tape, [forward(tape, params, x1), forward(tape, params, x2)])
    got = collect_param_grads(tape, params, tape.backward(joint))
    g1, g2 = single(x1), single(x2)
    for a, b, c in zip(got.weights, g1.weights, g2.weights):
        assert np.allclose(a, b + c, atol=1e-12)
    for a, b, c in zip(got.biases, g1.biases, g2.biases):
        assert np.allclose(a, b + c, atol=1e-12)


def test_embedder_stamps():
    p1 = init_params(MlpArchitecture((2, 2)), 0)
    p2 = init_params(MlpArchitecture((2, 2)), 0)
    e1, e2 = make_embedder(p1), make_embedder(p2)
    assert e1.cache_key != e2.cache_key  # distinct parameter sets
    ident = identity_embedder()
    assert ident.cache_key != e1.cache_key
    x = np.array([1.5, -2.0])
    assert np.array_equal(ident(x), x)
    assert np.array_equal(e1(x), embed(p1, x))


def _random_grads(rng, params):
    return ParameterSet(params.arch, rng.normal(size=params.arch.n_params))


def test_adam_step_matches_reference_formulas():
    rng = np.random.default_rng(14)
    params = init_params(MlpArchitecture((3, 4, 2)), 15)
    state = AdamState.fresh(params, lr=0.01, beta1=0.8, beta2=0.95, eps=1e-7)
    ref_w = [w.copy() for w in params.weights]
    ref_m = [np.zeros_like(w) for w in params.weights]
    ref_v = [np.zeros_like(w) for w in params.weights]
    for t in (1, 2, 3):
        grads = _random_grads(rng, params)
        new_params = adam_step(params, grads, state)
        for i in range(len(ref_w)):
            ref_w[i], ref_m[i], ref_v[i] = ref_adam_step(
                ref_w[i], grads.weights[i], ref_m[i], ref_v[i], t, 0.01, 0.8, 0.95, 1e-7)
            assert np.allclose(new_params.weights[i], ref_w[i], atol=1e-12)
        assert state.t == t
        params = new_params


def test_adam_step_is_bitwise_the_plain_expressions():
    # the scratch buffers keep every operation and its order
    rng = np.random.default_rng(18)
    params = init_params(MlpArchitecture((5, 7, 3)), 19)
    state = AdamState.fresh(params, lr=0.003, beta1=0.85, beta2=0.99, eps=1e-6)
    flat, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
    for t in range(1, 5):
        grads = _random_grads(rng, params)
        g = grads.flat
        m = 0.85 * m + (1.0 - 0.85) * g
        v = 0.99 * v + (1.0 - 0.99) * (g * g)
        flat = flat - 0.003 * (m / (1.0 - 0.85 ** t)) / (np.sqrt(v / (1.0 - 0.99 ** t)) + 1e-6)
        params = adam_step(params, grads, state)
        assert params.flat.tobytes() == flat.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_adam_step_leaves_inputs_untouched():
    rng = np.random.default_rng(16)
    params = init_params(MlpArchitecture((2, 3)), 17)
    before = [w.copy() for w in params.weights]
    flat_before = params.flat.tobytes()
    grads = _random_grads(rng, params)
    grads_before = grads.flat.tobytes()
    state = AdamState.fresh(params)
    new_params = adam_step(params, grads, state)
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, before))
    assert params.flat.tobytes() == flat_before
    assert grads.flat.tobytes() == grads_before
    assert new_params is not params
    assert not np.shares_memory(new_params.flat, params.flat)


def test_adam_step_aborts_on_nonfinite_gradient():
    params = init_params(MlpArchitecture((2, 2)), 0)
    state = AdamState.fresh(params)
    grads = _random_grads(np.random.default_rng(0), params)
    grads.weights[0][0, 0] = np.nan
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, grads, state)
    assert state.t == 0  # nothing advanced
    assert not state.m.any() and not state.v.any()


def test_adam_step_rejects_shape_mismatch():
    params = init_params(MlpArchitecture((2, 2)), 0)
    grads = ParameterSet(MlpArchitecture((3, 3)), np.zeros(12))
    with pytest.raises(ValueError):
        adam_step(params, grads, AdamState.fresh(params))


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = init_params(MlpArchitecture((5, 8, 8, 3)), 21)
    path = tmp_path / "net.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.arch.layer_sizes == (5, 8, 8, 3)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))


def test_checkpoint_is_header_then_parameter_vector(tmp_path):
    # bytes assembled here, independently of save_checkpoint: the v2 layout
    # names the activation; v1 bytes (no activation line) load as relu
    params = init_params(MlpArchitecture((4, 6, 3), "tanh"), 24)
    params.biases[0][:] = np.arange(6) - 2.5
    payload = b"".join(
        w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        for w, b in zip(params.weights, params.biases))
    path = tmp_path / "net.ckpt"
    save_checkpoint(params, path)
    assert path.read_bytes() == b"BETREE-CKPT v2\nactivation tanh\n6 4\n3 6\n" + payload
    assert load_checkpoint(path).arch == params.arch

    rng = np.random.default_rng(25)
    layers = [(rng.normal(size=(6, 4)), rng.normal(size=6)), (rng.normal(size=(3, 6)), rng.normal(size=3))]
    assembled = tmp_path / "assembled.ckpt"
    assembled.write_bytes(b"BETREE-CKPT v1\n6 4\n3 6\n" + b"".join(
        w.astype("<f8").tobytes() + b.astype("<f8").tobytes() for w, b in layers))
    loaded = load_checkpoint(assembled)
    assert loaded.arch == MlpArchitecture((4, 6, 3), "relu")
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])
    assert loaded.flat.tobytes() == flat.tobytes()
    loaded.flat[0] = 1.0  # writable, not a view of the file buffer
    assert loaded.weights[0][0, 0] == 1.0


def test_layer_arrays_are_views_of_the_flat_vector(tmp_path):
    params = init_params(MlpArchitecture((3, 5, 4, 2)), 26)
    save_checkpoint(params, tmp_path / "net.ckpt")
    loaded = load_checkpoint(tmp_path / "net.ckpt")
    tape = Tape()
    out = tape_sum(tape, [forward(tape, params, np.ones(3))])
    grad_map = tape.backward(out)
    grads = collect_param_grads(tape, params, grad_map)
    for (w_ref, b_ref), gw, gb in zip(bind_params(tape, params), grads.weights, grads.biases):
        assert np.array_equal(gw, grad_map[w_ref]) and np.array_equal(gb, grad_map[b_ref])
    stepped = adam_step(params, grads, AdamState.fresh(params))
    for p in (params, loaded, grads, stepped):
        assert p.flat.shape == (p.arch.n_params,)
        for i in range(p.arch.n_layers):
            assert np.shares_memory(p.weights[i], p.flat)
            assert np.shares_memory(p.biases[i], p.flat)


def test_checkpoint_preserves_ambiguous_looking_layers(tmp_path):
    # square layers everywhere: the payload-size rule must still find the
    # unique layer table
    params = init_params(MlpArchitecture((2, 2, 2, 2)), 3)
    path = tmp_path / "square.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.arch.layer_sizes == (2, 2, 2, 2)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"BETREE-CKPT v3\n2 2\n" + b"\x00" * 48)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("line", [b"activation sigmoid", b"activation", b"2 2", b"activation relu "])
def test_checkpoint_rejects_unknown_activation(tmp_path, line):
    path = tmp_path / "act.ckpt"
    path.write_bytes(b"BETREE-CKPT v2\n" + line + b"\n2 2\n" + b"\x00" * 48)
    with pytest.raises(CheckpointFormatError, match="activation"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    params = init_params(MlpArchitecture((3, 2)), 0)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_zero_width_layer(tmp_path):
    path = tmp_path / "zero.ckpt"
    path.write_bytes(b"BETREE-CKPT v1\n0 2\n")
    with pytest.raises(CheckpointFormatError, match="layer table line"):
        load_checkpoint(path)


def test_checkpoint_rejects_nonchaining_dims(tmp_path):
    path = tmp_path / "chain.ckpt"
    # layer table says outputs 2 wide, but the next layer wants 4 inputs
    payload = b"\x00" * ((2 * 3 + 2) * 8 + (2 * 4 + 2) * 8)
    path.write_bytes(b"BETREE-CKPT v1\n2 3\n2 4\n" + payload)
    with pytest.raises(CheckpointFormatError, match="chain"):
        load_checkpoint(path)


def test_all_finite_flags():
    params = init_params(MlpArchitecture((2, 2)), 0)
    assert params.all_finite()
    params.weights[0][0, 0] = np.inf
    assert not params.all_finite()
