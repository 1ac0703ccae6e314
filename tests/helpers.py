"""Shared generators for random trees and general-position test cases."""

import numpy as np

from betree import (
    MlpArchitecture,
    Sample,
    build_tree,
    identity_embedder,
    init_params,
    loss_and_grad,
    make_embedder,
    traverse,
)
from oracles import ref_mlp_forward, softmax_neg


def random_samples(rng, n, dim, class_count):
    return [Sample(rng.normal(size=dim), int(rng.integers(class_count))) for _ in range(n)]


def random_tree(rng, n_range=(3, 10), dim=3, class_count=3, embedder=None,
                max_children=None):
    """Boundary tree from a random sample stream, retried until the node
    count lands in n_range."""
    emb = embedder if embedder is not None else identity_embedder()
    lo, hi = n_range
    while True:
        n_feed = int(rng.integers(hi, 3 * hi + 1))
        tree = build_tree(random_samples(rng, n_feed, dim, class_count), emb,
                          max_children, class_count)
        if lo <= len(tree) <= hi:
            return tree


def in_general_position(tree, params, query, relu_margin=1e-3, dist_margin=1e-3,
                        min_prob=1e-10, max_loss=18.0, grad_floor=1e-5):
    """True when the loss is smooth and finite-difference checkable around
    this configuration: relu pre-activations and traversal distance gaps
    clear their margins, no distance sits near zero, the last decision's
    probabilities are away from underflow, and the true class carries real
    mass (no clamp).

    Central differences on a loss of size L carry rounding noise of order
    eps*L/step, so finite differences can only certify a coordinate whose
    gradient clears that floor or along which the loss is bitwise constant.
    The latter holds exactly for coordinates feeding relu units that are
    inactive for the query and every candidate node (their margin keeps them
    inactive under the probe step).  Reject any case with a live coordinate
    whose gradient magnitude is under grad_floor.  The last-layer bias is
    exempt: it shifts all embeddings together, so the loss is flat along it
    by construction and callers check its gradient analytically instead."""
    vectors = [query.features] + [n.sample.features for n in tree.nodes]
    for x in vectors:
        _, pres = ref_mlp_forward(params.weights, params.biases,
                                  params.arch.activation, x, return_pre=True)
        if any(np.min(np.abs(z)) < relu_margin for z in pres):
            return False
    trace = traverse(tree, make_embedder(params), query.features)
    for step in trace.steps:
        ds = np.sort(step.distances)
        if ds[0] < dist_margin:
            return False
        if len(ds) > 1 and ds[1] - ds[0] < dist_margin:
            return False
    if trace.steps and softmax_neg(trace.steps[-1].distances).min() < min_prob:
        return False
    value, grads, clamps = loss_and_grad(tree, params, query)
    if clamps != 0 or value > max_loss:
        return False

    embedded = {c for step in trace.steps for c in step.candidates}
    relevant = [query.features] + [tree.nodes[i].sample.features
                                   for i in sorted(embedded)]
    hidden_sizes = params.arch.layer_sizes[1:-1]
    if params.arch.activation == "relu":
        stacked = [np.array([ref_mlp_forward(params.weights, params.biases,
                                             "relu", x, return_pre=True)[1][l]
                             for x in relevant])
                   for l in range(len(hidden_sizes))]
        dead = [np.all(s < 0.0, axis=0) for s in stacked]
    else:
        dead = [np.zeros(h, dtype=bool) for h in hidden_sizes]
    no_dead_in = np.zeros(params.arch.layer_sizes[0], dtype=bool)
    no_dead_out = np.zeros(params.arch.layer_sizes[-1], dtype=bool)
    for l, gw in enumerate(grads.weights):
        out_dead = dead[l] if l < len(dead) else no_dead_out
        in_dead = dead[l - 1] if l >= 1 else no_dead_in
        live = ~(out_dead[:, None] | in_dead[None, :])
        if np.any(np.abs(gw)[live] < grad_floor):
            return False
    for l, gb in enumerate(grads.biases[:-1]):
        if np.any(np.abs(gb)[~dead[l]] < grad_floor):
            return False
    return True


def general_position_case(rng, n_range=(3, 10), out_dims=(2, 8)):
    """(tree, params, query) with a small relu MLP transform, rejection
    sampled until the loss is differentiable at the configuration."""
    while True:
        d_in = int(rng.integers(2, 6))
        d_out = int(rng.integers(out_dims[0], out_dims[1] + 1))
        hidden = int(rng.integers(3, 9))
        class_count = int(rng.integers(2, 4))
        arch = MlpArchitecture((d_in, hidden, d_out))
        params = init_params(arch, int(rng.integers(1 << 31)))
        n_feed = int(rng.integers(n_range[1], 3 * n_range[1]))
        tree = build_tree(random_samples(rng, n_feed, d_in, class_count),
                          make_embedder(params), None, class_count)
        if not n_range[0] <= len(tree) <= n_range[1]:
            continue
        query = Sample(rng.normal(size=d_in), int(rng.integers(class_count)))
        if in_general_position(tree, params, query):
            return tree, params, query


def bind_as_leaves(tape, arch, weight_refs, bias_refs):
    """ParameterSet whose tape bindings are existing leaf refs, so grad_check
    can differentiate the full pipeline with respect to them. Those leaves
    have no gradient destination, so the binding's gradient vector only
    receives copies (see collect_param_grads)."""
    from betree.transform import ParameterSet

    pairs = list(zip(weight_refs, bias_refs))
    params = ParameterSet(arch, np.concatenate([np.ravel(tape.value(r)) for pair in pairs for r in pair]))
    tape.bound_params[id(params)] = pairs, ParameterSet(arch, np.zeros(arch.n_params))
    return params


def tape_sum(tape, refs, weights=None):
    """One scalar node holding sum_i weights[i] * sum(value of refs[i])
    (weights default to 1): the scalar reduction grad checks need, since
    the tape itself only sums scalars."""
    weights = [1.0] * len(refs) if weights is None else list(weights)
    values = [tape.value(r) for r in refs]
    total = np.float64(sum(w * np.sum(v) for w, v in zip(weights, values)))

    def vjp(g):
        return tuple(np.full(np.shape(v), g * w) for w, v in zip(weights, values))

    return tape.push(total, tuple(refs), vjp)
