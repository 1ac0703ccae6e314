"""Shared generators for random trees and general-position test cases, and
the finite-difference check of a gradient step."""

import math

import numpy as np

from betree import (
    MlpArchitecture,
    ParameterSet,
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


# The most draws random_tree and general_position_case take before they
# fail. Across the suite they need at most 36 and 49; the cap turns a defect
# that rejects every draw into a failure instead of an endless loop.
MAX_DRAWS = 500


def random_tree(rng, n_range=(3, 10), dim=3, class_count=3, embedder=None,
                max_children=None):
    """Boundary tree from a random sample stream, retried until the node
    count lands in n_range (at most MAX_DRAWS draws)."""
    emb = embedder if embedder is not None else identity_embedder()
    lo, hi = n_range
    for _ in range(MAX_DRAWS):
        n_feed = int(rng.integers(hi, 3 * hi + 1))
        tree = build_tree(random_samples(rng, n_feed, dim, class_count), emb,
                          max_children, class_count)
        if lo <= len(tree) <= hi:
            return tree
    raise AssertionError(f"no tree of {lo}-{hi} nodes in {MAX_DRAWS} draws")


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
    sampled until the loss is differentiable at the configuration (at most
    MAX_DRAWS draws)."""
    for _ in range(MAX_DRAWS):
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
    raise AssertionError(f"no case in general position in {MAX_DRAWS} draws")


def fd_max_rel_error(tree, params, samples, step=1e-5):
    """Max relative disagreement between loss_and_grad's gradient and
    central differences of its value, over every parameter but the
    last-layer bias. That bias shifts every embedding together, so the loss
    is flat along it and callers check its gradient analytically. Each probe
    is a fresh loss_and_grad at ParameterSet(arch, flat +/- step e_k), so
    the numeric side never trusts the backward."""
    _, grads, _ = loss_and_grad(tree, params, samples)
    arch = params.arch
    worst = 0.0
    for k in range(arch.n_params - arch.out_dim):
        values = []
        for delta in (step, -step):
            flat = params.flat.copy()
            flat[k] += delta
            values.append(loss_and_grad(tree, ParameterSet(arch, flat), samples)[0])
        assert all(math.isfinite(v) for v in values), f"non-finite loss {values}"
        numeric = (values[0] - values[1]) / (2.0 * step)
        a = float(grads.flat[k])
        worst = max(worst, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
    return worst
