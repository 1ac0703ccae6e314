"""Independent reference implementations used as test oracles.

Nothing here calls into betree's traversal, softmax, or gradient code; these
are deliberately separate (and differently structured) computations that the
library must agree with. ref_loss_head imports only betree's constants and
its LossHead record.
"""

import math

import numpy as np

from betree import MISS_LOSS, STOP_STAYED, LossHead
from betree.tape import DISTANCE_EPS


def softmax_neg(dists):
    """Softmax over negative distances, max-subtracted."""
    z = -np.asarray(dists, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def ref_mlp_forward(weights, biases, activation, x, return_pre=False):
    """Plain-loop MLP evaluation; hidden layers activated, last layer linear.

    With return_pre=True also returns the hidden pre-activation vectors
    (for general-position margin checks).
    """
    h = np.asarray(x, dtype=np.float64)
    pres = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = w @ h + b
        if i < last:
            pres.append(z)
            h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
        else:
            h = z
    return (h, pres) if return_pre else h


def ref_traverse(children, max_children, dist_of, current=0):
    """Recursive greedy traversal over a children table.

    children: list of child-id lists; dist_of(node_id) -> distance to the
    query. Candidates are the current node plus its children unless the node
    is at the fan-out bound; ties resolve to the lowest id via the (distance,
    id) sort key.
    """
    kids = children[current]
    if not kids:
        return current
    if max_children is not None and len(kids) >= max_children:
        cands = list(kids)
    else:
        cands = [current] + list(kids)
    best = min(cands, key=lambda c: (dist_of(c), c))
    if best == current:
        return current
    return ref_traverse(children, max_children, dist_of, best)


def ref_replay_build(samples, embed_fn, max_children=None):
    """Reference replay of online tree building: insert-on-error, greedy
    traversal per ref_traverse. samples: list of (features, label) pairs.

    Returns (labels, children, parents) describing the finished structure.
    """
    first_x, first_y = samples[0]
    embs = [np.asarray(embed_fn(np.asarray(first_x, dtype=np.float64)))]
    labels = [int(first_y)]
    children = [[]]
    parents = [-1]
    for x, y in samples[1:]:
        q = np.asarray(embed_fn(np.asarray(x, dtype=np.float64)))

        def dist_of(i):
            return float(np.linalg.norm(q - embs[i]))

        final = ref_traverse(children, max_children, dist_of)
        if labels[final] != int(y):
            embs.append(np.asarray(embed_fn(np.asarray(x, dtype=np.float64))))
            labels.append(int(y))
            children.append([])
            parents.append(final)
            children[final].append(len(labels) - 1)
    return labels, children, parents


def enumerate_traversals(children, max_children, dist_of, root=0):
    """All stochastic traversals of a tree with their probabilities.

    The walk at each node samples from softmax_neg over the candidate set;
    sampling the current node stops the walk, entering a childless node
    stops it too. Returns a list of (visited id tuple, probability); the
    probabilities sum to 1 because every walk terminates.
    """
    out = []

    def rec(node, seq, prob):
        kids = children[node]
        if not kids:
            out.append((seq, prob))
            return
        if max_children is not None and len(kids) >= max_children:
            cands = list(kids)
        else:
            cands = [node] + list(kids)
        probs = softmax_neg([dist_of(c) for c in cands])
        for c, p in zip(cands, probs):
            if c == node:
                out.append((seq, prob * p))
            else:
                rec(c, seq + (c,), prob * p)

    rec(root, (root,), 1.0)
    return out


def enumerated_class_expectation(traversals, labels, class_count):
    """Full-expectation class distribution: each terminated walk votes its
    final node's label with its probability."""
    dist = np.zeros(class_count)
    for seq, p in traversals:
        dist[labels[seq[-1]]] += p
    return dist


def ref_1nn(train_feats, train_labels, test_feats):
    """Brute-force 1-nearest-neighbor labels by Euclidean distance."""
    train_feats = np.asarray(train_feats, dtype=np.float64)
    out = []
    for q in np.asarray(test_feats, dtype=np.float64):
        d2 = np.sum((train_feats - q) ** 2, axis=1)
        out.append(int(train_labels[int(np.argmin(d2))]))
    return np.array(out)


def ref_init_params(layer_sizes, seed):
    """The flat He-Gaussian parameter vector by Generator.normal: per layer,
    rng.normal(0.0, sqrt(2/fan_in), (out, in)) row-major, then a zero bias."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        parts += [rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


def ref_adam_step(p, g, m, v, t, lr, beta1, beta2, eps):
    """Textbook bias-corrected Adam update for one tensor."""
    m2 = beta1 * m + (1 - beta1) * g
    v2 = beta2 * v + (1 - beta2) * g * g
    m_hat = m2 / (1 - beta1 ** t)
    v_hat = v2 / (1 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m2, v2


def fd_gradient(f, x, step=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[k] += step
        xm.flat[k] -= step
        g.flat[k] = (f(xp) - f(xm)) / (2 * step)
    return g


def gamma(n):
    """gamma_n = n u / (1 - n u), u = eps / 2: the relative error bound of
    an n-term float sum or dot product in any summation order."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1 - n * u)


def ref_affine(w, x, b):
    """w @ row + b for each row of `x`, entry by entry: math.fsum (correctly
    rounded) of the rounded products and the bias."""
    x = np.atleast_2d(x)
    wb = np.hstack([w, b[:, None]])
    xb = np.hstack([x, np.ones((len(x), 1))])
    return np.array([list(map(math.fsum, (wb * row).tolist())) for row in xb])


def ref_affine_entries(w, x, b, rows, cols):
    """ref_affine's entries at the pairs (rows[i], cols[i]) alone."""
    return np.array([math.fsum((w[j] * x[i]).tolist() + [b[j]]) for i, j in zip(rows, cols)])


def affine_error_bound(w, x, b):
    """Entrywise bound on the distance from any float evaluation of
    w @ row + b (any summation order, FMA included) to ref_affine's value:
    gamma_(n+1) (|x| |w|^T + |b|) for the evaluation, plus 2u of the same
    for the reference's rounded products and its final rounding, so
    gamma_(n+3) covers both."""
    return gamma(w.shape[1] + 3) * (np.abs(np.atleast_2d(x)) @ np.abs(w).T + np.abs(b))


def mlp_error_bound(weights, biases, activation, x):
    """Entrywise bound on the distance from any float evaluation of the MLP
    at the rows of `x` to the exact one. Layer by layer, with h this
    function's own computed input and e the bound on any evaluation's
    input (so within 2e of h),
      e' = gamma_(n+3) ((|h| + 2e) |W|^T + |b|) + e |W|^T,
    and relu and tanh are 1-Lipschitz, so e carries through them. Two
    evaluations differ by at most twice the result."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    e = np.zeros_like(h)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        aw = np.abs(w)
        e = gamma(w.shape[1] + 3) * ((np.abs(h) + 2 * e) @ aw.T + np.abs(b)) + e @ aw.T
        h = h @ w.T + b
        if i < last:
            h = np.maximum(h, 0.0) if activation == "relu" else np.tanh(h)
    return e


def _ref_l2(a, b):
    """Euclidean distance from a rank-1 `a` to each row of `b`, with the
    distance kernel's arithmetic (subtract, square, row sum, sqrt)."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def _ref_aggregation_mask(trace):
    """The aggregation set of one trace's last decision: every candidate
    after a stayed stop, all but the decision node after a leaf stop."""
    last = trace.decisions[-1]
    if trace.stop_mode == STOP_STAYED:
        return np.ones(len(last.candidates), dtype=bool)
    return np.array([c != last.node for c in last.candidates])


def _ref_log_mass(neg, mask):
    """logsumexp of a vector `neg` over `mask`, and the softmax of the
    masked entries (zero elsewhere)."""
    m = neg[mask].max()
    e = np.exp(neg - m, where=mask, out=np.zeros_like(neg))
    total = e.sum()
    return m + np.log(total), e / total


def ref_loss_head(block, rows, traces, labels):
    """The loss head computed one query at a time: the same inputs and
    LossHead as soft_path.loss_head, with each query's distances, masked
    logsumexps and gradient scatter taken on its own, in batch order. A
    structural miss takes an explicit branch (the full candidate softmax
    in place of the empty true-class one)."""
    grad = np.zeros_like(block)
    value = np.float64(0.0)
    distances, misses = [], 0
    for i, (t, r, y) in enumerate(zip(traces, rows, labels)):
        nodes = t.tree.nodes
        if not t.decisions:
            miss = nodes[t.final].label != y
            value += MISS_LOSS if miss else 0.0
            misses += int(miss)
            distances.append(None)
            continue
        d = _ref_l2(block[i], block[r])
        neg = -d
        agg = _ref_aggregation_mask(t)
        true = agg & np.array([nodes[c].label == y for c in t.decisions[-1].candidates])
        log_a, p_a = _ref_log_mass(neg, agg)
        if true.any():
            log_t, p_t = _ref_log_mass(neg, true)
            value += log_a - log_t
            g = p_t - p_a
        else:
            misses += 1
            log_all, p_all = _ref_log_mass(neg, np.ones_like(agg))
            value += MISS_LOSS + (log_a - log_all)
            g = p_all - p_a
        scale = np.divide(g, d, out=np.zeros_like(d), where=d >= DISTANCE_EPS)
        scaled = scale[:, None] * (block[i] - block[r])
        grad[i] += scaled.sum(axis=0)
        grad[r] -= scaled
        distances.append(d)
    return LossHead(value, grad, distances, misses)
