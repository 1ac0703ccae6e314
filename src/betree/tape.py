"""Reverse-mode automatic differentiation over small dense float64 arrays.

One Tape records the computation for one gradient step: the MLP's affine
maps and activations over a row block (one row per embedded vector), then
the loss node that the soft path adds with push() and a closed-form vjp.
Node references are plain ints into an append-only arena, so parent links
always point backwards and the graph is topologically ordered by
construction; backward() is a single reverse sweep over the arena.

A Tape is strictly single-threaded. Distinct tapes may share read-only
input arrays.
"""

from __future__ import annotations

import math

import numpy as np

# Below this distance the L2 derivative is singular; gradients through a
# distance use the zero subgradient instead of dividing by ~0.
DISTANCE_EPS = 1e-12


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ x + b for a rank-1 `x`, or for each row of a rank-2 `x`.

    The single affine kernel, shared by the tape op and plain embedding:
    one GEMM, x @ w.T + b, for one row and for a row block alike. The BLAS
    kernel's summation order depends on the block's shape (and on the BLAS
    thread count), so a block row agrees with the one-row call only to
    rounding; a result that must be bitwise another's reuses its rows
    instead of embedding them again.
    """
    return x @ w.T + b


def l2_value(a: np.ndarray, b: np.ndarray):
    """Euclidean distance from a rank-1 `a` to `b`, or to each row of a
    rank-2 `b` (one distance per row).

    The single distance kernel, shared by the soft path's loss head and
    plain tree traversal: both must agree bitwise, and each row's sum runs
    over the same contiguous elements in the same order as the rank-1 case.
    The exact path of boundary_tree's hard decisions repeats this
    arithmetic, for a row block one candidate at a time in preallocated
    buffers.
    """
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def neg_dist_log_softmax_value(dists: np.ndarray) -> np.ndarray:
    """Log of softmax(-d) over a vector of distances, max-subtracted so
    large distances cannot underflow the normalizer.

    The log-softmax kernel of a traversal's path probability.
    """
    neg = -dists
    m = neg.max()
    return neg - (m + np.log(np.sum(np.exp(neg - m))))


class _Node:
    __slots__ = ("value", "parents", "vjp", "constant")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        # Maps the output gradient to one gradient per parent; None for a
        # parent that needs none.
        self.vjp = vjp
        self.constant = False


class Tape:
    """Append-only computation record with one gradient slot per node."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.leaf_refs: list[int] = []
        self.grads: list = []
        # ParameterSet id -> per-layer leaf refs; lets every forward pass on
        # this tape reuse the same parameter leaves (see transform.bind_params).
        self.bound_params: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def push(self, value, parents=(), vjp=None) -> int:
        """Record a node: `vjp` maps its output gradient to one gradient
        per parent (None for a parent that needs none)."""
        self.nodes.append(_Node(value, parents, vjp))
        return len(self.nodes) - 1

    def value(self, ref: int):
        return self.nodes[ref].value

    # ---- inputs ----------------------------------------------------------

    def leaf(self, array) -> int:
        """Register an input with a gradient slot reported by backward()."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"leaf: rank {arr.ndim} unsupported, expected rank 0..2")
        ref = self.push(arr)
        self.leaf_refs.append(ref)
        return ref

    def constant(self, array) -> int:
        """Register an input that never needs a reported gradient; ops may
        skip computing its input gradient."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"constant: rank {arr.ndim} unsupported, expected rank 0..2")
        ref = self.push(arr)
        self.nodes[ref].constant = True
        return ref

    # ---- array ops -------------------------------------------------------

    def matmul_add(self, w: int, x: int, b: int) -> int:
        """Affine map w @ x + b (see affine) with rank-2 w, rank-1 b, and a
        rank-1 x or a rank-2 row block x."""
        wv = self.nodes[w].value
        xv = self.nodes[x].value
        bv = self.nodes[b].value
        if wv.ndim != 2:
            raise ShapeError(f"matmul_add weight: expected rank 2, got shape {np.shape(wv)}")
        m, n = wv.shape
        if np.ndim(xv) not in (1, 2) or np.shape(xv)[-1] != n:
            raise ShapeError(f"matmul_add input: expected shape ({n},) or (k, {n}), got {np.shape(xv)}")
        if np.shape(bv) != (m,):
            raise ShapeError(f"matmul_add bias: expected shape ({m},), got {np.shape(bv)}")
        out = affine(wv, xv, bv)
        x_constant = self.nodes[x].constant

        def vjp(g):
            # One matrix product for the weight gradient of the whole block;
            # a constant input (the raw features) gets no gradient.
            g2 = np.atleast_2d(g)
            return g2.T @ np.atleast_2d(xv), None if x_constant else g @ wv, g2.sum(axis=0)

        return self.push(out, (w, x, b), vjp)

    def relu(self, x: int) -> int:
        xv = self.nodes[x].value
        out = np.maximum(xv, 0.0)

        def vjp(g):
            # subgradient 0 at exactly 0
            return (np.where(xv > 0.0, g, 0.0),)

        return self.push(out, (x,), vjp)

    def tanh(self, x: int) -> int:
        xv = self.nodes[x].value
        out = np.tanh(xv)

        def vjp(g):
            return (g * (1.0 - out * out),)

        return self.push(out, (x,), vjp)

    # ---- backward --------------------------------------------------------

    def backward(self, loss: int) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar loss node.

        Fills the per-node gradient slots and returns a map from every leaf
        ref to its gradient; leaves unreachable from the loss get zeros.
        """
        lnode = self.nodes[loss]
        if np.ndim(lnode.value) != 0:
            raise ShapeError(f"backward: loss must be scalar, got shape {np.shape(lnode.value)}")
        grads: list = [None] * len(self.nodes)
        grads[loss] = np.float64(1.0)
        for i in range(loss, -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = self.nodes[i]
            if node.vjp is None:
                continue
            for p, pg in zip(node.parents, node.vjp(g)):
                if pg is not None:
                    grads[p] = pg if grads[p] is None else grads[p] + pg
        self.grads = grads
        out = {}
        for ref in self.leaf_refs:
            g = grads[ref]
            out[ref] = np.zeros_like(self.nodes[ref].value) if g is None else g
        return out


def grad_check(build_loss, params: list[np.ndarray], step: float = 1e-5) -> float:
    """Max relative disagreement between backward() and central differences.

    `build_loss(tape, refs)` must deterministically assemble a scalar loss
    from one leaf ref per entry of `params`. The numeric side re-evaluates
    the loss at +/- step per coordinate, so it never trusts the tape's
    gradient rules.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    arrays = [np.asarray(p, dtype=np.float64) for p in params]

    def evaluate(arrs):
        tape = Tape()
        refs = [tape.leaf(a) for a in arrs]
        loss = build_loss(tape, refs)
        val = float(tape.value(loss))
        if not math.isfinite(val):
            raise FloatingPointError(f"grad_check: loss is non-finite ({val})")
        return tape, refs, loss, val

    tape, refs, loss, _ = evaluate(arrays)
    grad_map = tape.backward(loss)

    worst = 0.0
    for pi, arr in enumerate(arrays):
        analytic = np.asarray(grad_map[refs[pi]])
        for k in range(arr.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[pi].flat[k] += step
            minus[pi].flat[k] -= step
            _, _, _, f_plus = evaluate(plus)
            _, _, _, f_minus = evaluate(minus)
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic.flat[k]) if analytic.ndim else float(analytic)
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst
