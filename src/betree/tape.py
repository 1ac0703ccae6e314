"""Reverse-mode automatic differentiation over small dense float64 arrays.

One Tape records the computation for one gradient step (one query or a
query batch); array ops take a single row or a row block (one row per
embedded vector). Node references are plain ints into an append-only arena,
so parent links always point backwards and the graph is topologically
ordered by construction; backward() is a single reverse sweep over the
arena.

A Tape is strictly single-threaded. Distinct tapes may share read-only
input arrays.
"""

from __future__ import annotations

import math

import numpy as np

# Below this distance the L2 derivative is singular; we use the zero
# subgradient instead of dividing by ~0.
DISTANCE_EPS = 1e-12

# Floor for log() inputs; turns log(0) into a large finite value.
LOG_FLOOR = 1e-30
LOG_FLOOR_VALUE = math.log(LOG_FLOOR)


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ x + b for a rank-1 `x`, or for each row of a rank-2 `x`.

    The single affine kernel, shared by the tape op and plain embedding. A
    row block goes through np.matmul as a stack of (n, 1) columns, which
    numpy evaluates as one matrix-vector product per row, so every row is
    bitwise equal to the one-row call. A GEMM over the block (x @ w.T) is
    not: it changes the last bits of nearly every row.
    """
    if x.ndim == 1:
        return w @ x + b
    return np.matmul(w, x[:, :, None])[:, :, 0] + b


def l2_value(a: np.ndarray, b: np.ndarray):
    """Euclidean distance from a rank-1 `a` to `b`, or to each row of a
    rank-2 `b` (one distance per row).

    The single distance kernel, shared by the tape op and plain tree
    traversal: both must agree bitwise, and each row's sum runs over the
    same contiguous elements in the same order as the rank-1 case.
    """
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def neg_dist_log_softmax_value(dists: np.ndarray) -> np.ndarray:
    """Log of softmax(-d) over a vector of distances, max-subtracted so
    large distances cannot underflow the normalizer.

    The single log-softmax kernel, shared by the tape op and the plain
    path probability of a traversal.
    """
    neg = -dists
    m = neg.max()
    return neg - (m + np.log(np.sum(np.exp(neg - m))))


class _Node:
    __slots__ = ("value", "parents", "vjp", "clamped", "constant")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        # Maps the output gradient to one gradient per parent; None for a
        # parent that needs none.
        self.vjp = vjp
        self.clamped = False
        self.constant = False


class Tape:
    """Append-only computation record with one gradient slot per node."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.leaf_refs: list[int] = []
        self.grads: list = []
        # Times the log floor fired for a value that fed the loss.
        self.clamp_events = 0
        # ParameterSet id -> per-layer leaf refs; lets every forward pass on
        # this tape reuse the same parameter leaves (see transform.bind_params).
        self.bound_params: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def _push(self, value, parents=(), vjp=None) -> int:
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
        ref = self._push(arr)
        self.leaf_refs.append(ref)
        return ref

    def constant(self, array) -> int:
        """Register an input that never needs a reported gradient; ops may
        skip computing its input gradient."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"constant: rank {arr.ndim} unsupported, expected rank 0..2")
        ref = self._push(arr)
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

        return self._push(out, (w, x, b), vjp)

    def relu(self, x: int) -> int:
        xv = self.nodes[x].value
        out = np.maximum(xv, 0.0)

        def vjp(g):
            # subgradient 0 at exactly 0
            return (np.where(xv > 0.0, g, 0.0),)

        return self._push(out, (x,), vjp)

    def tanh(self, x: int) -> int:
        xv = self.nodes[x].value
        out = np.tanh(xv)

        def vjp(g):
            return (g * (1.0 - out * out),)

        return self._push(out, (x,), vjp)

    def take(self, x: int, index) -> int:
        """Row `index` (an int) or rows `index` (a slice, or a list of
        distinct row numbers in output order) of a rank-2 node. A list that
        is one ascending run becomes a slice."""
        xv = self.nodes[x].value
        if np.ndim(xv) != 2:
            raise ShapeError(f"take: expected a rank-2 node, got shape {np.shape(xv)}")
        if isinstance(index, list):
            if len(set(index)) != len(index) or not all(0 <= i < len(xv) for i in index):
                # a repeated row would lose all but one of its gradients in
                # the vjp's full[index] = g
                raise ShapeError(f"take: rows {index} must be distinct and in [0, {len(xv)})")
            if index and index == list(range(index[0], index[0] + len(index))):
                index = slice(index[0], index[0] + len(index))
        out = xv[index]

        def vjp(g):
            full = np.zeros_like(xv)
            full[index] = g
            return (full,)

        return self._push(out, (x,), vjp)

    def l2_distance(self, a: int, b: int) -> int:
        """Euclidean distance from a rank-1 node `a` to a rank-1 node `b`
        (scalar output) or to each row of a rank-2 node `b` (one distance
        per row), with values from l2_value."""
        av = self.nodes[a].value
        bv = self.nodes[b].value
        if np.ndim(av) != 1 or np.ndim(bv) not in (1, 2) or np.shape(bv)[-1] != av.shape[0]:
            raise ShapeError(
                f"l2_distance: expected a rank-1 node and a rank-1 node or row block of equal "
                f"width, got {np.shape(av)} and {np.shape(bv)}"
            )
        d = l2_value(av, bv)

        def vjp(g):
            diff = av - bv
            scale = np.divide(g, d, out=np.zeros(np.shape(d)), where=d >= DISTANCE_EPS)
            scaled = scale[..., None] * diff
            return (scaled if bv.ndim == 1 else scaled.sum(axis=0)), -scaled

        return self._push(d, (a, b), vjp)

    # ---- scalar ops ------------------------------------------------------

    def neg_dist_log_softmax(self, dists: int) -> list[int]:
        """Log of softmax(-d) over a rank-1 node of candidate distances, with
        values from neg_dist_log_softmax_value. Returns one scalar ref per
        candidate, in order.
        """
        d = self.nodes[dists].value
        if np.ndim(d) != 1:
            raise ShapeError(f"neg_dist_log_softmax: expected rank-1 distances, got shape {np.shape(d)}")
        if not d.size:
            raise ValueError("neg_dist_log_softmax: empty candidate list")
        logps = neg_dist_log_softmax_value(d)
        probs = np.exp(logps)

        out = []
        for j in range(len(d)):
            def vjp(g, j=j):
                # d logp_j / d dist_k = p_k - [k == j]
                grads = g * probs
                grads[j] -= g
                return (grads,)

            out.append(self._push(np.float64(logps[j]), (dists,), vjp))
        return out

    def sub(self, a: int, b: int) -> int:
        av = self.nodes[a].value
        bv = self.nodes[b].value
        if np.shape(av) != np.shape(bv):
            raise ShapeError(f"sub: shapes {np.shape(av)} and {np.shape(bv)} differ")

        def vjp(g):
            return g, -g

        return self._push(av - bv, (a, b), vjp)

    def neg(self, x: int) -> int:
        xv = self.nodes[x].value

        def vjp(g):
            return (-g,)

        return self._push(-xv, (x,), vjp)

    def exp(self, x: int) -> int:
        out = np.exp(self.nodes[x].value)

        def vjp(g):
            return (g * out,)

        return self._push(out, (x,), vjp)

    def log(self, x: int) -> int:
        """Natural log of a scalar, clamped at LOG_FLOOR.

        A clamped node keeps the floor value and a zero gradient; the
        `clamped` flag lets loss code count how often this fires.
        """
        xv = float(self.nodes[x].value)
        clamped = xv < LOG_FLOOR

        def vjp(g):
            if clamped:
                return (np.float64(0.0),)
            return (g / xv,)

        ref = self._push(np.float64(math.log(max(xv, LOG_FLOOR))), (x,), vjp)
        self.nodes[ref].clamped = clamped
        return ref

    def sum_scalars(self, refs: list[int]) -> int:
        """Sum of scalar nodes in list order; the empty sum is the constant 0."""
        if not refs:
            return self.constant(0.0)
        if len(refs) == 1:
            return refs[0]
        total = np.float64(0.0)
        for r in refs:
            total = total + self.nodes[r].value

        def vjp(g):
            return tuple(g for _ in refs)

        return self._push(total, tuple(refs), vjp)

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
