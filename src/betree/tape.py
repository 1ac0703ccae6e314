"""The record of one gradient step through the embedding MLP, and the
distance and log-softmax kernels of traversal and the loss.

The only graph a step builds is a fixed chain: affine, activation, ...,
affine over one row block, then the soft path's closed-form loss head. So
the backward is written out rather than recorded: Tape keeps the parameters,
each layer's input rows and the output block of the step's one forward, and
Tape.backward takes the head's gradient with respect to the output rows the
head read down the chain, with one weight-gradient product per layer over
those rows (as for NCA through an MLP, Salakhutdinov & Hinton 2007).
"""

from __future__ import annotations

import numpy as np

from .transform import ParameterSet

# Below this distance the L2 derivative is singular; gradients through a
# distance use the zero subgradient instead of dividing by ~0.
DISTANCE_EPS = 1e-12


def l2_value(a: np.ndarray, b: np.ndarray):
    """Euclidean distance from a rank-1 `a` to `b`, or to each row of a
    rank-2 `b` (one distance per row).

    The single distance kernel of plain tree traversal: each row's sum runs
    over the same contiguous elements in the same order as the rank-1 case.
    Two callers repeat this arithmetic and must agree with it bitwise: the
    exact path of boundary_tree's hard decisions, for a row block one
    candidate at a time in preallocated buffers, and the soft path's loss
    head, on (queries x candidates x width) groups whose differences it
    keeps for its gradient. boundary_tree's one-row descent relies on the
    per-row sums too: it calls this once over every node row and reads
    each decision's candidates out of that one distance row.
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


class Tape:
    """One gradient step's record of the MLP chain over one row block
    (filled by transform.forward): the ParameterSet, each layer's input
    rows, the raw block first, and the output block. len() is the number
    of recorded blocks, one per layer."""

    def __init__(self):
        self.params: ParameterSet | None = None
        self.inputs: list[np.ndarray] = []
        self.output: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.inputs)

    def backward(self, g: np.ndarray, rows=None) -> ParameterSet:
        """The gradient of sum(g * output[rows]) with respect to the
        parameters, in a fresh gradient vector: `rows` indexes the output
        rows `g` belongs to, one per row of `g` (every row, in order, for
        None). Raises ValueError for a `g` of another shape, or before any
        forward.

        Each layer gathers the `rows` of its recorded input once, then
        writes its weight product and bias sum over them straight into that
        vector's views. Below the top layer, the gradient goes through the
        weight and then the activation, whose derivative is read off the
        layer's stored output: relu's out > 0 holds exactly where its
        pre-activation is > 0 (the subgradient at 0 is 0), and tanh's is
        1 - out². The raw block gets no gradient.
        """
        params = self.params
        if params is None:
            raise ValueError("backward: nothing recorded; run transform.forward on this tape first")
        n = len(self.inputs[0]) if rows is None else len(rows)
        if np.shape(g) != (n, params.arch.out_dim):
            raise ValueError(f"backward: gradient shape {np.shape(g)} does not match the output "
                             f"rows ({n}, {params.arch.out_dim})")
        grads = ParameterSet(params.arch, np.empty(params.arch.n_params))
        relu = params.arch.activation == "relu"
        for i in range(len(self.inputs) - 1, -1, -1):
            x = self.inputs[i] if rows is None else self.inputs[i][rows]
            np.matmul(g.T, x, out=grads.weights[i])
            np.sum(g, axis=0, out=grads.biases[i])
            if i:
                g = g @ params.weights[i]
                g = np.where(x > 0.0, g, 0.0) if relu else g * (1.0 - x * x)
        return grads
