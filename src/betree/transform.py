"""The embedding network: a fully connected MLP with He-Gaussian init, its
affine kernel, plain embedding and the recorded forward of a gradient step
(see tape.Tape), the Adam optimizer, and checkpoint I/O.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tape import Tape

ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_MAGIC = "BETREE-CKPT v2"
CHECKPOINT_MAGIC_V1 = "BETREE-CKPT v1"


class CheckpointFormatError(ValueError):
    """Checkpoint file does not match the expected layout."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN/Inf; the optimizer step was not applied."""


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths, input dim first and embedding dim last; hidden layers
    use `activation`, the output layer is linear."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("architecture needs at least an input and an output size")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))


class ParameterSet:
    """All weights and biases in one float64 vector `flat`: per layer, the
    weight (out, in) row-major, then the bias (out,). `weights[i]` and
    `biases[i]` are read/write views into `flat`.

    Treated as immutable during evaluation passes; adam_step returns a new
    instance, and `serial` keys embedding caches. Gradients use the same
    layout, as a ParameterSet of their own.
    """

    _serials = itertools.count(1)

    def __init__(self, arch: MlpArchitecture, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (arch.n_params,):
            raise ValueError(f"parameter vector shape {flat.shape} does not match architecture "
                             f"{arch.layer_sizes} ({arch.n_params} parameters)")
        self.arch = arch
        self.flat = flat
        # Process-unique stamp, so caches can never confuse two parameter sets.
        self.serial = next(ParameterSet._serials)
        self.weights, self.biases = [], []
        pos = 0
        for fan_in, fan_out in zip(arch.layer_sizes[:-1], arch.layer_sizes[1:]):
            self.weights.append(flat[pos:pos + fan_out * fan_in].reshape(fan_out, fan_in))
            pos += fan_out * fan_in
            self.biases.append(flat[pos:pos + fan_out])
            pos += fan_out

    def all_finite(self) -> bool:
        """Whether every entry is finite, checked one ADAM_BLOCK slice at a
        time, so no bool vector of the parameter count is made."""
        flat = self.flat
        return all(np.isfinite(flat[lo:lo + ADAM_BLOCK]).all() for lo in range(0, len(flat), ADAM_BLOCK))


def init_params(arch: MlpArchitecture, seed: int) -> ParameterSet:
    """He-Gaussian weights (stddev sqrt(2/fan_in)), zero biases.

    Each weight matrix is drawn straight into its view of the flat vector:
    standard normals scaled in place, then + 0.0, which is Generator.normal's
    loc + scale * z bitwise (the sign of a zero included)."""
    rng = np.random.default_rng(seed)
    params = ParameterSet(arch, np.zeros(arch.n_params))
    for w in params.weights:
        rng.standard_normal(out=w)
        w *= math.sqrt(2.0 / w.shape[1])
        w += 0.0
    return params


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ x + b for a rank-1 `x`, or for each row of a rank-2 `x`.

    The single affine kernel of the MLP: one GEMM, x @ w.T + b, for one row
    and for a row block alike. The BLAS kernel's summation order depends on
    the block's shape (and on the BLAS thread count), so a block row agrees
    with the one-row call only to rounding; a result that must be bitwise
    another's reuses its rows instead of embedding them again.
    """
    return x @ w.T + b


def _layers(params: ParameterSet, h: np.ndarray, inputs: list | None = None) -> np.ndarray:
    """The MLP over `h`, one row or a row block; appends each layer's input
    rows to `inputs` when given."""
    last = len(params.weights) - 1
    relu = params.arch.activation == "relu"
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if inputs is not None:
            inputs.append(h)
        h = affine(w, h, b)
        if i < last:
            h = np.maximum(h, 0.0) if relu else np.tanh(h)
    return h


def forward(tape: Tape, params: ParameterSet, x) -> np.ndarray:
    """Embed a row block of raw features for one gradient step; returns the
    output block and records the parameters, each layer's input rows and
    the output block on `tape`, for its backward. Bitwise embed's result
    for the same block."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.arch.in_dim:
        raise ValueError(f"forward: input shape {x.shape} does not match architecture input "
                         f"(k, {params.arch.in_dim})")
    tape.params, tape.inputs = params, []
    tape.output = _layers(params, x, tape.inputs)
    return tape.output


def embed(params: ParameterSet, x) -> np.ndarray:
    """Plain forward pass over one row or a row block. A block row agrees
    with its one-row embedding only to rounding (see affine)."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim not in (1, 2) or h.shape[-1] != params.arch.in_dim:
        raise ValueError(f"embed: input shape {h.shape} does not match architecture input "
                         f"({params.arch.in_dim},) or (k, {params.arch.in_dim})")
    return _layers(params, h)


def make_embedder(params: ParameterSet):
    """Embedding callable for tree operations (one row or a row block),
    stamped for cache keying."""

    def fn(x):
        return embed(params, x)

    fn.cache_key = ("mlp", params.serial)
    return fn


def identity_embedder():
    """Raw features (one row or a row block) as their own embedding; the
    stamp never changes."""

    def fn(x):
        return np.asarray(x, dtype=np.float64)

    fn.cache_key = ("identity",)
    return fn


# adam_step walks the parameter vector in slices of this many floats, so
# each slice's operands stay in cache across its operations.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """First/second-moment vectors in the parameter layout, plus the step
    counter; adam_step updates all three in place. `work` holds two
    scratch vectors of one block (ADAM_BLOCK floats, or the parameter
    count if smaller) that adam_step reuses for every block of every
    step."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.work = np.empty((2, min(ADAM_BLOCK, len(self.m))))

    @classmethod
    def fresh(cls, params: ParameterSet, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: ParameterSet, grads: ParameterSet, state: AdamState) -> ParameterSet:
    """One bias-corrected Adam update; returns new params and advances
    `state` in place.

    Refuses to apply anything if any gradient entry is non-finite, so a bad
    step can never half-update the parameters or the state.
    """
    if grads.arch.layer_sizes != params.arch.layer_sizes:
        raise ValueError(f"adam_step: gradient layout {grads.arch.layer_sizes} does not match "
                         f"parameter layout {params.arch.layer_sizes}")
    if not grads.all_finite():
        raise NonFiniteGradientError("adam_step: non-finite gradient, step aborted")

    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    # One ADAM_BLOCK slice at a time, with every temporary in state.work:
    # a slice's operands stay in cache across its operations, where whole
    # vectors would stream through memory once per operation. The
    # operations and their order are those of m = b1 m + (1 - b1) g,
    # v = b2 v + (1 - b2) g^2 and flat - lr (m / bc1) / (sqrt(v / bc2) + eps),
    # all elementwise, so the result is bitwise that of the plain
    # expressions.
    out = np.empty_like(params.flat)
    for lo in range(0, len(out), ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        g, m, v = grads.flat[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b = state.work[:, :len(g)]
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - state.beta2, out=a)
        np.divide(m, bc1, out=a)
        a *= state.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        a /= b
        np.subtract(params.flat[lo:hi], a, out=out[lo:hi])
    return ParameterSet(params.arch, out)


# ---- checkpoint files ------------------------------------------------------
#
# Layout: one ASCII magic line, an "activation <name>" line, one "out in"
# line per layer, then the parameter vector verbatim as little-endian
# float64 (per layer: weights row-major, then biases). v1 files lack the
# activation line.

def save_checkpoint(params: ParameterSet, path) -> None:
    sizes = params.arch.layer_sizes
    table = "".join(f"{o} {i}\n" for i, o in zip(sizes[:-1], sizes[1:]))
    with open(path, "wb") as f:
        f.write(f"{CHECKPOINT_MAGIC}\nactivation {params.arch.activation}\n{table}".encode("ascii"))
        f.write(params.flat.astype("<f8", copy=False).tobytes())


def _read_line(buf: bytes, pos: int) -> tuple[str, int]:
    end = buf.find(b"\n", pos)
    if end < 0:
        raise CheckpointFormatError("unterminated header line")
    try:
        return buf[pos:end].decode("ascii"), end + 1
    except UnicodeDecodeError as e:
        raise CheckpointFormatError("non-ASCII bytes in header") from e


def _parse_layer_table(buf: bytes, pos: int) -> tuple[list[tuple[int, int]], int]:
    """Read "out in" lines until the remaining bytes match the implied payload.

    The format carries no explicit layer count, but each extra table line
    grows the expected payload by at least 16 bytes while shrinking the
    remainder, so the matching prefix is unique.
    """
    dims: list[tuple[int, int]] = []
    while True:
        expected = 8 * sum(o * i + o for o, i in dims)
        if dims and len(buf) - pos == expected:
            return dims, pos
        if len(buf) - pos < expected:
            raise CheckpointFormatError("layer table does not match payload size")
        line, nxt = _read_line(buf, pos)
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() and int(p) > 0 for p in parts):
            raise CheckpointFormatError(f"bad layer table line {line!r}")
        dims.append((int(parts[0]), int(parts[1])))
        pos = nxt


def load_checkpoint(path) -> ParameterSet:
    """Parameters and architecture, activation included, from a v2 file; a
    v1 file loads as relu."""
    with open(path, "rb") as f:
        buf = f.read()
    line, pos = _read_line(buf, 0)
    if line == CHECKPOINT_MAGIC_V1:
        activation = "relu"
    elif line == CHECKPOINT_MAGIC:
        line, pos = _read_line(buf, pos)
        key, _, activation = line.partition(" ")
        if key != "activation" or activation not in ACTIVATIONS:
            raise CheckpointFormatError(
                f"bad activation line {line!r}, expected 'activation' and one of {ACTIVATIONS}")
    else:
        raise CheckpointFormatError(f"bad checkpoint magic {line!r}, expected {CHECKPOINT_MAGIC!r}")
    dims, pos = _parse_layer_table(buf, pos)
    for (o_prev, _), (_, i_next) in zip(dims[:-1], dims[1:]):
        if o_prev != i_next:
            raise CheckpointFormatError(f"layer table dims do not chain: {dims}")
    arch = MlpArchitecture((dims[0][1], *(o for o, _ in dims)), activation)
    # The copy keeps the loaded parameters writable.
    return ParameterSet(arch, np.frombuffer(buf, "<f8", offset=pos).copy())
