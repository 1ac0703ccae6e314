"""The embedding network: a fully connected MLP with He-Gaussian init,
forward passes on and off the tape, the Adam optimizer, and checkpoint I/O.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tape import Tape, affine

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
        return bool(np.isfinite(self.flat).all())


def init_params(arch: MlpArchitecture, seed: int) -> ParameterSet:
    """He-Gaussian weights (stddev sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    params = ParameterSet(arch, np.zeros(arch.n_params))
    for w in params.weights:
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[1]), w.shape)
    return params


def bind_params(tape: Tape, params: ParameterSet) -> list[tuple[int, int]]:
    """Leaf refs for every layer, created once per (tape, params) pair.

    All forward passes on one tape share these refs, so the backward sweep
    accumulates gradients across the query and every stored sample it was
    compared against.
    """
    refs = tape.bound_params.get(id(params))
    if refs is None:
        refs = [(tape.leaf(w), tape.leaf(b)) for w, b in zip(params.weights, params.biases)]
        tape.bound_params[id(params)] = refs
    return refs


def forward_from_refs(tape: Tape, layer_refs, activation: str, x) -> int:
    """Run the MLP from existing parameter leaf refs over one row or a row
    block; returns the embedding ref."""
    act = tape.relu if activation == "relu" else tape.tanh
    h = tape.constant(np.asarray(x, dtype=np.float64))
    last = len(layer_refs) - 1
    for i, (w, b) in enumerate(layer_refs):
        h = tape.matmul_add(w, h, b)
        if i < last:
            h = act(h)
    return h


def _check_input(name: str, params: ParameterSet, x: np.ndarray) -> None:
    if x.ndim not in (1, 2) or x.shape[-1] != params.arch.in_dim:
        raise ValueError(f"{name}: input shape {x.shape} does not match architecture input "
                         f"({params.arch.in_dim},) or (k, {params.arch.in_dim})")


def forward(tape: Tape, params: ParameterSet, x) -> int:
    """Embed a raw feature vector, or a row block of them, on the tape."""
    x = np.asarray(x, dtype=np.float64)
    _check_input("forward", params, x)
    return forward_from_refs(tape, bind_params(tape, params), params.arch.activation, x)


def embed(params: ParameterSet, x) -> np.ndarray:
    """Plain forward pass over one row or a row block, bitwise identical to
    the tape version of the same input. A block row agrees with its
    one-row embedding only to rounding (see tape.affine)."""
    h = np.asarray(x, dtype=np.float64)
    _check_input("embed", params, h)
    last = len(params.weights) - 1
    relu = params.arch.activation == "relu"
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = affine(w, h, b)
        if i < last:
            h = np.maximum(h, 0.0) if relu else np.tanh(h)
    return h


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


def collect_param_grads(tape: Tape, params: ParameterSet, grad_map) -> ParameterSet:
    """Pick this ParameterSet's gradients out of a backward() leaf map, in
    the parameter layout."""
    refs = bind_params(tape, params)
    flat = np.concatenate([np.ravel(grad_map[r]) for pair in refs for r in pair])
    return ParameterSet(params.arch, flat)


@dataclass
class AdamState:
    """First/second-moment vectors in the parameter layout, plus the step
    counter; adam_step updates all three in place. `work` holds two
    scratch vectors of the same length that adam_step reuses every step."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.work = np.empty((2, len(self.m)))

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
    # Every temporary lives in state.work: fresh vectors every step cost
    # time and fragment the heap. The operations and their order are those
    # of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # flat - lr (m / bc1) / (sqrt(v / bc2) + eps), so the result is bitwise
    # that of the plain expressions.
    g, m, v = grads.flat, state.m, state.v
    a, b = state.work
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
    return ParameterSet(params.arch, np.subtract(params.flat, a))


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
