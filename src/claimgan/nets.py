"""Dense-network substrate: forward/backward by hand, optimizers, checkpoints.

All six networks of the model (two sample generators, the label generator,
three discriminators) are plain MLPs built from this module. Everything is
float64 numpy and deterministic given a seed. A net's parameters, gradients,
Adam moments and finite differences are all vectors laid out like its `flat`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_open

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7

# glibc's mallopt parameter number (malloc.h) and the value training sets.
M_TRIM_THRESHOLD = -1
HEAP_TRIM_THRESHOLD = 2 << 20

OPTIMIZERS = ("sgd", "adam")

CHECKPOINT_VERSION = 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return np.minimum(np.maximum(s, PROB_EPS), 1.0 - PROB_EPS)


# activation name -> (activation of z, done in place where numpy can; its
# derivative from the output alone). `backward` reads no pre-activation, so
# `forward` keeps none.
ACTIVATIONS = {
    # out > 0 exactly where z > 0, for NaN and signed zeros too. The
    # derivative is a float mask: multiplying by a bool mask is ~10% slower
    # (mixed-dtype loop)
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda out: (out > 0).astype(np.float64)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda out: 1.0 - out * out),
    # out is the clamped value; inside the clamp the derivative is exact, at
    # the clamp it is a vanishing surrogate.
    "sigmoid": (_sigmoid, lambda out: out * (1.0 - out)),
    "identity": (lambda z: z, np.ones_like),
}


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be loaded."""


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str


@dataclass
class NeuralNet:
    """MLP whose parameters are one contiguous float64 vector, `flat`. Construction
    copies the given layers' arrays into it and replaces the layers with new ones
    whose weight and bias are views into `flat`; the given layers are not touched."""
    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for l in self.layers:
            if l.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {l.activation!r}")
        arrays = [a.ravel() for l in self.layers for a in (l.weight, l.bias)]
        self.flat = np.concatenate(arrays, dtype=np.float64)
        pairs = zip(self.unflatten(self.flat), self.layers)
        self.layers = [Layer(w, b, l.activation) for (w, b), l in pairs]

    def unflatten(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into `vec`, a vector laid out like
        `flat`: each layer's weight in C order, then its bias."""
        views, start = [], 0
        for l in self.layers:
            mid = start + l.weight.size
            end = mid + l.bias.size
            views.append((vec[start:mid].reshape(l.weight.shape), vec[mid:end]))
            start = end
        return views

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "NeuralNet":
        return NeuralNet(self.layers)


# ParamGrads: a float64 vector laid out like net.flat; see NeuralNet.unflatten.
ParamGrads = np.ndarray


def net_init(layer_dims: list[int], activations: list[str], seed: int) -> NeuralNet:
    """Build a net with dims [d0, d1, ..., dk] and one activation per layer.

    Weights ~ N(0, 1/fan_in) (std 1/sqrt(fan_in)), biases zero.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least one layer (two dims)")
    if any(d <= 0 for d in layer_dims):
        raise ValueError(f"dims must be positive, got {layer_dims}")
    if len(activations) != len(layer_dims) - 1:
        raise ValueError(
            f"{len(layer_dims) - 1} layers but {len(activations)} activations"
        )
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(layer_dims[:-1], layer_dims[1:], activations):
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return NeuralNet(layers)


@functools.cache
def keep_heap_for_steps() -> None:
    """Stop glibc malloc from returning the top of the heap to the OS after
    every training step; called once per process by the training loops.

    Each step frees its temporaries at the top of the heap. Below the trim
    threshold glibc keeps that memory; above it, glibc gives it back and
    the next step page-faults it in again: about 360 minor faults per toy
    step (2-D, hidden 64, batch 64) at glibc's default 128 KiB and still
    at 512 KiB. At 1 MiB the toy steps run without faults, but the first
    64-D eq4 step after each eval took about 40. At 2 MiB the first step
    after every second eval still takes 130-146 on the seed-0 benchmark
    corpus (eq4, eval every 50), and the other steps none.

    Without glibc's mallopt (macOS, Windows) nothing is done.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


def forward(
    net: NeuralNet, batch: np.ndarray, *, keep_cache: bool = True
) -> tuple[np.ndarray, list | None]:
    """Run the net on a (m, input_dim) batch.

    Returns (outputs, cache). cache[k] is layer k's (input, output): all that
    `backward` reads. cache[0][0] is the batch itself, which is never written.
    With keep_cache=False the cache is None and each layer's input is freed
    once its output exists, so at most two layer outputs are alive at a
    time; the outputs are the same bits.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input_dim {net.input_dim}"
        )
    if not np.isfinite(batch).all():
        raise ValueError("non-finite input batch")
    cache = [] if keep_cache else None
    h = batch
    for layer in net.layers:
        z = h @ layer.weight.T  # a fresh array, so activating in place is safe
        z += layer.bias
        out = ACTIVATIONS[layer.activation][0](z)
        if keep_cache:
            cache.append((h, out))
        h = out
    return h, cache


def backward(
    net: NeuralNet,
    cache: list,
    output_grad: np.ndarray,
    *,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[ParamGrads | None, np.ndarray | None]:
    """Reverse-mode gradients given dLoss/dOutput.

    Returns (dLoss/dParams laid out like net.flat, dLoss/dInput). The input
    gradient is what lets a discriminator's judgment backpropagate into a
    generator. A caller that needs only one of the two turns the other off
    and gets None in its place: param_grads=False skips every dW and db,
    input_grad=False skips the first layer's product with its weight.
    """
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if output_grad.shape != cache[-1][1].shape:
        raise ValueError(
            f"output_grad shape {output_grad.shape} != output shape {cache[-1][1].shape}"
        )
    grads = np.empty_like(net.flat) if param_grads else None
    views = net.unflatten(grads) if param_grads else None
    delta = output_grad
    for k in range(len(net.layers) - 1, -1, -1):
        h_in, out = cache[k]
        layer = net.layers[k]
        dz = delta * ACTIVATIONS[layer.activation][1](out)
        if param_grads:
            w_view, b_view = views[k]
            np.matmul(dz.T, h_in, out=w_view)
            dz.sum(axis=0, out=b_view)
        if k or input_grad:
            delta = dz @ layer.weight
    return grads, (delta if input_grad else None)


def numeric_gradients(net: NeuralNet, value_fn, eps: float = 1e-5) -> ParamGrads:
    """Central finite differences of value_fn() w.r.t. net.flat, laid out like it.

    value_fn must read the net's current (mutated) parameters; they are
    restored afterward.
    """
    flat, g = net.flat, np.empty_like(net.flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = value_fn()
        flat[i] = orig - eps
        minus = value_fn()
        flat[i] = orig
        g[i] = (plus - minus) / (2.0 * eps)
    return g


def max_relative_error(analytic: ParamGrads, numeric: ParamGrads) -> float:
    """Largest |a - n| / max(|a|, |n|, 1e-12) over two vectors of one layout."""
    if analytic.shape != numeric.shape:
        raise ValueError(f"gradient shapes differ: {analytic.shape} != {numeric.shape}")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class OptimizerState:
    algorithm: str  # one of OPTIMIZERS
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = field(default=None, repr=False)  # flat, like net.flat
    v: np.ndarray | None = field(default=None, repr=False)


def make_optimizer(net: NeuralNet, algorithm: str = "adam", lr: float = 1e-3) -> OptimizerState:
    if algorithm not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {algorithm!r}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    state = OptimizerState(algorithm=algorithm, lr=lr)
    if algorithm == "adam":
        state.m = np.zeros_like(net.flat)
        state.v = np.zeros_like(net.flat)
    return state


def optimizer_step(
    net: NeuralNet, grads: ParamGrads, state: OptimizerState, direction: str
) -> None:
    """Move parameters along +/-grads in place; state is updated in place.

    Non-finite gradients reject the whole step and leave net and state
    untouched.
    """
    if direction not in ("ascend", "descend"):
        raise ValueError(f"direction must be ascend or descend, got {direction!r}")
    if grads.shape != net.flat.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {net.flat.shape}")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradients; step rejected")
    sign = 1.0 if direction == "ascend" else -1.0
    state.step += 1
    if state.algorithm == "sgd":
        net.flat += sign * state.lr * grads
        return
    # adam with bias correction, one vector op per term over all parameters
    t = state.step
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1 - b1) * grads
    state.v *= b2
    state.v += (1 - b2) * grads * grads
    m_hat = state.m / (1 - b1**t)
    v_hat = state.v / (1 - b2**t)
    net.flat += sign * state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def checkpoint_save(nets: dict[str, NeuralNet], path) -> None:
    """Write all nets to a versioned JSON document, losslessly."""
    doc = {"version": CHECKPOINT_VERSION, "nets": {}}
    for name, net in nets.items():
        dims = [net.input_dim] + [l.weight.shape[0] for l in net.layers]
        doc["nets"][name] = {
            "dims": dims,
            "activations": [l.activation for l in net.layers],
            "weights": [l.weight.tolist() for l in net.layers],
            "biases": [l.bias.tolist() for l in net.layers],
        }
    with atomic_open(path) as f:
        json.dump(doc, f)


def checkpoint_load(path) -> dict[str, NeuralNet]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"malformed checkpoint: {e}") from e
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError("malformed checkpoint: missing version")
    version = doc["version"]  # JSON true and 1.0 compare equal to 1
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {json.dumps(version)} unsupported (expected {CHECKPOINT_VERSION})"
        )
    if not isinstance(doc.get("nets"), dict):
        raise CheckpointError("malformed checkpoint: nets must be an object")
    nets = {}
    try:
        for name, rec in doc["nets"].items():
            dims = rec["dims"]
            acts = rec["activations"]
            layers = []
            for k, act in enumerate(acts):
                w = np.array(rec["weights"][k], dtype=np.float64)
                b = np.array(rec["biases"][k], dtype=np.float64)
                if w.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
                    raise CheckpointError(f"net {name!r}: parameter shape mismatch")
                if not (np.isfinite(w).all() and np.isfinite(b).all()):
                    raise CheckpointError(f"net {name!r}: non-finite parameters")
                layers.append(Layer(w, b, act))
            try:
                nets[name] = NeuralNet(layers)
            except (TypeError, ValueError) as e:  # a bad activation or no layers
                raise CheckpointError(f"net {name!r}: {e}") from e
    except (KeyError, IndexError, TypeError, ValueError) as e:  # ragged or layerless nets
        raise CheckpointError(f"malformed checkpoint: {e}") from e
    return nets
