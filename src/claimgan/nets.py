"""Dense-network substrate: forward/backward by hand, optimizers, checkpoints.

All six networks of the model (two sample generators, the label generator,
three discriminators) are plain MLPs built from this module. Everything is
float64 numpy and deterministic given a seed. A net's parameters, gradients,
Adam moments and finite differences are all vectors laid out like its `flat`.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_open, read_lines

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7

# glibc's mallopt parameter numbers (malloc.h), the trim threshold training
# sets and glibc's default top pad, which training restores.
M_TRIM_THRESHOLD = -1
M_TOP_PAD = -2
HEAP_TRIM_THRESHOLD = 2 << 20
DEFAULT_TOP_PAD = 128 << 10

OPTIMIZERS = ("sgd", "adam")

CHECKPOINT_VERSION = 1

# The most parameters net_init builds: 2**24 float64s are 128 MiB, and
# training holds four vectors that long per net (parameters, gradient, Adam's
# two moments). It admits hidden widths up to about 4000, and refuses a
# mistyped width before any layer is drawn, instead of drawing gigabytes of
# weights first and failing (or swapping) on a later layer.
MAX_PARAMETERS = 1 << 24


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # where(z >= 0, 1, e) / (1 + e) with e = exp(-|z|), then clamped; worked
    # in place on its two fresh arrays, so z is only read
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.where(z >= 0, 1.0, e)
    e += 1.0
    s /= e
    np.maximum(s, PROB_EPS, out=s)
    return np.minimum(s, 1.0 - PROB_EPS, out=s)


# activation name -> (activation of z, done in place where numpy can; its
# derivative from the output alone, always a fresh array). `backward` reads
# no pre-activation, so `forward` keeps none.
ACTIVATIONS = {
    # out > 0 exactly where z > 0, for NaN and signed zeros too. The
    # derivative is that comparison written straight into a float array:
    # multiplying by a bool mask is ~10% slower (mixed-dtype loop)
    "relu": (
        lambda z: np.maximum(z, 0.0, out=z),
        lambda out: np.greater(out, 0.0, out=np.empty_like(out)),
    ),
    "tanh": (lambda z: np.tanh(z, out=z), lambda out: 1.0 - out * out),
    # out is the clamped value; inside the clamp the derivative is exact, at
    # the clamp it is a vanishing surrogate.
    "sigmoid": (_sigmoid, lambda out: out * (1.0 - out)),
    "identity": (lambda z: z, np.ones_like),
}


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be loaded."""


# The array-holding records compare by identity (eq=False): a generated
# __eq__ over arrays raises on the truth value of an elementwise comparison.
@dataclass(eq=False)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str


@dataclass(eq=False)
class NeuralNet:
    """MLP whose parameters are one contiguous float64 vector, `flat`. Construction
    copies the given layers' arrays into it and replaces the layers with new ones
    whose weight and bias are views into `flat`; the given layers are not touched."""
    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False)
    # per layer, resolved once: (weight, weight.T, bias, activation,
    # derivative, start, mid, end), with the weight at flat[start:mid] and the
    # bias at flat[mid:end] of any vector laid out like `flat`. `flat` is only
    # ever updated in place, so the views stay valid.
    plan: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for l in self.layers:
            if l.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {l.activation!r}")
        arrays = [a.ravel() for l in self.layers for a in (l.weight, l.bias)]
        self.flat = np.concatenate(arrays, dtype=np.float64)
        layers, plan, start = [], [], 0
        for l in self.layers:
            mid = start + l.weight.size
            end = mid + l.bias.size
            w, b = self.flat[start:mid].reshape(l.weight.shape), self.flat[mid:end]
            layers.append(Layer(w, b, l.activation))
            plan.append((w, w.T, b, *ACTIVATIONS[l.activation], start, mid, end))
            start = end
        self.layers, self.plan = layers, tuple(plan)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "NeuralNet":
        return NeuralNet(self.layers)


# ParamGrads: a float64 vector laid out like net.flat: each layer's weight in
# C order, then its bias, at the offsets of that layer's entry in net.plan.
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
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))
    if n_params > MAX_PARAMETERS:
        raise ValueError(f"dims {layer_dims} give {n_params} parameters, over {MAX_PARAMETERS}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(layer_dims[:-1], layer_dims[1:], activations):
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return NeuralNet(layers)


@functools.cache
def _glibc_heap_calls():
    """glibc's (mallopt, malloc_trim), or None where the C library has no
    mallopt (macOS, Windows)."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    malloc_trim.argtypes = (ctypes.c_size_t,)
    mallopt.restype = malloc_trim.restype = ctypes.c_int
    return mallopt, malloc_trim


@contextlib.contextmanager
def keep_heap_for_steps():
    """Keep the heap's free top between training steps while the block
    runs, and hand it back to the OS when the block ends, normally or by
    an exception. trigan.run_loop, the one loop that both trainers run,
    holds it around its iterations.

    Each step frees its temporaries at the top of the heap. Below glibc's
    trim threshold that memory is kept; above it, glibc gives it back and
    the next step page-faults it in again: about 360 minor faults per toy
    step (2-D, hidden 64, batch 64) at glibc's default 128 KiB and still
    at 512 KiB. At 1 MiB the toy steps run without faults, but the first
    64-D eq4 step after each eval took about 40. At 2 MiB the first step
    after every second eval still takes 130-146 on the seed-0 benchmark
    corpus (eq4, eval every 50), and the other steps none.

    Setting the trim threshold also freezes glibc's dynamic mmap threshold
    where it stands: at least 128 KiB, raised by each larger freed mapping to
    its size. The benchmark's corpus set-up frees its 2.5 MB embedding matrix,
    so its evals' 1.5 MB arrays come from the heap (mallinfo2's hblks stays
    at 4 through all 20 evals); a process still holding that matrix froze
    it between 512 KiB and 1 MiB and mapped them afresh in every eval.

    The exit calls malloc_trim(0), then sets the trim threshold and the top
    pad to 0, so glibc also hands back at once what is freed after the
    block: the loop's optimizer moments and model copy, when `train`
    returns or a caller drops a failed run. With the trim alone, 7 of 10
    heap layouts (the same source at 10 path lengths) still had 0.5-0.64 MB
    of free heap top after a 300-iteration toy `train` returned or raised,
    because those arrays sat at the top; with the exit settings, none had
    more than 2 KB. The entry sets the top pad back to glibc's default, so
    every loop runs under the same settings.

    Without glibc's mallopt nothing is done.
    """
    calls = _glibc_heap_calls()
    if calls is None:
        yield
        return
    mallopt, malloc_trim = calls
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    mallopt(M_TOP_PAD, DEFAULT_TOP_PAD)
    try:
        yield
    finally:
        malloc_trim(0)
        mallopt(M_TRIM_THRESHOLD, 0)
        mallopt(M_TOP_PAD, 0)


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
    for _, weight_t, bias, activate, *_ in net.plan:
        # np.dot, here and in `backward`: the same bits as `@` (see there)
        z = np.dot(h, weight_t)  # a fresh array, so activating in place is safe
        z += bias
        out = activate(z)
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
    delta = output_grad
    for k in range(len(net.plan) - 1, -1, -1):
        h_in, out = cache[k]
        weight, _, _, _, derivative, start, mid, end = net.plan[k]
        dz = derivative(out)  # fresh, so neither output_grad nor the cache is written
        dz *= delta
        if param_grads:
            np.dot(dz.T, h_in, out=grads[start:mid].reshape(weight.shape))
            np.add.reduce(dz, axis=0, out=grads[mid:end])
        if k or input_grad:
            # np.dot, not `@`: for a one-unit layer (every judge's output)
            # this is a (m, 1) @ (1, n) product, which matmul runs 5-8x
            # slower than dot at 64 x 64. Both give each entry as 0 + a*b,
            # so a -0.0 product is +0.0 either way; a broadcast dz * weight
            # would keep the -0.0.
            delta = np.dot(dz, weight)
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


@dataclass(eq=False)
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
    # adam with bias correction, one vector op per term over all parameters,
    # in place on two scratch vectors a and b but in the order of the
    # formula, so with its bits: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    # flat += sign*lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    t = state.step
    b1, b2 = state.beta1, state.beta2
    a = np.multiply(grads, 1 - b1)
    state.m *= b1
    state.m += a
    np.multiply(grads, 1 - b2, out=a)
    a *= grads
    state.v *= b2
    state.v += a
    np.divide(state.m, 1 - b1**t, out=a)
    b = np.divide(state.v, 1 - b2**t)
    np.sqrt(b, out=b)
    b += state.eps
    a *= sign * state.lr
    a /= b
    net.flat += a


def checkpoint_save(nets: dict[str, NeuralNet], path) -> None:
    """Write all nets to a versioned JSON document, losslessly.

    The document holds the layers' arrays, and json.dump's encoder turns
    each into a list only as it writes that array, so no list of every
    parameter is built; the bytes are those of the all-list document."""
    doc = {"version": CHECKPOINT_VERSION, "nets": {}}
    for name, net in nets.items():
        dims = [net.input_dim] + [l.weight.shape[0] for l in net.layers]
        doc["nets"][name] = {
            "dims": dims,
            "activations": [l.activation for l in net.layers],
            "weights": [l.weight for l in net.layers],
            "biases": [l.bias for l in net.layers],
        }
    with atomic_open(path) as f:
        json.dump(doc, f, default=np.ndarray.tolist)


def checkpoint_load(path) -> dict[str, NeuralNet]:
    """The nets checkpoint_save wrote to `path`. An error's message starts
    with the path, as load_config's and load_claims' errors do."""
    try:
        return _read_checkpoint(path)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e


def _read_checkpoint(path) -> dict[str, NeuralNet]:
    try:
        doc = json.loads("".join(read_lines(path)), object_hook=_parameter_arrays)
    except (json.JSONDecodeError, RecursionError) as e:
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
                w = np.asarray(rec["weights"][k], dtype=np.float64)
                b = np.asarray(rec["biases"][k], dtype=np.float64)
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
    except OverflowError as e:  # an int beyond float range
        raise CheckpointError(f"net {name!r}: {e}") from e
    return nets


def _parameter_arrays(obj: dict) -> dict:
    """json.loads' object_hook: turn each entry of a parsed object's
    "weights" and "biases" lists into a float64 array as soon as the parser
    has finished that object (a net's record), so the float lists of one net
    at a time are alive. An entry numpy refuses is kept as parsed, for
    _read_checkpoint's checks to reject in their order and words."""
    for key in ("weights", "biases"):
        params = obj.get(key)
        if isinstance(params, list):
            for k, p in enumerate(params):
                try:
                    params[k] = np.array(p, dtype=np.float64)
                except (TypeError, ValueError, OverflowError):
                    pass
    return obj
