"""Minimal neural engine: dense/conv layers, backprop, Adam.

Backpropagation is implemented as hand-written per-layer backward rules
over a static layer list; there is no general autodiff tape.  Every rule
is verifiable against central finite differences (:func:`gradient_check`)
in float64 mode.  Training runs in float32 by default.

Backward computes only the gradients its caller uses.
:meth:`Network.backward` returns ``(None, grad)`` by default: the
parameter gradient, with no input gradient for the first layer, which no
trainer reads.  With ``params=False`` it returns ``(dx, None)``: the
input gradient, with no layer computing a weight or bias gradient (a GAN
generator step needs only its discriminator's input gradient).  A
layer's ``backward(cache, dout, dx=True, params=True)`` follows the same
rule: a parameterised layer returns ``None`` for an input gradient it was
not asked for and an empty dict for parameter gradients it was not asked
for.  Each result is bit-identical to the one a full backward computes.

A :class:`Network` keeps every parameter in one flat array, ``theta``, in
NNCK weight order: layer order, then parameter name inside a layer, so
``b`` comes before ``w``.  Layers hold reshaped views into it, backward
returns one gradient array of the same layout, and :class:`Adam` updates
``theta`` in place.

Checkpoint format "NNCK v1": ``model.json`` (layer specs, hyperparams,
seed, step count, SHA-256 of the weight payload) next to ``weights.f32le``
(``theta`` as little-endian float32).
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path

import numpy as np

from . import checked
from .exceptions import (
    ConfigError,
    CorruptData,
    InvalidInput,
    NumericalFailure,
    ShapeError,
)


# ---------------------------------------------------------------------------
# layers


class Layer:
    """Base layer: stateless apart from parameters.  Its NNCK spec holds
    ``kind`` and each attribute named in ``args``, the constructor's
    leading arguments, so the spec rebuilds the layer."""

    kind, args = None, ()

    def params(self) -> dict:
        return {}

    def spec(self) -> dict:
        return {"kind": self.kind, **{a: getattr(self, a) for a in self.args}}

    def out_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, x):
        """Return (output, cache)."""
        raise NotImplementedError

    def backward(self, cache, dout, dx=True, params=True):
        """Return (dx, {param_name: grad}); dx is None unless ``dx``, and
        the dict is empty unless ``params``."""
        raise NotImplementedError


def _glorot(rng, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense(Layer):
    kind, args = "dense", ("n_in", "n_out")

    def __init__(self, n_in, n_out, rng=None, dtype=np.float32):
        self.n_in, self.n_out = n_in, n_out
        if rng is None:
            self.w = np.zeros((n_in, n_out), dtype=dtype)
        else:
            self.w = _glorot(rng, n_in, n_out, (n_in, n_out), dtype)
        self.b = np.zeros(n_out, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def out_shape(self, in_shape):
        if in_shape != (self.n_in,):
            raise ShapeError(f"dense expects ({self.n_in},), got {in_shape}")
        return (self.n_out,)

    def forward(self, x):
        return x @ self.w + self.b, x

    def backward(self, cache, dout, dx=True, params=True):
        grads = {"w": cache.T @ dout, "b": dout.sum(axis=0)} if params else {}
        return (dout @ self.w.T if dx else None), grads


class _Activation(Layer):
    """A parameter-free elementwise layer; its backward always returns the
    input gradient, the only thing it can compute."""

    def out_shape(self, in_shape):
        return in_shape


class ReLU(_Activation):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0), x

    def backward(self, cache, dout, dx=True, params=True):
        return dout * (cache > 0), {}


class LeakyReLU(_Activation):
    """``x`` where ``x > 0``, else ``alpha * x``, for ``alpha`` in (0, 1].

    Both passes are branch-free.  On that range ``maximum(alpha x, x)``
    equals the select ``where(x > 0, x, alpha x)`` bit for bit, -0.0,
    infinities and every NaN included: for a NaN ``x`` both operands are
    NaN and ``maximum`` returns the first, the product the select returns.
    ``alpha = 0`` is refused because ``0 * inf`` is NaN where the select
    keeps ``inf``; :class:`ReLU` is that layer.  An ``alpha`` that rounds
    to 0 in float32 is refused too: float32 inputs meet the same NaN."""

    kind, args = "leaky_relu", ("alpha",)

    def __init__(self, alpha=0.2):
        if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
                or not 0 < alpha <= 1 or np.float32(alpha) == 0):
            raise ConfigError(f"leaky_relu alpha must be a number in (0, 1] "
                              f"that float32 holds as non-zero, not {alpha!r}")
        self.alpha = alpha

    def forward(self, x):
        return np.maximum(self.alpha * x, x), x

    def backward(self, cache, dout, dx=True, params=True):
        # the slope, 1 or alpha, in dout's dtype
        return dout * np.maximum(cache > 0, dout.dtype.type(self.alpha)), {}


class Tanh(_Activation):
    kind = "tanh"

    def forward(self, x):
        y = np.tanh(x)
        return y, y

    def backward(self, cache, dout, dx=True, params=True):
        return dout * (1.0 - cache * cache), {}


class Sigmoid(_Activation):
    kind = "sigmoid"

    def forward(self, x):
        y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def backward(self, cache, dout, dx=True, params=True):
        return dout * cache * (1.0 - cache), {}


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, dout, dx=True, params=True):
        return dout.reshape(cache), {}


class Reshape(Layer):
    kind, args = "reshape", ("shape",)

    def __init__(self, shape):
        self.shape = tuple(shape)

    def out_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.shape)):
            raise ShapeError(
                f"cannot reshape {in_shape} into {self.shape}"
            )
        return self.shape

    def forward(self, x):
        return x.reshape((x.shape[0],) + self.shape), x.shape

    def backward(self, cache, dout, dx=True, params=True):
        return dout.reshape(cache), {}


def _im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    return cols.reshape(n, c * kh * kw, oh * ow), (oh, ow)


def _col2im(cols, x_shape, kh, kw, stride, pad):
    n, c, h, w = x_shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


class Conv2D(Layer):
    kind = "conv2d"
    args = ("in_ch", "out_ch", "kernel", "stride", "pad")

    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, rng=None,
                 dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        fan_in = in_ch * kernel * kernel
        fan_out = out_ch * kernel * kernel
        shape = (out_ch, in_ch, kernel, kernel)
        if rng is None:
            self.w = np.zeros(shape, dtype=dtype)
        else:
            self.w = _glorot(rng, fan_in, fan_out, shape, dtype)
        self.b = np.zeros(out_ch, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        oh = (h + 2 * self.pad - self.kernel) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError("conv output would be empty")
        return (self.out_ch, oh, ow)

    def forward(self, x):
        k, s, p = self.kernel, self.stride, self.pad
        cols, (oh, ow) = _im2col(x, k, k, s, p)
        w2 = self.w.reshape(self.out_ch, -1)
        out = np.einsum("oc,ncl->nol", w2, cols) + self.b[None, :, None]
        return out.reshape(x.shape[0], self.out_ch, oh, ow), (x.shape, cols)

    def backward(self, cache, dout, dx=True, params=True):
        x_shape, cols = cache
        k, s, p = self.kernel, self.stride, self.pad
        d2 = dout.reshape(dout.shape[0], self.out_ch, -1)
        grads = {}
        if params:
            grads["w"] = np.einsum("nol,ncl->oc", d2, cols).reshape(
                self.w.shape)
            grads["b"] = d2.sum(axis=(0, 2))
        if not dx:
            return None, grads
        dcols = np.einsum("oc,nol->ncl", self.w.reshape(self.out_ch, -1), d2)
        return _col2im(dcols, x_shape, k, k, s, p), grads


class ConvTranspose2D(Layer):
    kind = "conv_transpose2d"
    args = ("in_ch", "out_ch", "kernel", "stride", "pad")

    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, rng=None,
                 dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        fan_in = in_ch * kernel * kernel
        fan_out = out_ch * kernel * kernel
        shape = (in_ch, out_ch, kernel, kernel)
        if rng is None:
            self.w = np.zeros(shape, dtype=dtype)
        else:
            self.w = _glorot(rng, fan_in, fan_out, shape, dtype)
        self.b = np.zeros(out_ch, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise ShapeError(
                f"conv_transpose expects {self.in_ch} channels, got {c}"
            )
        oh = (h - 1) * self.stride - 2 * self.pad + self.kernel
        ow = (w - 1) * self.stride - 2 * self.pad + self.kernel
        if oh < 1 or ow < 1:
            raise ShapeError("conv_transpose output would be empty")
        return (self.out_ch, oh, ow)

    def forward(self, x):
        k, s, p = self.kernel, self.stride, self.pad
        n, c, h, w = x.shape
        oh = (h - 1) * s - 2 * p + k
        ow = (w - 1) * s - 2 * p + k
        w2 = self.w.reshape(self.in_ch, -1)
        x2 = x.reshape(n, c, h * w)
        cols = np.einsum("cf,ncl->nfl", w2, x2)
        out = _col2im(cols, (n, self.out_ch, oh, ow), k, k, s, p)
        return out + self.b[None, :, None, None], (x, (n, self.out_ch, oh, ow))

    def backward(self, cache, dout, dx=True, params=True):
        x, _ = cache
        k, s, p = self.kernel, self.stride, self.pad
        n, c, h, w = x.shape
        dcols, _ = _im2col(dout, k, k, s, p)
        grads = {}
        if params:
            x2 = x.reshape(n, c, h * w)
            grads["w"] = np.einsum("ncl,nfl->cf", x2, dcols).reshape(
                self.w.shape)
            grads["b"] = dout.sum(axis=(0, 2, 3))
        if not dx:
            return None, grads
        w2 = self.w.reshape(self.in_ch, -1)
        return np.einsum("cf,nfl->ncl", w2, dcols).reshape(x.shape), grads


_LAYER_KINDS = {cls.kind: cls for cls in (
    Dense, ReLU, LeakyReLU, Tanh, Sigmoid, Flatten, Reshape, Conv2D,
    ConvTranspose2D)}


# ---------------------------------------------------------------------------
# network


class Network:
    """A static stack of layers with a validated forward shape chain; its
    layers' parameters are views into the flat array ``theta``."""

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        shape = self.input_shape
        for idx, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeError as exc:
                raise ShapeError(f"layer {idx}: {exc}")
        self.output_shape = shape
        self._slices, params, offset = [], [np.zeros(0, np.float32)], 0
        for layer in self.layers:
            slices = {}
            for name, p in sorted(layer.params().items()):
                slices[name] = slice(offset, offset + p.size)
                params.append(p.ravel())
                offset += p.size
            self._slices.append(slices)
        self.theta = np.concatenate(params)
        self._bind()

    def _bind(self):
        """Point every layer parameter at its slice of ``theta``."""
        for layer, slices in zip(self.layers, self._slices):
            for name, s in slices.items():
                shape = getattr(layer, name).shape
                setattr(layer, name, self.theta[s].reshape(shape))

    def set_dtype(self, dtype):
        self.theta = self.theta.astype(dtype)
        self._bind()

    def forward(self, x):
        """Run the stack; returns (output, cache handle for backward)."""
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} != expected {self.input_shape}"
            )
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, dout, params=True):
        """``(None, grad)``: the parameter gradient, laid out like
        ``theta``; the first layer computes no input gradient.  With
        ``params=False``, ``(dx, None)``: the input gradient, and no layer
        computes a parameter gradient."""
        if len(caches) != len(self.layers):
            raise InvalidInput("cache does not match this network")
        grad = np.empty_like(self.theta) if params else None
        for i in range(len(self.layers) - 1, -1, -1):
            dout, g = self.layers[i].backward(
                caches[i], dout, dx=i > 0 or not params, params=params)
            if params:
                for name, s in self._slices[i].items():
                    grad[s] = g[name].ravel()
        return (None, grad) if params else (dout, None)

    # -- serialization ------------------------------------------------------

    def weight_bytes(self, dtype="<f4"):
        return self.theta.astype(dtype).tobytes()

    def load_weight_bytes(self, blob, dtype="<f4"):
        """Overwrite ``theta``; on a size mismatch, raise before writing."""
        if len(blob) != self.theta.size * np.dtype(dtype).itemsize:
            raise CorruptData("weight payload size mismatch")
        self.theta[:] = np.frombuffer(blob, dtype=dtype)

    def specs(self):
        return [layer.spec() for layer in self.layers]

    @classmethod
    def from_specs(cls, specs, input_shape, rng=None, dtype=np.float32):
        return cls(_layers(specs, rng, dtype), input_shape)


def _layers(specs, rng, dtype):
    layers = []
    for s in specs:
        cls = _LAYER_KINDS.get(s.get("kind"))
        if cls is None:
            raise ConfigError(f"unknown layer kind {s.get('kind')!r}")
        weighted = cls in (Dense, Conv2D, ConvTranspose2D)
        kw = {"rng": rng, "dtype": dtype} if weighted else {}
        layers.append(cls(*(s[a] for a in cls.args), **kw))
    return layers


def save_network(net: Network, directory, extra=None, seed=None, step=0):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = net.weight_bytes()
    model = {
        "format": "NNCK",
        "version": 1,
        "input_shape": list(net.input_shape),
        "layers": net.specs(),
        "seed": seed,
        "step": step,
        "weights_sha256": hashlib.sha256(blob).hexdigest(),
        "extra": extra or {},
    }
    (directory / "model.json").write_text(
        json.dumps(model, indent=2, sort_keys=True)
    )
    (directory / "weights.f32le").write_bytes(blob)


_is_shape = checked.predicate(
    "a non-empty list of positive integers",
    lambda x: isinstance(x, list) and x and all(checked.is_int(d) and d > 0
                                                for d in x))
_is_specs = checked.predicate(
    "a list of objects",
    lambda x: isinstance(x, list) and all(map(checked.is_object, x)))


def load_network(directory, dtype=np.float32):
    """Read an NNCK v1 checkpoint.  ``UnsupportedVersion`` unless
    ``model.json`` is tagged NNCK v1; ``CorruptData`` unless it is a JSON
    object holding a ``weights_sha256`` that matches the payload, an
    ``input_shape`` list of positive integers and a ``layers`` list of
    layer specs that build a network on that input, and unless the payload
    fills that network.  The payload size is checked before the layers'
    parameters are gathered into one vector, so a spec that does not match
    the payload stops there; the layers' zero arrays are made first."""
    directory = Path(directory)
    model = checked.read_object(
        directory / "model.json", "model.json",
        {"format": "NNCK", "version": 1}, weights_sha256=checked.is_str,
        input_shape=_is_shape, layers=_is_specs)
    blob = checked.read_bytes(directory / "weights.f32le")
    if hashlib.sha256(blob).hexdigest() != model["weights_sha256"]:
        raise CorruptData("weights checksum mismatch")
    try:
        layers = _layers(model["layers"], None, dtype)
        size = sum(p.size for layer in layers for p in layer.params().values())
        if size * np.dtype("<f4").itemsize != len(blob):
            raise CorruptData("weight payload size mismatch")
        net = Network(layers, model["input_shape"])
    except (ConfigError, InvalidInput, ShapeError, KeyError, TypeError,
            ValueError, ArithmeticError, MemoryError) as exc:
        raise CorruptData(
            f"model.json layers do not build a network: {exc}") from None
    net.load_weight_bytes(blob)
    return net, model


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard bias-corrected Adam, updating a network's ``theta`` in place."""

    def __init__(self, net: Network, lr=1e-3, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        if not (0 < beta1 < 1 and 0 < beta2 < 1):
            raise InvalidInput("betas must lie in (0, 1)")
        if epsilon <= 0:
            raise InvalidInput("epsilon must be positive")
        self.net = net
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.step_count = 0
        self.m, self.v, self._s, self._r = (
            np.zeros_like(net.theta) for _ in range(4)
        )

    def step(self, grad):
        if not np.all(np.isfinite(grad)):
            raise NumericalFailure("NaN/Inf gradient; training halted")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        m, v, s, r = self.m, self.v, self._s, self._r
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g
        m *= b1
        np.multiply(grad, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(grad, 1 - b2, out=s)
        s *= grad
        v += s
        # theta -= lr mhat / (sqrt(vhat) + epsilon)
        np.divide(m, 1 - b1 ** t, out=s)
        s *= self.lr
        np.divide(v, 1 - b2 ** t, out=r)
        np.sqrt(r, out=r)
        r += self.epsilon
        s /= r
        self.net.theta -= s


# ---------------------------------------------------------------------------
# verification


def gradient_check(net: Network, x, loss_fn, n_probes=100, h=1e-5, seed=0):
    """Central finite-difference check of backprop gradients.

    ``loss_fn(y) -> (scalar loss, dL/dy)``.  The network should be built
    in float64.  Returns the max relative error over the probed
    parameters.
    """
    y, caches = net.forward(x)
    _, dy = loss_fn(y)
    _, grad = net.backward(caches, dy)
    theta = net.theta

    rng = np.random.Generator(np.random.PCG64(seed))
    max_rel = 0.0
    for _ in range(n_probes):
        k = int(rng.integers(theta.size))
        orig = theta[k]
        theta[k] = orig + h
        lp, _ = loss_fn(net.forward(x)[0])
        theta[k] = orig - h
        lm, _ = loss_fn(net.forward(x)[0])
        theta[k] = orig
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(grad[k]), 1e-8)
        max_rel = max(max_rel, abs(fd - grad[k]) / denom)
    return max_rel
