"""Minimal neural engine: dense/conv layers, backprop, Adam.

Backpropagation is implemented as hand-written per-layer backward rules
over a static layer list; there is no general autodiff tape.  Every rule
is verifiable against central finite differences (:func:`gradient_check`)
in float64 mode.  Training runs in float32 by default.

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
from pathlib import Path

import numpy as np

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
    """Base layer: stateless apart from parameters."""

    def params(self) -> dict:
        return {}

    def spec(self) -> dict:
        raise NotImplementedError

    def out_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, x):
        """Return (output, cache)."""
        raise NotImplementedError

    def backward(self, cache, dout):
        """Return (dx, {param_name: grad})."""
        raise NotImplementedError


def _glorot(rng, fan_in, fan_out, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense(Layer):
    def __init__(self, n_in, n_out, rng=None, dtype=np.float32):
        self.n_in, self.n_out = n_in, n_out
        if rng is None:
            self.w = np.zeros((n_in, n_out), dtype=dtype)
        else:
            self.w = _glorot(rng, n_in, n_out, (n_in, n_out), dtype)
        self.b = np.zeros(n_out, dtype=dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def spec(self):
        return {"kind": "dense", "n_in": self.n_in, "n_out": self.n_out}

    def out_shape(self, in_shape):
        if in_shape != (self.n_in,):
            raise ShapeError(f"dense expects ({self.n_in},), got {in_shape}")
        return (self.n_out,)

    def forward(self, x):
        return x @ self.w + self.b, x

    def backward(self, cache, dout):
        x = cache
        dw = x.T @ dout
        db = dout.sum(axis=0)
        return dout @ self.w.T, {"w": dw, "b": db}


class _Activation(Layer):
    def out_shape(self, in_shape):
        return in_shape


class ReLU(_Activation):
    def spec(self):
        return {"kind": "relu"}

    def forward(self, x):
        return np.maximum(x, 0), x

    def backward(self, cache, dout):
        return dout * (cache > 0), {}


class LeakyReLU(_Activation):
    def __init__(self, alpha=0.2):
        self.alpha = alpha

    def spec(self):
        return {"kind": "leaky_relu", "alpha": self.alpha}

    def forward(self, x):
        return np.where(x > 0, x, self.alpha * x), x

    def backward(self, cache, dout):
        return dout * np.where(cache > 0, 1.0, self.alpha).astype(dout.dtype), {}


class Tanh(_Activation):
    def spec(self):
        return {"kind": "tanh"}

    def forward(self, x):
        y = np.tanh(x)
        return y, y

    def backward(self, cache, dout):
        return dout * (1.0 - cache * cache), {}


class Sigmoid(_Activation):
    def spec(self):
        return {"kind": "sigmoid"}

    def forward(self, x):
        y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def backward(self, cache, dout):
        return dout * cache * (1.0 - cache), {}


class Flatten(Layer):
    def spec(self):
        return {"kind": "flatten"}

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, dout):
        return dout.reshape(cache), {}


class Reshape(Layer):
    def __init__(self, shape):
        self.shape = tuple(shape)

    def spec(self):
        return {"kind": "reshape", "shape": list(self.shape)}

    def out_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.shape)):
            raise ShapeError(
                f"cannot reshape {in_shape} into {self.shape}"
            )
        return self.shape

    def forward(self, x):
        return x.reshape((x.shape[0],) + self.shape), x.shape

    def backward(self, cache, dout):
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

    def spec(self):
        return {
            "kind": "conv2d", "in_ch": self.in_ch, "out_ch": self.out_ch,
            "kernel": self.kernel, "stride": self.stride, "pad": self.pad,
        }

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

    def backward(self, cache, dout):
        x_shape, cols = cache
        k, s, p = self.kernel, self.stride, self.pad
        n = dout.shape[0]
        d2 = dout.reshape(n, self.out_ch, -1)
        w2 = self.w.reshape(self.out_ch, -1)
        dw = np.einsum("nol,ncl->oc", d2, cols).reshape(self.w.shape)
        db = d2.sum(axis=(0, 2))
        dcols = np.einsum("oc,nol->ncl", w2, d2)
        dx = _col2im(dcols, x_shape, k, k, s, p)
        return dx, {"w": dw, "b": db}


class ConvTranspose2D(Layer):
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

    def spec(self):
        return {
            "kind": "conv_transpose2d", "in_ch": self.in_ch,
            "out_ch": self.out_ch, "kernel": self.kernel,
            "stride": self.stride, "pad": self.pad,
        }

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

    def backward(self, cache, dout):
        x, out_shape = cache
        k, s, p = self.kernel, self.stride, self.pad
        n, c, h, w = x.shape
        dcols, _ = _im2col(dout, k, k, s, p)
        w2 = self.w.reshape(self.in_ch, -1)
        x2 = x.reshape(n, c, h * w)
        dx = np.einsum("cf,nfl->ncl", w2, dcols).reshape(x.shape)
        dw = np.einsum("ncl,nfl->cf", x2, dcols).reshape(self.w.shape)
        db = dout.sum(axis=(0, 2, 3))
        return dx, {"w": dw, "b": db}


_LAYER_KINDS = {
    "dense": lambda s, **kw: Dense(s["n_in"], s["n_out"], **kw),
    "relu": lambda s, **kw: ReLU(),
    "leaky_relu": lambda s, **kw: LeakyReLU(s["alpha"]),
    "tanh": lambda s, **kw: Tanh(),
    "sigmoid": lambda s, **kw: Sigmoid(),
    "flatten": lambda s, **kw: Flatten(),
    "reshape": lambda s, **kw: Reshape(s["shape"]),
    "conv2d": lambda s, **kw: Conv2D(
        s["in_ch"], s["out_ch"], s["kernel"], s["stride"], s["pad"], **kw
    ),
    "conv_transpose2d": lambda s, **kw: ConvTranspose2D(
        s["in_ch"], s["out_ch"], s["kernel"], s["stride"], s["pad"], **kw
    ),
}


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

    def backward(self, caches, dout):
        """Input gradient and parameter gradient (laid out like ``theta``)."""
        if len(caches) != len(self.layers):
            raise InvalidInput("cache does not match this network")
        grad = np.empty_like(self.theta)
        for i in range(len(self.layers) - 1, -1, -1):
            dout, g = self.layers[i].backward(caches[i], dout)
            for name, s in self._slices[i].items():
                grad[s] = g[name].ravel()
        return dout, grad

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
        layers = []
        for s in specs:
            kind = s.get("kind")
            if kind not in _LAYER_KINDS:
                raise ConfigError(f"unknown layer kind {kind!r}")
            layers.append(_LAYER_KINDS[kind](s, rng=rng, dtype=dtype))
        return cls(layers, input_shape)


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


def load_network(directory, dtype=np.float32):
    directory = Path(directory)
    model = json.loads((directory / "model.json").read_text())
    if model.get("format") != "NNCK" or model.get("version") != 1:
        raise CorruptData("not an NNCK v1 checkpoint")
    blob = (directory / "weights.f32le").read_bytes()
    if hashlib.sha256(blob).hexdigest() != model["weights_sha256"]:
        raise CorruptData("weights checksum mismatch")
    net = Network.from_specs(model["layers"], model["input_shape"], dtype=dtype)
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
