"""Reference forms of the neural engine's LeakyReLU and backward.

``LeakyReLU`` is the select ``where(x > 0, x, alpha x)`` with a float64
slope mask, and the backward is the full one: every layer computes its
input gradient and its parameter gradients, and ``network_backward``
returns both, whatever the caller asked for.  Tests compare the engine's
branch-free activation and its gradient-skipping backward against these
bit for bit.
"""

import numpy as np

from corrlab import neural


def leaky_forward(layer, x):
    return np.where(x > 0, x, layer.alpha * x), x


def leaky_backward(layer, cache, dout, dx=True, params=True):
    return dout * np.where(cache > 0, 1.0, layer.alpha).astype(dout.dtype), {}


def _dense(layer, x, dout):
    return dout @ layer.w.T, {"w": x.T @ dout, "b": dout.sum(axis=0)}


def _conv2d(layer, cache, dout):
    x_shape, cols = cache
    k, s, p = layer.kernel, layer.stride, layer.pad
    d2 = dout.reshape(dout.shape[0], layer.out_ch, -1)
    w2 = layer.w.reshape(layer.out_ch, -1)
    dw = np.einsum("nol,ncl->oc", d2, cols).reshape(layer.w.shape)
    db = d2.sum(axis=(0, 2))
    dcols = np.einsum("oc,nol->ncl", w2, d2)
    return neural._col2im(dcols, x_shape, k, k, s, p), {"w": dw, "b": db}


def _conv_transpose2d(layer, cache, dout):
    x, _ = cache
    k, s, p = layer.kernel, layer.stride, layer.pad
    n, c, h, w = x.shape
    dcols, _ = neural._im2col(dout, k, k, s, p)
    w2 = layer.w.reshape(layer.in_ch, -1)
    x2 = x.reshape(n, c, h * w)
    dx = np.einsum("cf,nfl->ncl", w2, dcols).reshape(x.shape)
    dw = np.einsum("ncl,nfl->cf", x2, dcols).reshape(layer.w.shape)
    return dx, {"w": dw, "b": dout.sum(axis=(0, 2, 3))}


_FULL = {
    neural.Dense: _dense,
    neural.Conv2D: _conv2d,
    neural.ConvTranspose2D: _conv_transpose2d,
    neural.LeakyReLU: leaky_backward,
}


def network_backward(net, caches, dout, params=True):
    """``(dx, grad)``: both gradients, every layer computing both."""
    grad = np.empty_like(net.theta)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        full = _FULL.get(type(layer), type(layer).backward)
        dout, g = full(layer, caches[i], dout)
        for name, s in net._slices[i].items():
            grad[s] = g[name].ravel()
    return dout, grad


def install(monkeypatch):
    """Run the engine on the reference LeakyReLU and full backward."""
    monkeypatch.setattr(neural.LeakyReLU, "forward", leaky_forward)
    monkeypatch.setattr(neural.LeakyReLU, "backward", leaky_backward)
    monkeypatch.setattr(neural.Network, "backward", network_backward)
