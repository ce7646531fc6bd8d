import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import neural_reference
from corrlab import neural
from corrlab.exceptions import (
    ConfigError,
    CorruptData,
    InvalidInput,
    NumericalFailure,
    ShapeError,
)


def g64(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def sq_loss(y):
    return 0.5 * float(np.sum(y.astype(np.float64) ** 2)), y.astype(y.dtype)


def check(net, x, seed=0, n_probes=50):
    return neural.gradient_check(net, x, sq_loss, n_probes=n_probes, seed=seed)


class TestLayerGradients:
    def test_dense(self):
        net = neural.Network(
            [neural.Dense(7, 5, g64(1), dtype=np.float64)], (7,)
        )
        assert check(net, g64(2).standard_normal((4, 7))) < 1e-6

    @pytest.mark.parametrize("act", [neural.ReLU, neural.Tanh, neural.Sigmoid])
    def test_activations(self, act):
        net = neural.Network(
            [neural.Dense(6, 6, g64(3), dtype=np.float64), act()], (6,)
        )
        assert check(net, g64(4).standard_normal((3, 6))) < 1e-5

    def test_leaky_relu(self):
        net = neural.Network(
            [neural.Dense(6, 6, g64(5), dtype=np.float64),
             neural.LeakyReLU(0.2)],
            (6,),
        )
        assert check(net, g64(6).standard_normal((3, 6))) < 1e-5

    def test_conv2d(self):
        net = neural.Network(
            [neural.Conv2D(2, 3, 3, stride=1, pad=1, rng=g64(7),
                           dtype=np.float64)],
            (2, 6, 6),
        )
        assert check(net, g64(8).standard_normal((2, 2, 6, 6))) < 1e-6

    def test_conv_transpose2d(self):
        net = neural.Network(
            [neural.ConvTranspose2D(3, 2, 4, stride=2, pad=1, rng=g64(9),
                                    dtype=np.float64)],
            (3, 4, 4),
        )
        assert check(net, g64(10).standard_normal((2, 3, 4, 4))) < 1e-6

    def test_composed_stack(self):
        net = neural.Network(
            [
                neural.Dense(10, 16, g64(11), dtype=np.float64),
                neural.Tanh(),
                neural.Reshape((1, 4, 4)),
                neural.Conv2D(1, 2, 3, stride=1, pad=1, rng=g64(12),
                              dtype=np.float64),
                neural.Flatten(),
                neural.Dense(32, 3, g64(13), dtype=np.float64),
            ],
            (10,),
        )
        assert check(net, g64(14).standard_normal((3, 10))) < 1e-5


class TestConvOracle:
    def test_conv2d_matches_naive(self):
        conv = neural.Conv2D(2, 3, 3, stride=2, pad=1, rng=g64(20),
                             dtype=np.float64)
        x = g64(21).standard_normal((2, 2, 5, 5))
        y, _ = conv.forward(x)
        # naive loop oracle
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        n, _, hp, wp = xp.shape
        oh = (hp - 3) // 2 + 1
        ow = (wp - 3) // 2 + 1
        ref = np.zeros((n, 3, oh, ow))
        for b in range(n):
            for o in range(3):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[b, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        ref[b, o, i, j] = np.sum(patch * conv.w[o]) + conv.b[o]
        assert np.allclose(y, ref, atol=1e-10)

    def test_conv_transpose_is_conv_adjoint(self):
        # forward of ConvTranspose2D is the adjoint of Conv2D's forward:
        # <conv(x), y> == <x, convT(y)> when they share the kernel
        conv = neural.Conv2D(2, 3, 3, stride=2, pad=1, rng=g64(22),
                             dtype=np.float64)
        convt = neural.ConvTranspose2D(3, 2, 3, stride=2, pad=1, rng=g64(23),
                                       dtype=np.float64)
        convt.w = np.transpose(conv.w, (0, 1, 2, 3)).copy()
        convt.b = np.zeros_like(convt.b)
        conv.b = np.zeros_like(conv.b)
        x = g64(24).standard_normal((1, 2, 5, 5))
        yx, _ = conv.forward(x)
        y = g64(25).standard_normal(yx.shape)
        xt, _ = convt.forward(y)
        assert xt.shape[2:] == x.shape[2:]
        assert np.isclose(np.sum(yx * y), np.sum(x * xt), rtol=1e-10)


class TestNetwork:
    def test_shape_chain_validated(self):
        with pytest.raises(ShapeError, match="layer 1"):
            neural.Network(
                [neural.Dense(4, 5, g64(0)), neural.Dense(6, 2, g64(0))], (4,)
            )

    def test_forward_rejects_wrong_input(self):
        net = neural.Network([neural.Dense(4, 2, g64(0))], (4,))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 5), dtype=np.float32))

    def test_spec_round_trip(self):
        net = neural.Network(
            [neural.Dense(4, 8, g64(1)), neural.LeakyReLU(0.2),
             neural.Dense(8, 2, g64(2)), neural.Sigmoid()],
            (4,),
        )
        clone = neural.Network.from_specs(net.specs(), (4,), rng=g64(3))
        clone.load_weight_bytes(net.weight_bytes())
        x = g64(4).standard_normal((3, 4)).astype(np.float32)
        assert np.array_equal(net.forward(x)[0], clone.forward(x)[0])

    def test_unknown_layer_kind(self):
        with pytest.raises(ConfigError):
            neural.Network.from_specs([{"kind": "attention"}], (4,))


def leaky_inputs(dtype, shape):
    """Arrays of ``dtype`` drawn as floats (+-0.0, +-inf, NaN and
    subnormals included) or as raw bit patterns, which reach every NaN
    payload, signalling ones too."""
    dtype = np.dtype(dtype)
    floats = st.floats(width=dtype.itemsize * 8, allow_subnormal=True)
    return (hnp.arrays(dtype, shape, elements=floats)
            | hnp.arrays(f"u{dtype.itemsize}", shape).map(
                lambda bits: bits.view(dtype)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeakyReLU:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([0.01, 0.1, 0.2, 0.3, 0.7, 1.0])
           | st.floats(min_value=0, max_value=1, exclude_min=True))
    def test_branch_free_equals_select(self, data, dtype, alpha):
        x = data.draw(leaky_inputs(
            dtype, hnp.array_shapes(max_dims=2, max_side=6)))
        dout = data.draw(leaky_inputs(dtype, x.shape))
        layer = neural.LeakyReLU(alpha)
        with np.errstate(invalid="ignore"):  # NaN and inf inputs
            y, cache = layer.forward(x)
            ref_y, ref_cache = neural_reference.leaky_forward(layer, x)
            dx, _ = layer.backward(cache, dout)
            ref_dx, _ = neural_reference.leaky_backward(layer, ref_cache, dout)
        assert same_bits(y, ref_y)
        assert same_bits(dx, ref_dx)

    @pytest.mark.parametrize("alpha", [
        0, 0.0, -0.2, 1.5, float("nan"), float("inf"), -float("inf"), True,
        "0.2", None,
    ])
    def test_refuses_alpha_outside_unit_interval(self, alpha, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            neural.LeakyReLU(alpha)
        spec = [{"kind": "leaky_relu", "alpha": alpha}]
        with pytest.raises(ConfigError, match="alpha"):
            neural.Network.from_specs(spec, (4,))
        if isinstance(alpha, float) and not np.isfinite(alpha):
            return  # JSON holds no NaN or infinity
        neural.save_network(
            neural.Network([neural.LeakyReLU(0.5)], (4,)), tmp_path)
        model = json.loads((tmp_path / "model.json").read_text())
        model["layers"] = spec
        (tmp_path / "model.json").write_text(json.dumps(model))
        with pytest.raises(ConfigError, match="alpha"):
            neural.load_network(tmp_path)


def backward_stacks():
    g = g64(20)
    return {
        "dense": neural.Network(
            [neural.Dense(10, 16, g), neural.LeakyReLU(0.2),
             neural.Dense(16, 8, g), neural.Tanh()], (10,)),
        "conv": neural.Network(
            [neural.Conv2D(2, 4, 4, 2, 1, g), neural.LeakyReLU(0.2),
             neural.ConvTranspose2D(4, 3, 4, 2, 1, g), neural.LeakyReLU(0.2),
             neural.Flatten(), neural.Dense(3 * 8 * 8, 1, g)], (2, 8, 8)),
        "conv-transpose-first": neural.Network(
            [neural.ConvTranspose2D(3, 2, 4, 2, 1, g), neural.Sigmoid(),
             neural.Conv2D(2, 1, 3, 1, 1, g), neural.Flatten()], (3, 4, 4)),
        "activation-first": neural.Network(
            [neural.LeakyReLU(0.3), neural.Dense(6, 2, g)], (6,)),
    }


class TestBackwardModes:
    @pytest.mark.parametrize("name", list(backward_stacks()))
    def test_each_mode_equals_full_backward(self, name):
        net = backward_stacks()[name]
        g = g64(21)
        x = g.standard_normal((5,) + net.input_shape).astype(np.float32)
        y, caches = net.forward(x)
        dout = g.standard_normal(y.shape).astype(np.float32)
        ref_dx, ref_grad = neural_reference.network_backward(net, caches, dout)
        dx, no_grad = net.backward(caches, dout, params=False)
        no_dx, grad = net.backward(caches, dout)
        assert no_grad is None and no_dx is None
        assert same_bits(dx, ref_dx)
        assert same_bits(grad, ref_grad)
        assert np.abs(dx).max() > 0 and np.abs(grad).max() > 0

    def test_layers_skip_what_is_not_asked(self):
        layer = neural.Dense(3, 2, g64(22))
        _, cache = layer.forward(np.ones((4, 3), np.float32))
        dout = np.ones((4, 2), np.float32)
        assert layer.backward(cache, dout, dx=False)[0] is None
        assert layer.backward(cache, dout, params=False)[1] == {}


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        net = neural.Network(
            [neural.Dense(5, 7, g64(5)), neural.Tanh(),
             neural.Dense(7, 2, g64(6))],
            (5,),
        )
        neural.save_network(net, tmp_path / "n", seed=42)
        back, meta = neural.load_network(tmp_path / "n")
        assert meta["seed"] == 42
        assert back.weight_bytes() == net.weight_bytes()

    @pytest.mark.parametrize("edit", [
        lambda b: b[:-4], lambda b: b + b"\0" * 4,
    ], ids=["short", "long"])
    def test_wrong_size_blob_leaves_network_unchanged(self, edit):
        def net(seed):
            return neural.Network(
                [neural.Dense(3, 4, g64(seed)), neural.Tanh(),
                 neural.Dense(4, 2, g64(seed + 1))],
                (3,),
            )

        target = net(30)
        before = target.weight_bytes()
        with pytest.raises(CorruptData, match="size mismatch"):
            target.load_weight_bytes(edit(net(40).weight_bytes()))
        assert target.weight_bytes() == before

    def test_corrupted_weights(self, tmp_path):
        net = neural.Network([neural.Dense(3, 3, g64(7))], (3,))
        neural.save_network(net, tmp_path / "n")
        blob = bytearray((tmp_path / "n" / "weights.f32le").read_bytes())
        blob[0] ^= 0xFF
        (tmp_path / "n" / "weights.f32le").write_bytes(bytes(blob))
        with pytest.raises(CorruptData):
            neural.load_network(tmp_path / "n")


def reference_adam_step(params, m, v, grad, t, lr, b1=0.9, b2=0.999,
                        eps=1e-8):
    """One bias-corrected Adam step, one parameter array at a time, with
    ``grad`` split in NNCK order; the arrays in ``params`` are updated in
    place and ``m``/``v`` are lists of per-parameter moments."""
    offset = 0
    for k, p in enumerate(params):
        g = grad[offset:offset + p.size].reshape(p.shape)
        offset += p.size
        m[k] = b1 * m[k] + (1 - b1) * g
        v[k] = b2 * v[k] + (1 - b2) * g * g
        mhat = m[k] / (1 - b1 ** t)
        vhat = v[k] / (1 - b2 ** t)
        p[...] = (p - lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype)


class TestAdam:
    def test_matches_per_parameter_reference(self):
        def net():
            return neural.Network(
                [neural.Dense(5, 16, g64(50)), neural.Tanh(),
                 neural.Dense(16, 3, g64(51))],
                (5,),
            )

        ours, ref = net(), net()
        opt = neural.Adam(ours, lr=1e-2, beta1=0.5)
        params = [p for layer in ref.layers
                  for _, p in sorted(layer.params().items())]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        x = g64(52).standard_normal((16, 5)).astype(np.float32)
        t = g64(53).standard_normal((16, 3)).astype(np.float32)
        for step in range(1, 51):
            for n in (ours, ref):
                y, caches = n.forward(x)
                _, grad = n.backward(caches, (y - t) / len(x))
                if n is ours:
                    opt.step(grad)
                else:
                    reference_adam_step(params, m, v, grad, step, lr=1e-2,
                                        b1=0.5)
            assert ours.theta.tobytes() == ref.theta.tobytes(), step
        assert ours.theta.dtype == np.float32
        assert ours.theta.tobytes() != net().theta.tobytes()

    def test_decreases_regression_loss(self):
        net = neural.Network(
            [neural.Dense(3, 8, g64(8)), neural.Tanh(),
             neural.Dense(8, 1, g64(9))],
            (3,),
        )
        opt = neural.Adam(net, lr=1e-2)
        x = g64(10).standard_normal((32, 3)).astype(np.float32)
        t = (x[:, :1] * 0.5 - 0.2).astype(np.float32)

        def loss():
            y, caches = net.forward(x)
            return float(np.mean((y - t) ** 2)), y, caches

        l0, y, caches = loss()
        for _ in range(200):
            y, caches = net.forward(x)
            _, grads = net.backward(caches, 2 * (y - t) / len(x))
            opt.step(grads)
        l1, _, _ = loss()
        assert l1 < 0.1 * l0

    def test_nan_gradient_raises(self):
        net = neural.Network([neural.Dense(2, 2, g64(11))], (2,))
        opt = neural.Adam(net)
        x = np.zeros((1, 2), dtype=np.float32)
        _, caches = net.forward(x)
        _, grads = net.backward(caches, np.full((1, 2), np.nan, np.float32))
        with pytest.raises(NumericalFailure):
            opt.step(grads)

    def test_rejects_bad_hyperparams(self):
        net = neural.Network([neural.Dense(2, 2, g64(12))], (2,))
        with pytest.raises(InvalidInput):
            neural.Adam(net, beta1=1.5)
