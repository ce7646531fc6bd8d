"""Conditional GAN over the elliptope.

The generator maps (noise, one-hot regime) to the strict lower triangle
of a correlation matrix through a final Tanh, which guarantees symmetry,
unit diagonal and entries in (-1, 1) by construction; positive
semidefiniteness is restored after sampling by nearest-correlation
projection.  The discriminator scores (lower triangle, one-hot regime)
pairs and ends in a dense layer that emits a logit.  The one-hot code has
one slot per regime of ``samplers.REGIMES``, in that order; the regime
count is fixed by that tuple, not configured.

Training uses the non-saturating GAN loss with alternating updates and
is fully deterministic under the configured seed.  The loss is binary
cross-entropy on logits, whose gradient (sigmoid(l) - t) / n stays exact
where a float32 sigmoid saturates.  Each discriminator step takes one
forward and one backward pass over the stacked [real; fake] batch.  Each
generator step takes only the discriminator's input gradient
(``backward(..., params=False)``): it computes no discriminator weight
gradient, which that step would discard.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import neural, rng
from .core import nearest_correlation
from .corpus import LabeledCorpus
from .exceptions import (ConfigError, CorruptData, InvalidInput,
                         NumericalFailure, TrainingDiverged)
from .samplers import REGIMES, RegimeLabel

_SUPPORTED_DIMS = (16, 32, 80)
# row k is the one-hot code of REGIMES[k] (read-only: every caller shares it)
_ONE_HOT = np.eye(len(REGIMES), dtype=np.float32)
_ONE_HOT.flags.writeable = False


@dataclass
class GanConfig:
    dim: int = 16
    noise_dim: int = 64
    arch: str = "dense"
    epochs: int = 300
    batch_size: int = 32
    lr_g: float = 2e-4
    lr_d: float = 2e-4
    d_steps_per_g: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.dim not in _SUPPORTED_DIMS:
            raise ConfigError(f"dim must be one of {_SUPPORTED_DIMS}")
        if self.batch_size < 8:
            raise ConfigError("batch_size must be >= 8")
        if self.arch not in ("dense", "conv"):
            raise ConfigError("arch must be 'dense' or 'conv'")

    @property
    def tri_len(self) -> int:
        return self.dim * (self.dim - 1) // 2

    def to_dict(self):
        return asdict(self)

    @classmethod
    def unknown_keys(cls, d) -> list:
        """The keys of ``d`` that ``from_dict`` does not know, sorted."""
        return sorted(set(d) - {f.name for f in fields(cls)} - {"regime_count"})

    @classmethod
    def from_dict(cls, d):
        """Config from ``to_dict``'s keys; ``ConfigError`` names any other.
        A ``regime_count`` key, which older configs and checkpoints hold,
        is dropped when it equals ``len(REGIMES)`` and refused otherwise."""
        unknown = cls.unknown_keys(d)
        if unknown:
            raise ConfigError(f"unknown keys {unknown}")
        d = dict(d)
        count = d.pop("regime_count", len(REGIMES))
        if type(count) is not int or count != len(REGIMES):
            raise ConfigError(f"regime_count must be {len(REGIMES)}, one per "
                              f"regime, not {count!r}")
        return cls(**d)


@dataclass
class GanCheckpoint:
    config: GanConfig
    generator: neural.Network
    discriminator: neural.Network
    epoch: int = 0
    loss_history: list = field(default_factory=list)
    mode_collapse_flag: bool = False

    @property
    def trained(self) -> bool:
        return self.epoch > 0


def tri_indices(dim: int):
    return np.tril_indices(dim, k=-1)


def tri_from_matrix(c: np.ndarray) -> np.ndarray:
    i, j = tri_indices(c.shape[0])
    return c[i, j]


def matrix_from_tri(t: np.ndarray, dim: int) -> np.ndarray:
    c = np.eye(dim)
    i, j = tri_indices(dim)
    c[i, j] = t
    c[j, i] = t
    return c


def one_hot(regime: RegimeLabel) -> np.ndarray:
    """Read-only float32 one-hot code of ``regime``."""
    return _ONE_HOT[REGIMES.index(regime)]


def build(config: GanConfig) -> GanCheckpoint:
    """Untrained generator/discriminator pair for the given config."""
    g = np.random.Generator(np.random.PCG64(rng.mix(config.seed, 0)))
    tri = config.tri_len
    zin = config.noise_dim + len(REGIMES)
    din = tri + len(REGIMES)

    if config.arch == "dense":
        gen = neural.Network([
            neural.Dense(zin, 256, g), neural.LeakyReLU(0.2),
            neural.Dense(256, 256, g), neural.LeakyReLU(0.2),
            neural.Dense(256, tri, g), neural.Tanh(),
        ], (zin,))
        disc = neural.Network([
            neural.Dense(din, 256, g), neural.LeakyReLU(0.2),
            neural.Dense(256, 128, g), neural.LeakyReLU(0.2),
            neural.Dense(128, 1, g),
        ], (din,))
    else:
        d = config.dim
        if d % 4 != 0:
            raise ConfigError("conv arch requires dim divisible by 4")
        base = d // 4
        ch = 32
        gen = neural.Network([
            neural.Dense(zin, ch * base * base, g), neural.LeakyReLU(0.2),
            neural.Reshape((ch, base, base)),
            neural.ConvTranspose2D(ch, ch // 2, 4, 2, 1, g),
            neural.LeakyReLU(0.2),
            neural.ConvTranspose2D(ch // 2, 1, 4, 2, 1, g),
            neural.Flatten(),
            neural.Dense(d * d, tri, g), neural.Tanh(),
        ], (zin,))
        disc = neural.Network([
            neural.Conv2D(1 + len(REGIMES), ch // 2, 4, 2, 1, g),
            neural.LeakyReLU(0.2),
            neural.Conv2D(ch // 2, ch, 4, 2, 1, g), neural.LeakyReLU(0.2),
            neural.Flatten(),
            neural.Dense(ch * base * base, 1, g),
        ], (1 + len(REGIMES), d, d))
    return GanCheckpoint(config, gen, disc)


def _disc_input(config, tri_batch, onehot_batch):
    """Assemble discriminator input from triangles and one-hot labels."""
    if config.arch == "dense":
        return np.concatenate([tri_batch, onehot_batch], axis=1)
    n = tri_batch.shape[0]
    d = config.dim
    i, j = tri_indices(d)
    img = np.zeros((n, 1 + len(REGIMES), d, d), dtype=tri_batch.dtype)
    img[:, 0][:, i, j] = tri_batch
    img[:, 0][:, j, i] = tri_batch
    img[:, 0, np.arange(d), np.arange(d)] = 1.0
    img[:, 1:] = onehot_batch[:, :, None, None]
    return img


def _disc_input_grad_tri(config, dinput):
    """Gradient of the triangle entries given the input gradient."""
    if config.arch == "dense":
        return dinput[:, : -len(REGIMES)]
    d = config.dim
    i, j = tri_indices(d)
    return dinput[:, 0][:, i, j] + dinput[:, 0][:, j, i]


def _bce_logits(logit, target):
    """Mean binary cross-entropy of sigmoid(``logit``) against ``target``,
    and its gradient (sigmoid(logit) - target) / n with respect to the
    ``n`` logits."""
    loss = float(np.mean(np.logaddexp(0, logit) - target * logit))
    sigmoid = np.exp(-np.logaddexp(0, -logit))
    return loss, (sigmoid - target) / logit.shape[0]


def train(
    ckpt: GanCheckpoint,
    corp: LabeledCorpus,
    progress=None,
) -> GanCheckpoint:
    """Alternating non-saturating GAN training, deterministic under seed."""
    config = ckpt.config
    if corp.dim != config.dim:
        raise ConfigError(f"corpus dim {corp.dim} != config dim {config.dim}")
    present = set(corp.labels())
    if present != set(REGIMES):
        raise ConfigError("corpus must contain every regime label")
    if not isinstance(ckpt.discriminator.layers[-1], neural.Dense):
        raise ConfigError("discriminator must end in a dense logit layer; a "
                          "sigmoid-ended checkpoint can only be sampled")

    tris = np.stack([tri_from_matrix(it.matrix) for it in corp.items]).astype(
        np.float32
    )
    hots = np.stack([one_hot(it.label) for it in corp.items])
    n = tris.shape[0]
    bs = min(config.batch_size, n)
    d_target = np.repeat(np.float32([[1.0], [0.0]]), bs, axis=0)

    opt_g = neural.Adam(ckpt.generator, lr=config.lr_g, beta1=0.5)
    opt_d = neural.Adam(ckpt.discriminator, lr=config.lr_d, beta1=0.5)

    gap_streak = 0
    for epoch in range(ckpt.epoch, config.epochs):
        g_epoch = rng.generator(config.seed, 1_000_000 + epoch)
        perm = g_epoch.permutation(n)
        g_losses, d_losses = [], []
        for b0 in range(0, n - bs + 1, bs):
            idx = perm[b0 : b0 + bs]
            real_tri, real_hot = tris[idx], hots[idx]

            for _ in range(config.d_steps_per_g):
                z = g_epoch.standard_normal((bs, config.noise_dim)).astype(
                    np.float32
                )
                fake_hot = _ONE_HOT[g_epoch.integers(0, len(REGIMES), size=bs)]
                gin = np.concatenate([z, fake_hot], axis=1)
                fake_tri, _ = ckpt.generator.forward(gin)

                x = _disc_input(config, np.concatenate([real_tri, fake_tri]),
                                np.concatenate([real_hot, fake_hot]))
                logit, cd = ckpt.discriminator.forward(x)
                d_loss, dlogit = _bce_logits(logit, d_target)
                _, grad = ckpt.discriminator.backward(cd, dlogit)
                try:
                    opt_d.step(grad)
                except NumericalFailure as exc:
                    raise TrainingDiverged(str(exc), last_checkpoint=ckpt)

            z = g_epoch.standard_normal((bs, config.noise_dim)).astype(
                np.float32
            )
            fake_hot = _ONE_HOT[g_epoch.integers(0, len(REGIMES), size=bs)]
            gin = np.concatenate([z, fake_hot], axis=1)
            fake_tri, cg = ckpt.generator.forward(gin)
            xf = _disc_input(config, fake_tri, fake_hot)
            logit, cf = ckpt.discriminator.forward(xf)
            g_loss, dlogit = _bce_logits(logit, 1.0)
            dinput, _ = ckpt.discriminator.backward(cf, dlogit, params=False)
            dtri = _disc_input_grad_tri(config, dinput)
            _, gg = ckpt.generator.backward(cg, dtri)
            try:
                opt_g.step(gg)
            except NumericalFailure as exc:
                raise TrainingDiverged(str(exc), last_checkpoint=ckpt)

            if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
                raise TrainingDiverged(
                    f"NaN loss at epoch {epoch}", last_checkpoint=ckpt
                )
            g_losses.append(g_loss)
            d_losses.append(d_loss)

        ckpt.loss_history.append(
            (float(np.mean(g_losses)), float(np.mean(d_losses)))
        )
        ckpt.epoch = epoch + 1

        # mode-collapse guard: inter-regime spread of mean correlation
        sf1 = _regime_sf1(ckpt, seed_offset=epoch)
        if max(sf1) - min(sf1) < 0.01:
            gap_streak += 1
            if gap_streak >= 50:
                ckpt.mode_collapse_flag = True
        else:
            gap_streak = 0
        if progress is not None:
            progress(epoch, ckpt.loss_history[-1], sf1)
    return ckpt


def _regime_sf1(ckpt, seed_offset=0, count=16):
    out = []
    for regime in REGIMES:
        t = _raw_tri(ckpt, regime, count, rng.mix(ckpt.config.seed, 77 + seed_offset))
        out.append(float(t.mean()))
    return out


def _raw_tri(ckpt, regime, count, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    z = g.standard_normal((count, ckpt.config.noise_dim)).astype(np.float32)
    hot = np.tile(one_hot(regime), (count, 1))
    gin = np.concatenate([z, hot], axis=1)
    t, _ = ckpt.generator.forward(gin)
    return t.astype(np.float64)


@dataclass
class SampleBatch:
    matrices: list
    displacements: list
    projected: bool
    untrained_warning: bool = False


def sample(
    ckpt: GanCheckpoint,
    regime: RegimeLabel,
    count: int,
    seed: int = 0,
    project: bool = True,
) -> SampleBatch:
    """Draw ``count`` conditioned matrices; optionally project onto the
    elliptope, reporting the Frobenius displacement per sample."""
    if count < 1:
        raise InvalidInput("count must be >= 1")
    tri = _raw_tri(ckpt, regime, count, rng.mix(seed, 31))
    mats, disps = [], []
    for k in range(count):
        raw = matrix_from_tri(tri[k], ckpt.config.dim)
        if project:
            proj = nearest_correlation(raw)
            disps.append(float(np.linalg.norm(proj - raw, ord="fro")))
            mats.append(proj)
        else:
            disps.append(0.0)
            mats.append(raw)
    return SampleBatch(mats, disps, project, untrained_warning=not ckpt.trained)


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(ckpt: GanCheckpoint, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    neural.save_network(
        ckpt.generator, directory / "generator", seed=ckpt.config.seed,
        step=ckpt.epoch,
    )
    neural.save_network(
        ckpt.discriminator, directory / "discriminator",
        seed=ckpt.config.seed, step=ckpt.epoch,
    )
    meta = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "loss_history": ckpt.loss_history,
        "mode_collapse_flag": ckpt.mode_collapse_flag,
    }
    (directory / "gan.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True)
    )


def load_checkpoint(directory) -> GanCheckpoint:
    """Read a checkpoint; ``CorruptData`` when ``gan.json``'s config holds
    a key that ``save_checkpoint`` never writes."""
    directory = Path(directory)
    meta = json.loads((directory / "gan.json").read_text())
    unknown = GanConfig.unknown_keys(meta["config"])
    if unknown:
        raise CorruptData(f"gan.json config holds unknown keys {unknown}")
    config = GanConfig.from_dict(meta["config"])
    gen, _ = neural.load_network(directory / "generator")
    disc, _ = neural.load_network(directory / "discriminator")
    return GanCheckpoint(
        config, gen, disc, epoch=meta["epoch"],
        loss_history=[tuple(x) for x in meta["loss_history"]],
        mode_collapse_flag=meta["mode_collapse_flag"],
    )
