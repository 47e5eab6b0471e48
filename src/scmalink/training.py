"""End-to-end training loop: linear encoder and multi-task decoder jointly.

Each iteration draws one batch of random user bits and one uniform Eb/N0,
runs encoder -> superposition -> AWGN channel -> decoder, and updates every
parameter (generator matrices and all network weights) with ADAM under an
exponentially decaying learning rate.

The per-user power constraint is enforced inside the forward pass as a
differentiable scaling c = gbar b / ||gbar||_F. Because the bit-pattern
matrix satisfies B B^T = M I, the Frobenius norm squared equals the average
codeword energy, so this is exactly unit average energy per user.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .channel import ebn0_to_n0, sample_noise_split
from .core import Codebook, ConfigError, IndicatorMatrix, SystemConfig, build_indicator
from .encoder import GeneratorSet, codeword_table, init_generators, normalize
from .nn import AdamState, MultiTaskDecoder, adam_step, cross_entropy


@dataclass(frozen=True)
class TrainConfig:
    alpha0: float = 1e-3
    beta: float = 0.9
    decay_step: int = 500
    batch_size: int = 1000
    n_iterations: int = 2000
    ebn0_min_db: float = 5.0
    ebn0_max_db: float = 11.0
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha0", "beta", "ebn0_min_db", "ebn0_max_db"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.alpha0 > 0:
            raise ConfigError("initial learning rate alpha0 must be positive")
        if not 0 < self.beta <= 1:
            raise ConfigError("decay factor beta must be in (0, 1]")
        if self.decay_step < 1:
            raise ConfigError("decay_step must be >= 1")
        if self.batch_size < 1 or self.n_iterations < 1:
            raise ConfigError("batch size and iteration count must be >= 1")
        if self.ebn0_min_db > self.ebn0_max_db:
            raise ConfigError("ebn0_min_db must not exceed ebn0_max_db")


@dataclass
class TrainReport:
    losses: np.ndarray
    learning_rates: np.ndarray
    generators: GeneratorSet
    decoder: MultiTaskDecoder
    codebook: Codebook
    wall_seconds: float
    iterations_run: int
    aborted: bool = False
    abort_reason: str = ""


def lr_schedule(cfg: TrainConfig, t: int) -> float:
    """alpha_t = alpha0 * beta^(t/D), with t/D a real exponent."""
    if t < 0:
        raise ConfigError("iteration index must be >= 0")
    return cfg.alpha0 * cfg.beta**(t / cfg.decay_step)


def sample_snr(cfg: TrainConfig, rng: np.random.Generator) -> float:
    """One Eb/N0 draw (dB), shared by the whole batch of the iteration."""
    return float(rng.uniform(cfg.ebn0_min_db, cfg.ebn0_max_db))


def random_generators(sys_cfg: SystemConfig, rng: np.random.Generator) -> GeneratorSet:
    """Fallback initialization: entries ~ normal(0, 1/(2N)), then unit energy."""
    g = rng.normal(0.0, 1.0 / np.sqrt(2 * sys_cfg.N),
                   size=(sys_cfg.J, 2 * sys_cfg.N, sys_cfg.bits_per_symbol))
    return normalize(GeneratorSet(gbar=g, config=sys_cfg))


def default_init(sys_cfg: SystemConfig, ind: IndicatorMatrix, cfg: TrainConfig,
                 codebook: Codebook | None = None):
    """Deterministic (generators, decoder) initialization derived from cfg.seed.

    Generators come from a least-squares fit to the given codebook (the
    recommended baseline initialization) or from the random fallback when no
    codebook is supplied. The init stream is a child of cfg.seed, distinct
    from the stream train() uses for data and noise.
    """
    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    decoder = MultiTaskDecoder.build(init_rng, 2 * sys_cfg.K, sys_cfg.J, sys_cfg.M)
    if codebook is not None:
        gen = init_generators(codebook.normalized())
    else:
        gen = random_generators(sys_cfg, init_rng)
    return gen, decoder


def learned_codebook(gen: GeneratorSet, ind: IndicatorMatrix) -> Codebook:
    """The codebook of trained generators: normalized to unit energy, then tabulated."""
    return codeword_table(normalize(gen), ind)


def _slot_indices(ind: IndicatorMatrix) -> np.ndarray:
    """(J, 2N) real-split positions of each user's symbol in the 2K received vector."""
    return np.concatenate([ind.supports, ind.n_resources + ind.supports], axis=1)


def _labels_from_bits(bits: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(batch, J, log2 M) +/-1 bits -> message indices and one-hot labels."""
    n_bits = bits.shape[-1]
    weights = 1 << np.arange(n_bits - 1, -1, -1)
    idx = (bits > 0) @ weights
    labels = np.zeros(idx.shape + (M,))
    np.put_along_axis(labels, idx[..., None], 1.0, axis=-1)
    return idx, labels


def _encoder_forward(gbar, bits, slots, K):
    """Normalized encoding and superposition: returns (batch, 2K) and norms.

    This is encoder.superimpose in the generator domain, kept separate
    because the generator gradient needs the norms and the real-split layout.
    """
    batch = bits.shape[0]
    s = np.zeros((batch, 2 * K))
    norms = []
    for j, g in enumerate(gbar):
        n = np.linalg.norm(g)
        if n == 0:
            raise ConfigError(f"user {j} generator collapsed to zero during training")
        s[:, slots[j]] += (bits[:, j, :] @ g.T) / n
        norms.append(n)
    return s, norms


def _loss_and_gradients(gbar, decoder, bits, labels, noise, slots, K, h_split=None):
    """Batch loss plus the analytic gradient of the (J, 2N, log2 M) generator
    stack; decoder layers accumulate their own gradients as a side effect."""
    s, norms = _encoder_forward(gbar, bits, slots, K)
    h = np.ones(2 * K) if h_split is None else h_split
    r = s * h + noise
    probs = decoder.forward(r, remember=True)
    loss = cross_entropy(probs, labels)
    grad_r = decoder.backward_cross_entropy(probs, labels)
    grad_s = grad_r * h
    # d loss / d (g / ||g||), then through the normalization, every user at once
    raw = np.matmul(grad_s[:, slots].transpose(1, 2, 0), bits.transpose(1, 0, 2))
    n = np.array(norms)[:, None, None]
    a = gbar / n
    return loss, (raw - np.sum(raw * a, axis=(1, 2), keepdims=True) * a) / n


def train(cfg: TrainConfig, sys_cfg: SystemConfig, ind: IndicatorMatrix,
          init: GeneratorSet, decoder: MultiTaskDecoder,
          progress_every: int = 0) -> TrainReport:
    """Run the full training loop and extract the learned codebook.

    Deterministic for a given (cfg, init, decoder): all randomness comes from
    a generator seeded with cfg.seed. Aborts on a non-finite loss, restoring
    the parameters of the last finite iteration.
    """
    decoder.check_fits(sys_cfg)
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    slots = _slot_indices(ind)

    gbar = init.gbar.copy()
    params = [gbar] + decoder.parameters()
    adam = AdamState.for_parameters(params)

    losses = np.empty(cfg.n_iterations)
    lrs = np.empty(cfg.n_iterations)
    last_good = [p.copy() for p in params]
    aborted = False
    reason = ""
    it_run = 0

    for i in range(cfg.n_iterations):
        t = i + 1  # Algorithm counts iterations from 1
        lr = lr_schedule(cfg, t)
        snr_db = sample_snr(cfg, rng)
        n0 = ebn0_to_n0(snr_db, sys_cfg.M)
        bits = rng.integers(0, 2, size=(cfg.batch_size, sys_cfg.J, sys_cfg.bits_per_symbol)) * 2.0 - 1.0
        _, labels = _labels_from_bits(bits, sys_cfg.M)
        noise = sample_noise_split(rng, n0, (cfg.batch_size, 2 * sys_cfg.K))

        loss, grad_g = _loss_and_gradients(gbar, decoder, bits, labels, noise, slots, sys_cfg.K)
        if not np.isfinite(loss):
            aborted = True
            reason = f"non-finite loss at iteration {t}"
            for p, good in zip(params, last_good):
                p[...] = good
            break
        for p, good in zip(params, last_good):
            good[...] = p
        adam_step(params, [grad_g] + decoder.gradients(), adam, lr)

        losses[i] = loss
        lrs[i] = lr
        it_run = t
        if progress_every and t % progress_every == 0:
            print(f"iteration {t}/{cfg.n_iterations}  loss {loss:.4f}  lr {lr:.2e}  snr {snr_db:.1f} dB")

    gen = GeneratorSet(gbar=gbar, config=sys_cfg)
    return TrainReport(
        losses=losses[:it_run].copy(),
        learning_rates=lrs[:it_run].copy(),
        generators=gen,
        decoder=decoder,
        codebook=learned_codebook(gen, ind),
        wall_seconds=time.perf_counter() - t0,
        iterations_run=it_run,
        aborted=aborted,
        abort_reason=reason,
    )


def gradient_check(rng: np.random.Generator, step: float = 1e-5) -> float:
    """Finite-difference check of the full analytic gradient on one random
    small instance (random dimensions, channel scaling and noise).

    Instances are resampled until every relu pre-activation is well away
    from its kink, where central differences would measure the (correct)
    one-sided slopes instead of the derivative. Returns the relative error
    ||analytic - numeric|| / max(norms).
    """
    if not 0 < step < np.inf:
        raise ConfigError(f"finite-difference step must be positive and finite, got {step}")
    for _ in range(50):
        K = int(rng.integers(2, 4))
        N = int(rng.integers(1, K + 1))
        J = int(rng.integers(2, 4))
        M = int(rng.choice([2, 4]))
        sys_cfg = SystemConfig(n_users=J, n_resources=K, n_nonzero=N, alphabet_size=M)
        # random regular-column occupancy
        F = np.zeros((K, J), dtype=int)
        for j in range(J):
            F[rng.permutation(K)[:N], j] = 1
        ind = build_indicator(F)
        gbar = rng.normal(0, 0.7, size=(J, 2 * N, sys_cfg.bits_per_symbol))
        decoder = MultiTaskDecoder.build(
            rng, 2 * K, J, M,
            shared_widths=(int(rng.integers(4, 9)), int(rng.integers(3, 8))),
            subnet_widths=(int(rng.integers(3, 8)),),
            init_std=0.8,
        )
        for layer in decoder.shared:
            layer.bias[:] = rng.normal(0.0, 0.3, size=layer.bias.shape)
        for j in range(J):
            for layer in decoder.user_layers:
                layer.bias[j] = rng.normal(0.0, 0.3, size=layer.n_out)
        batch = 3
        bits = rng.integers(0, 2, size=(batch, J, sys_cfg.bits_per_symbol)) * 2.0 - 1.0
        _, labels = _labels_from_bits(bits, M)
        noise = rng.normal(0, 0.3, size=(batch, 2 * K))
        h_split = np.concatenate([rng.uniform(0.5, 1.5, K)] * 2)
        slots = _slot_indices(ind)
        _, grad_g = _loss_and_gradients(gbar, decoder, bits, labels, noise, slots, K, h_split)
        kink = min(np.abs(layer._preact).min() for layer in decoder.layers()
                   if layer.activation == "relu")
        if kink > 100 * step:
            break

    analytic = [grad_g] + [g.copy() for g in decoder.gradients()]

    arrays = [gbar] + decoder.parameters()

    def loss_fn():
        s, _ = _encoder_forward(gbar, bits, slots, K)
        return cross_entropy(decoder.forward(s * h_split + noise), labels)

    numeric = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            lp = loss_fn()
            arr[ix] = orig - step
            lm = loss_fn()
            arr[ix] = orig
            g[ix] = (lp - lm) / (2 * step)
        numeric.append(g)

    def flat(arrays):  # user-major: one user's subnetwork after another
        n_head = 1 + 2 * len(decoder.shared)
        per_user = [x[j] for j in range(J) for x in arrays[n_head:]]
        return np.concatenate([x.ravel() for x in arrays[:n_head] + per_user])

    a, n = flat(analytic), flat(numeric)
    return float(np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12))
