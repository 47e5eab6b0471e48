"""End-to-end training loop: linear encoder and multi-task decoder jointly.

Each iteration draws one batch of random user bits and one uniform Eb/N0,
runs encoder -> superposition -> AWGN channel -> decoder, and updates every
parameter (generator matrices and all network weights) with ADAM under an
exponentially decaying learning rate.

The forward pass encodes through the codebook that train writes:
split_real(superimpose(learned_codebook(gen, ind), messages)). The per-user
power constraint is the differentiable scaling c = gbar b / ||gbar||_F inside
learned_codebook. Because the bit-pattern matrix satisfies B B^T = M I, the
Frobenius norm squared equals the average codeword energy, so this is exactly
unit average energy per user.

The decoder trains in float32 (TRAIN_DTYPE): train() runs forward, backward
and Adam on a float32 copy of the caller's decoder and writes the trained
values back into it at the end, so the report's decoder, its checkpoint and
every inference stay float64. The generators, the encoder, the noise and the
generator gradient stay float64: the decoder casts its input to float32 and
its input gradient times the channel comes back float64. On a 2-core Xeon
with BLAS on one thread, the 2000 steps of the paper configuration took
20-22 s against 34-36 s in float64, and 20 seed-7 steps gave a learned MED
1.9e-8 (relative) from float64's. gradient_check keeps a float64 decoder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .channel import ebn0_to_n0, sample_noise_split, split_real
from .core import Codebook, ConfigError, IndicatorMatrix, ShapeError, SystemConfig
from .encoder import GeneratorSet, codeword_table, init_generators, normalize, superimpose
from .nn import AdamState, MultiTaskDecoder, adam_step, cross_entropy

TRAIN_DTYPE = np.float32  # the dtype train() runs the decoder in


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
        if not 0 < self.alpha0 <= 1:  # Adam moves a parameter by at most about 3.2 alpha per step
            raise ConfigError(f"initial learning rate alpha0 must be in (0, 1], got {self.alpha0!r}")
        if not 0 < self.beta <= 1:
            raise ConfigError("decay factor beta must be in (0, 1]")
        if self.decay_step < 1:
            raise ConfigError("decay_step must be >= 1")
        if self.n_iterations < 1:
            raise ConfigError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if not 1 <= self.batch_size <= 2**20:  # the paper's batch is 1,000
            raise ConfigError(f"batch_size must be in [1, 2^20], got {self.batch_size}")
        if self.ebn0_min_db > self.ebn0_max_db:
            raise ConfigError("ebn0_min_db must not exceed ebn0_max_db")
        # the lowest Eb/N0 gives the largest N0; its power of ten overflows or not before M enters
        try:
            ebn0_to_n0(self.ebn0_min_db, 2)
        except ConfigError as exc:
            raise ConfigError(f"ebn0_min_db: {exc}") from None
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    losses: np.ndarray
    learning_rates: np.ndarray
    generators: GeneratorSet
    decoder: MultiTaskDecoder
    codebook: Codebook
    wall_seconds: float
    abort_reason: str = ""

    @property
    def iterations_run(self) -> int:
        return len(self.losses)

    @property
    def aborted(self) -> bool:
        return bool(self.abort_reason)


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
        # the fit is on the codebook's supports and train places it on ind's
        if not np.array_equal(codebook.indicator.F, ind.F):
            raise ConfigError(f"init codebook: field 'F' {codebook.indicator.F.tolist()} "
                              f"differs from the config's {ind.F.tolist()}")
        gen = init_generators(codebook.normalized())
    else:
        gen = random_generators(sys_cfg, init_rng)
    return gen, decoder


def learned_codebook(gen: GeneratorSet, ind: IndicatorMatrix) -> Codebook:
    """The codebook of trained generators: tabulated, then each user's words
    divided by ||gbar_j||_F, which is unit energy. The real and imaginary parts
    are divided apart; a complex division by the norm rounds differently."""
    entries = codeword_table(gen, ind).entries
    norms = gen.norms()[:, None, None]
    entries.real /= norms
    entries.imag /= norms
    return Codebook(entries=entries, config=gen.config, indicator=ind)


def _slot_indices(ind: IndicatorMatrix) -> np.ndarray:
    """(J, 2N) real-split positions of each user's symbol in the 2K received vector."""
    return np.concatenate([ind.supports, ind.n_resources + ind.supports], axis=1)


def _labels_from_bits(bits: np.ndarray) -> np.ndarray:
    """(batch, J, log2 M) +/-1 bits -> (batch, J) message indices, the most
    significant bit first as in build_bit_matrix."""
    n_bits = bits.shape[-1]
    weights = 1 << np.arange(n_bits - 1, -1, -1)
    return (bits > 0) @ weights


def _encoder_forward(gen: GeneratorSet, messages, ind: IndicatorMatrix) -> np.ndarray:
    """(batch, J) messages -> (batch, 2K) real-split signal through learned_codebook."""
    return split_real(superimpose(learned_codebook(gen, ind), messages))


def _loss_and_gradients(gen, decoder, bits, messages, noise, ind, h_split=None):
    """Batch loss plus the analytic gradient of the (J, 2N, log2 M) generator
    stack; decoder layers accumulate their own gradients as a side effect."""
    s = _encoder_forward(gen, messages, ind)
    h = np.ones(2 * ind.n_resources) if h_split is None else h_split
    r = s * h + noise
    probs = decoder.forward(r, remember=True)
    loss = cross_entropy(probs, messages)
    grad_r = decoder.backward_cross_entropy(probs, messages)
    grad_s = grad_r * h
    # d loss / d (g / ||g||), then through the normalization, every user at once
    raw = np.matmul(grad_s[:, _slot_indices(ind)].transpose(1, 2, 0), bits.transpose(1, 0, 2))
    n = gen.norms()[:, None, None]
    a = gen.gbar / n
    return loss, (raw - np.sum(raw * a, axis=(1, 2), keepdims=True) * a) / n


def train(cfg: TrainConfig, sys_cfg: SystemConfig, ind: IndicatorMatrix,
          init: GeneratorSet, decoder: MultiTaskDecoder,
          progress_every: int = 0) -> TrainReport:
    """Run the full training loop and extract the learned codebook.

    Deterministic for a given (cfg, init, decoder): all randomness comes from
    a generator seeded with cfg.seed. Aborts on a non-finite loss, restoring
    the parameters of the last finite iteration. The decoder trains as a
    TRAIN_DTYPE copy; its trained values are written back into `decoder`,
    which the report returns.
    """
    decoder.check_fits(sys_cfg)
    ind.check_fits(sys_cfg)
    if init.config != sys_cfg:
        raise ShapeError(f"generators are for {init.config}, not for the trained system {sys_cfg}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)

    gen = GeneratorSet(gbar=init.gbar.copy(), config=sys_cfg)  # Adam steps gen.gbar in place
    trained = decoder.astype(TRAIN_DTYPE)
    params = [gen.gbar] + trained.parameters()
    adam = AdamState.for_parameters(params)

    losses, lrs = [], []
    last_good = [p.copy() for p in params]
    reason = ""

    for t in range(1, cfg.n_iterations + 1):  # Algorithm counts iterations from 1
        lr = lr_schedule(cfg, t)
        snr_db = sample_snr(cfg, rng)
        n0 = ebn0_to_n0(snr_db, sys_cfg.M)
        bits = rng.integers(0, 2, size=(cfg.batch_size, sys_cfg.J, sys_cfg.bits_per_symbol)) * 2.0 - 1.0
        messages = _labels_from_bits(bits)
        noise = sample_noise_split(rng, n0, (cfg.batch_size, 2 * sys_cfg.K))

        loss, grad_g = _loss_and_gradients(gen, trained, bits, messages, noise, ind)
        if not np.isfinite(loss):
            reason = f"non-finite loss at iteration {t}"
            for p, good in zip(params, last_good):
                p[...] = good
            break
        for p, good in zip(params, last_good):
            good[...] = p
        adam_step(params, [grad_g] + trained.gradients(), adam, lr)

        losses.append(loss)
        lrs.append(lr)
        if progress_every and t % progress_every == 0:
            print(f"iteration {t}/{cfg.n_iterations}  loss {loss:.4f}  lr {lr:.2e}  snr {snr_db:.1f} dB")

    for p, value in zip(decoder.parameters(), trained.parameters()):
        p[...] = value

    return TrainReport(
        losses=np.array(losses, dtype=float),
        learning_rates=np.array(lrs, dtype=float),
        generators=gen,
        decoder=decoder,
        codebook=learned_codebook(gen, ind),
        wall_seconds=time.perf_counter() - t0,
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
        ind = IndicatorMatrix(F)
        gen = GeneratorSet(gbar=rng.normal(0, 0.7, size=(J, 2 * N, sys_cfg.bits_per_symbol)), config=sys_cfg)
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
        messages = _labels_from_bits(bits)
        noise = rng.normal(0, 0.3, size=(batch, 2 * K))
        h_split = np.concatenate([rng.uniform(0.5, 1.5, K)] * 2)
        _, grad_g = _loss_and_gradients(gen, decoder, bits, messages, noise, ind, h_split)
        # forward ran relu in place, so the hidden layers' pre-activations are recomputed
        kink = min(np.abs(layer.affine(layer._input)).min() for layer in decoder.layers()[:-1])
        if kink > 100 * step:
            break

    analytic = [grad_g] + [g.copy() for g in decoder.gradients()]

    arrays = [gen.gbar] + decoder.parameters()

    def loss_fn():
        s = _encoder_forward(gen, messages, ind)
        return cross_entropy(decoder.forward(s * h_split + noise), messages)

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
