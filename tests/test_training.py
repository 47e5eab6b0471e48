import numpy as np
import pytest

from scmalink import (
    ConfigError,
    MultiTaskDecoder,
    SystemConfig,
    TrainConfig,
    build_bit_matrix,
    build_indicator,
    gradient_check,
    lr_schedule,
    random_generators,
    sample_snr,
    train,
)
from scmalink.training import _loss_and_gradients, _slot_indices


@pytest.fixture
def small_setup():
    sys_cfg = SystemConfig(n_users=3, n_resources=3, n_nonzero=2, alphabet_size=4)
    ind = build_indicator([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    return sys_cfg, ind


def small_train_cfg(**overrides):
    base = dict(batch_size=32, n_iterations=5, seed=123)
    base.update(overrides)
    return TrainConfig(**base)


def small_decoder(sys_cfg, seed=1):
    rng = np.random.default_rng(seed)
    return MultiTaskDecoder.build(rng, 2 * sys_cfg.K, sys_cfg.J, sys_cfg.M,
                                  shared_widths=(12, 8), subnet_widths=(6,))


class TestLrSchedule:
    def test_t0_is_alpha0(self):
        assert lr_schedule(TrainConfig(), 0) == pytest.approx(0.001)

    def test_one_decay_period(self):
        assert lr_schedule(TrainConfig(), 500) == pytest.approx(0.0009)

    def test_t2000(self):
        assert lr_schedule(TrainConfig(), 2000) == pytest.approx(0.001 * 0.9**4, rel=1e-12)

    def test_real_valued_exponent(self):
        assert lr_schedule(TrainConfig(), 250) == pytest.approx(0.001 * 0.9**0.5, rel=1e-12)


class TestSampleSnr:
    def test_degenerate_range(self):
        cfg = TrainConfig(ebn0_min_db=7, ebn0_max_db=7)
        rng = np.random.default_rng(0)
        assert all(sample_snr(cfg, rng) == 7.0 for _ in range(10))

    def test_uniform_mean(self):
        cfg = TrainConfig(ebn0_min_db=5, ebn0_max_db=11)
        rng = np.random.default_rng(1)
        draws = [sample_snr(cfg, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(8.0, abs=0.05)
        assert min(draws) >= 5.0 and max(draws) <= 11.0


class TestTrainLoop:
    def test_single_iteration(self, small_setup):
        sys_cfg, ind = small_setup
        cfg = small_train_cfg(n_iterations=1)
        gen = random_generators(sys_cfg, np.random.default_rng(2))
        report = train(cfg, sys_cfg, ind, gen, small_decoder(sys_cfg))
        assert report.iterations_run == 1
        assert report.losses.shape == (1,)
        assert report.learning_rates.shape == (1,)

    def test_deterministic(self, small_setup):
        sys_cfg, ind = small_setup
        cfg = small_train_cfg(n_iterations=4)

        def run():
            gen = random_generators(sys_cfg, np.random.default_rng(2))
            return train(cfg, sys_cfg, ind, gen, small_decoder(sys_cfg))

        a, b = run(), run()
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.generators.gbar, b.generators.gbar)
        assert np.array_equal(a.codebook.entries, b.codebook.entries)

    def test_lr_trace_matches_schedule(self, small_setup):
        sys_cfg, ind = small_setup
        cfg = small_train_cfg(n_iterations=6)
        gen = random_generators(sys_cfg, np.random.default_rng(3))
        report = train(cfg, sys_cfg, ind, gen, small_decoder(sys_cfg))
        expected = [lr_schedule(cfg, t) for t in range(1, 7)]
        assert report.learning_rates == pytest.approx(expected, rel=1e-15)
        assert np.all(np.diff(report.learning_rates) <= 0)

    def test_losses_finite_and_codebook_valid(self, small_setup):
        sys_cfg, ind = small_setup
        cfg = small_train_cfg(n_iterations=10)
        gen = random_generators(sys_cfg, np.random.default_rng(4))
        report = train(cfg, sys_cfg, ind, gen, small_decoder(sys_cfg))
        assert np.all(np.isfinite(report.losses))
        # exported codebook is normalized and respects the support
        assert report.codebook.user_energies() == pytest.approx(np.ones(3), abs=1e-9)
        report.codebook.validate_support()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_abort_on_nonfinite_loss(self, small_setup):
        sys_cfg, ind = small_setup
        cfg = small_train_cfg(n_iterations=8)
        gen = random_generators(sys_cfg, np.random.default_rng(5))
        decoder = small_decoder(sys_cfg)
        # poison a weight so the forward pass explodes immediately
        decoder.shared[0].weights[0, 0] = np.inf
        report = train(cfg, sys_cfg, ind, gen, decoder)
        assert report.aborted
        assert "non-finite" in report.abort_reason
        assert report.iterations_run == 0

    def test_mismatched_decoder_rejected(self, small_setup):
        sys_cfg, ind = small_setup
        other = SystemConfig(n_users=2, n_resources=3, n_nonzero=2, alphabet_size=4)
        gen = random_generators(sys_cfg, np.random.default_rng(6))
        with pytest.raises(ConfigError):
            train(small_train_cfg(), sys_cfg, ind, gen, small_decoder(other))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha0=0.0),
            dict(beta=0.0),
            dict(beta=1.5),
            dict(decay_step=0),
            dict(ebn0_min_db=10, ebn0_max_db=5),
            dict(alpha0=np.inf),
            dict(ebn0_min_db=np.nan),
            dict(ebn0_max_db=np.inf),
            dict(ebn0_min_db=-np.inf),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestGradientCheck:
    def test_twenty_random_instances(self):
        rng = np.random.default_rng(2025)
        worst = max(gradient_check(rng) for _ in range(20))
        assert worst < 1e-5

    def test_bit_matrix_identity_backs_normalization(self):
        # the analytic gradient relies on B B^T = M I; double-check at M=16
        b = build_bit_matrix(16)
        assert np.array_equal(b @ b.T, 16 * np.eye(4, dtype=np.int64))


def _generator_gradient_per_user(gbar, grad_s, bits, slots):
    """Reference: the generator gradient one user at a time."""
    grad_g = np.empty_like(gbar)
    for j, g in enumerate(gbar):
        n = np.linalg.norm(g)
        raw = grad_s[:, slots[j]].T @ bits[:, j, :]  # d loss / d (g / ||g||)
        a = g / n
        grad_g[j] = (raw - np.sum(raw * a) * a) / n
    return grad_g


class _FixedGradientDecoder:
    """Stands in for the decoder: returns a fixed gradient w.r.t. its input."""

    def __init__(self, grad_r):
        self.grad_r = grad_r

    def forward(self, r, remember=False):
        return np.full((r.shape[0], 1, 2), 0.5)

    def backward_cross_entropy(self, probs, labels):
        return self.grad_r


@pytest.mark.parametrize("seed", range(40))
def test_stacked_generator_gradient_matches_per_user_loop(seed):
    """The stacked generator gradient is byte-identical to a per-user loop
    on random irregular graphs (uneven row degrees) for M in {2, 4, 8}."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 7))
    J = int(rng.integers(2, 9))
    N = int(rng.integers(1, K + 1))
    M = int(rng.choice([2, 4, 8]))
    F = np.zeros((K, J), dtype=int)
    for j in range(J):
        F[rng.permutation(K)[:N], j] = 1
    slots = _slot_indices(build_indicator(F))
    batch = int(rng.integers(1, 1500))
    gbar = rng.normal(0.0, 0.7, size=(J, 2 * N, M.bit_length() - 1))
    bits = rng.integers(0, 2, size=(batch, J, gbar.shape[2])) * 2.0 - 1.0
    grad_r = rng.normal(size=(batch, 2 * K))
    h = rng.uniform(0.5, 1.5, 2 * K)
    _, grad_g = _loss_and_gradients(gbar, _FixedGradientDecoder(grad_r), bits,
                                    np.full((batch, 1, 2), 0.5), np.zeros((batch, 2 * K)),
                                    slots, K, h)
    expected = _generator_gradient_per_user(gbar, grad_r * h, bits, slots)
    assert grad_g.tobytes() == expected.tobytes()
