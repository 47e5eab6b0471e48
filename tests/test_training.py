import numpy as np
import pytest

from scmalink import (
    ConfigError,
    GeneratorSet,
    IndicatorMatrix,
    MultiTaskDecoder,
    ShapeError,
    SystemConfig,
    TrainConfig,
    build_bit_matrix,
    data_path,
    default_init,
    gradient_check,
    load_checkpoint,
    lr_schedule,
    random_generators,
    read_codebook,
    sample_snr,
    save_checkpoint,
    train,
)
from scmalink import training
from scmalink.training import _encoder_forward, _labels_from_bits, _loss_and_gradients, _slot_indices


@pytest.fixture
def small_setup():
    sys_cfg = SystemConfig(n_users=3, n_resources=3, n_nonzero=2, alphabet_size=4)
    ind = IndicatorMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
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

    def test_negative_iteration_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            lr_schedule(TrainConfig(), -1)


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

    def test_progress_prints_every_nth_iteration(self, small_setup, capsys):
        sys_cfg, ind = small_setup
        gen = random_generators(sys_cfg, np.random.default_rng(4))
        report = train(small_train_cfg(), sys_cfg, ind, gen, small_decoder(sys_cfg), progress_every=2)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["2/5", "4/5"]
        assert f"loss {report.losses[1]:.4f}" in lines[0] and f"loss {report.losses[3]:.4f}" in lines[1]

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

    def test_decoder_trains_in_float32_and_returns_in_float64(self, small_setup):
        sys_cfg, ind = small_setup
        gen = random_generators(sys_cfg, np.random.default_rng(5))
        decoder = small_decoder(sys_cfg)
        before = [p.copy() for p in decoder.parameters()]
        report = train(small_train_cfg(), sys_cfg, ind, gen, decoder)
        assert report.decoder is decoder and decoder.dtype == np.float64
        assert report.generators.gbar.dtype == np.float64
        for p, old in zip(decoder.parameters(), before):
            assert p.dtype == np.float64 and not np.array_equal(p, old)
            assert p.astype(np.float32).astype(np.float64).tobytes() == p.tobytes()

    def test_abort_writes_the_last_good_values_back(self, small_setup, monkeypatch):
        # a loss that turns NaN at step 3 restores the values step 2 ran on,
        # those after one update
        sys_cfg, ind = small_setup
        gen = random_generators(sys_cfg, np.random.default_rng(5))
        steps = []
        real = training._loss_and_gradients

        def nan_at_third(*args):
            steps.append(None)
            loss, grad = real(*args)
            return (np.nan if len(steps) == 3 else loss), grad

        one, two = (train(small_train_cfg(n_iterations=n), sys_cfg, ind, gen, small_decoder(sys_cfg))
                    for n in (1, 2))
        monkeypatch.setattr(training, "_loss_and_gradients", nan_at_third)
        aborted = train(small_train_cfg(), sys_cfg, ind, gen, small_decoder(sys_cfg))
        assert aborted.abort_reason == "non-finite loss at iteration 3"
        assert np.array_equal(aborted.losses, two.losses)
        for a, b in zip(aborted.decoder.parameters(), one.decoder.parameters()):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
        assert aborted.generators.gbar.tobytes() == one.generators.gbar.tobytes()

    def test_checkpoint_reload_infers_as_the_report(self, small_setup, tmp_path):
        sys_cfg, ind = small_setup
        gen = random_generators(sys_cfg, np.random.default_rng(6))
        report = train(small_train_cfg(), sys_cfg, ind, gen, small_decoder(sys_cfg))
        save_checkpoint(tmp_path / "c.bin", report.generators, report.decoder, ind)
        _, loaded, _, _ = load_checkpoint(tmp_path / "c.bin")
        x = np.random.default_rng(7).normal(size=(300, 2 * sys_cfg.K))
        assert loaded.forward(x).tobytes() == report.decoder.forward(x).tobytes()

    def test_mismatched_decoder_rejected(self, small_setup):
        sys_cfg, ind = small_setup
        other = SystemConfig(n_users=2, n_resources=3, n_nonzero=2, alphabet_size=4)
        gen = random_generators(sys_cfg, np.random.default_rng(6))
        with pytest.raises(ConfigError):
            train(small_train_cfg(), sys_cfg, ind, gen, small_decoder(other))

    def test_generators_of_another_system_rejected_before_a_step(self, small_setup, huawei_codebook,
                                                                  monkeypatch):
        # 3-user generators under the 6-user paper system, with a decoder that fits the system
        steps = []
        monkeypatch.setattr(training, "_loss_and_gradients", lambda *a: steps.append(a))
        sys_cfg, _ = small_setup
        paper = huawei_codebook.config
        gen = random_generators(sys_cfg, np.random.default_rng(6))
        with pytest.raises(ShapeError, match="generators"):
            train(small_train_cfg(), paper, huawei_codebook.indicator, gen, small_decoder(paper))
        assert steps == []

    def test_indicator_of_another_system_rejected(self, small_setup):
        sys_cfg, _ = small_setup
        gen = random_generators(sys_cfg, np.random.default_rng(6))
        one_resource_each = IndicatorMatrix(np.eye(3, dtype=int))  # N = 1, the system's N = 2
        with pytest.raises(ShapeError, match="does not match"):
            train(small_train_cfg(), sys_cfg, one_resource_each, gen, small_decoder(sys_cfg))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha0=0.0),
            dict(beta=0.0),
            dict(beta=1.5),
            dict(decay_step=0),
            dict(n_iterations=0),
            dict(ebn0_min_db=10, ebn0_max_db=5),
            dict(alpha0=np.inf),
            dict(alpha0=1.5),
            dict(alpha0=1e308),
            dict(ebn0_min_db=np.nan),
            dict(ebn0_max_db=np.inf),
            dict(ebn0_min_db=-np.inf),
            dict(seed=-1),
            dict(batch_size=2**20 + 1),
            dict(ebn0_min_db=-3083, ebn0_max_db=-3000),  # N0 = 10^308.3 overflows
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_bounds_accepted(self):
        # the largest batch, and an Eb/N0 whose N0 (10^308.2) is still a float
        cfg = TrainConfig(batch_size=2**20, ebn0_min_db=-3082, ebn0_max_db=-3000, alpha0=1.0)
        assert (cfg.batch_size, cfg.ebn0_min_db, cfg.alpha0) == (2**20, -3082, 1.0)


def test_default_init_rejects_codebook_on_another_graph():
    # the generators are fitted on the codebook's supports and train places
    # them on the config's; with users 0 and 1 swapped they land elsewhere
    huawei = read_codebook(data_path("huawei_4x6.json"))
    swapped = IndicatorMatrix(huawei.indicator.F[:, [1, 0, 2, 3, 4, 5]])
    with pytest.raises(ConfigError, match="'F'"):
        default_init(huawei.config, swapped, small_train_cfg(), huawei)
    gen, _ = default_init(huawei.config, huawei.indicator, small_train_cfg(), huawei)
    assert gen.gbar.shape[0] == 6


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

    def __init__(self, grad_r, n_users, M):
        self.grad_r = grad_r
        self.shape = (n_users, M)

    def forward(self, r, remember=False):
        return np.full((r.shape[0], *self.shape), 0.5)

    def backward_cross_entropy(self, probs, messages):
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
    ind = IndicatorMatrix(F)
    slots = _slot_indices(ind)
    batch = int(rng.integers(1, 1500))
    gbar = rng.normal(0.0, 0.7, size=(J, 2 * N, M.bit_length() - 1))
    bits = rng.integers(0, 2, size=(batch, J, gbar.shape[2])) * 2.0 - 1.0
    grad_r = rng.normal(size=(batch, 2 * K))
    h = rng.uniform(0.5, 1.5, 2 * K)
    gen = GeneratorSet(gbar=gbar, config=SystemConfig(n_users=J, n_resources=K, n_nonzero=N, alphabet_size=M))
    _, grad_g = _loss_and_gradients(gen, _FixedGradientDecoder(grad_r, J, M), bits, _labels_from_bits(bits),
                                    np.zeros((batch, 2 * K)), ind, h)
    expected = _generator_gradient_per_user(gbar, grad_r * h, bits, slots)
    assert grad_g.tobytes() == expected.tobytes()


def _encoding_per_user(gbar, bits, slots, K):
    """Reference: the training encoding one user at a time, (bits_j @ g_j^T) /
    ||g_j||_F added into the real-split signal in user order from zero."""
    s = np.zeros((bits.shape[0], 2 * K))
    for j, g in enumerate(gbar):
        s[:, slots[j]] += (bits[:, j, :] @ g.T) / np.linalg.norm(g)
    return s


def _assert_encoding_matches(gen, ind, bits):
    got = _encoder_forward(gen, _labels_from_bits(bits), ind)
    expected = _encoding_per_user(gen.gbar, bits, _slot_indices(ind), ind.n_resources)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(120))
def test_training_encoding_matches_per_user_formula(seed):
    """Training encodes through learned_codebook byte for byte as the per-user
    formula did, on random irregular graphs, M in {2, 4, 8, 16}, batch 1 included."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 7))
    J = int(rng.integers(2, 9))
    N = int(rng.integers(1, K + 1))
    M = (2, 4, 8, 16)[seed % 4]
    F = np.zeros((K, J), dtype=int)
    for j in range(J):
        F[rng.permutation(K)[:N], j] = 1
    batch = 1 if seed % 10 == 0 else int(rng.integers(1, 1500))
    cfg = SystemConfig(n_users=J, n_resources=K, n_nonzero=N, alphabet_size=M)
    gen = GeneratorSet(gbar=rng.normal(0.0, 0.7, size=(J, 2 * N, cfg.bits_per_symbol)), config=cfg)
    bits = rng.integers(0, 2, size=(batch, J, cfg.bits_per_symbol)) * 2.0 - 1.0
    _assert_encoding_matches(gen, IndicatorMatrix(F), bits)


@pytest.mark.parametrize("batch", [1, 1000])
def test_training_encoding_matches_per_user_formula_on_huawei(batch):
    huawei = read_codebook(data_path("huawei_4x6.json"))
    rng = np.random.default_rng(batch)
    bits = rng.integers(0, 2, size=(batch, 6, 2)) * 2.0 - 1.0
    fitted, _ = default_init(huawei.config, huawei.indicator, small_train_cfg(), huawei)
    for gen in (fitted, GeneratorSet(gbar=rng.normal(size=(6, 4, 2)), config=huawei.config)):
        _assert_encoding_matches(gen, huawei.indicator, bits)
