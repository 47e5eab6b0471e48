import re

import numpy as np
import pytest

from scmalink import (
    Codebook,
    DegenerateCodebookError,
    GeneratorSet,
    IndicatorMatrix,
    ShapeError,
    SystemConfig,
    build_bit_matrix,
    codeword_table,
    init_generators,
    normalize,
    read_codebook,
    superimpose,
    superimposed_constellation,
    tuple_digits,
)
from scmalink import ConfigError, data_path
from scmalink.training import _slot_indices


def gen_from_complex(g_complex, cfg):
    """Stack [Re; Im] of per-user (N, log2M) complex matrices."""
    gbar = np.stack([np.vstack([g.real, g.imag]) for g in g_complex])
    return GeneratorSet(gbar=gbar, config=cfg)


def encode(gen, ind, msgs):
    """Downlink signal of (batch, J) message tuples through the generators."""
    return superimpose(codeword_table(gen, ind), msgs)


@pytest.fixture
def tiny_cfg():
    # one user on a single resource pair carrier, M=4
    return SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=4)


class TestEncodeUser:
    # one user on resource 0 of two; message m carries column m of the bit matrix
    IND = [[1], [0]]

    def test_identity_column(self):
        cfg = SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.array([[[1.0], [0.0]]]), config=cfg)
        out = encode(gen, IndicatorMatrix(self.IND), [[1]])  # bits [+1]
        assert out[0] == pytest.approx([1 + 0j, 0])

    def test_complex_generator(self, tiny_cfg):
        gen = gen_from_complex([np.array([[1.0, 1j]])], tiny_cfg)
        out = encode(gen, IndicatorMatrix(self.IND), [[1]])  # bits [-1, +1]
        assert out[0, 0] == pytest.approx(-1 + 1j)

    def test_antipodal_bits_negate(self, tiny_cfg):
        rng = np.random.default_rng(3)
        gen = GeneratorSet(gbar=rng.normal(size=(1, 2, 2)), config=tiny_cfg)
        minus, plus = encode(gen, IndicatorMatrix(self.IND), [[0], [3]])
        assert minus == pytest.approx(-plus)

    def test_real_split_layout(self, tiny_cfg):
        # first N rows are the real parts, last N the imaginary parts
        gen = gen_from_complex([np.array([[2.0 - 0.5j, 0.25 + 1j]])], tiny_cfg)
        split = gen.gbar[0] @ np.array([1.0, -1.0])
        c = encode(gen, IndicatorMatrix(self.IND), [[2]])[0, 0]  # bits [+1, -1]
        assert split[0] == pytest.approx(c.real)
        assert split[1] == pytest.approx(c.imag)


class TestSuperimpose:
    def test_zero_generators(self, huawei_codebook):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        gen = GeneratorSet(gbar=np.zeros((6, 4, 2)), config=cfg)
        out = encode(gen, huawei_codebook.indicator, np.zeros((1, 6), dtype=int))
        assert np.all(out == 0)

    def test_destructive_cancellation(self):
        # two users on one shared resource with opposite bits cancel exactly
        cfg = SystemConfig(n_users=2, n_resources=1, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.array([[[1.0], [0.0]], [[1.0], [0.0]]]), config=cfg)
        out = encode(gen, IndicatorMatrix([[1, 1]]), [[1, 0]])
        assert out[0] == pytest.approx([0.0])

    def test_matches_codeword_table_lookup(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        gen = init_generators(cb)
        msgs = np.random.default_rng(0).integers(0, 4, (20, 6))
        out = encode(gen, cb.indicator, msgs)
        for row, m in zip(out, msgs):
            via_table = sum(cb.entries[j][:, m[j]] for j in range(6))
            assert row == pytest.approx(via_table, abs=1e-12)

    def test_support_respected(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        msgs = np.full((1, 6), 3)
        for j in range(6):
            only_j = np.zeros_like(cb.entries)
            only_j[j] = cb.entries[j]
            out = superimpose(Codebook(entries=only_j, config=cb.config, indicator=cb.indicator), msgs)
            off = sorted(set(range(4)) - set(cb.indicator.supports[j]))
            assert np.all(out[0, off] == 0)

    def test_matches_constellation_order(self):
        # row i of the constellation is the superposition of tuple_digits(i)
        cb = read_codebook(data_path("huawei_4x6.json"))
        pts = superimposed_constellation(cb)
        msgs = tuple_digits(np.arange(pts.shape[0]), 4, 6)
        assert np.array_equal(superimpose(cb, msgs), pts)

    def test_rejects_wrong_user_count(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        with pytest.raises(ShapeError):
            superimpose(cb, np.zeros((3, 5), dtype=int))


class TestNormalize:
    def test_unit_energy_fixed_point(self):
        cfg = SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.array([[[1.0], [0.0]]]), config=cfg)
        out = normalize(gen)
        assert out.gbar == pytest.approx(gen.gbar, abs=1e-15)

    def test_energy_four_scales_by_half(self):
        cfg = SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.array([[[2.0], [0.0]]]), config=cfg)
        out = normalize(gen)
        assert out.gbar[0, 0, 0] == pytest.approx(1.0)

    def test_random_generator_postcondition(self, huawei_codebook):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        rng = np.random.default_rng(11)
        gen = GeneratorSet(gbar=rng.normal(size=(6, 4, 2)), config=cfg)
        out = normalize(gen)
        energies = codeword_table(out, huawei_codebook.indicator).user_energies()
        assert energies == pytest.approx(np.ones(6), abs=1e-12)

    def test_idempotent(self):
        cfg = SystemConfig(n_users=3, n_resources=4, n_nonzero=2, alphabet_size=4)
        rng = np.random.default_rng(12)
        gen = GeneratorSet(gbar=rng.normal(size=(3, 4, 2)), config=cfg)
        once = normalize(gen)
        twice = normalize(once)
        assert twice.gbar == pytest.approx(once.gbar, abs=1e-14)

    def test_zero_generator_raises(self):
        cfg = SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.zeros((1, 2, 1)), config=cfg)
        with pytest.raises(DegenerateCodebookError, match=re.escape("users [0] have all-zero generators")):
            normalize(gen)

    def test_frobenius_identity(self):
        # because B B^T = M I, average codeword energy equals ||gbar||_F^2
        cfg = SystemConfig(n_users=4, n_resources=4, n_nonzero=2, alphabet_size=8)
        ind = IndicatorMatrix([[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        rng = np.random.default_rng(13)
        gen = GeneratorSet(gbar=rng.normal(size=(4, 4, 3)), config=cfg)
        frob = np.array([np.sum(g**2) for g in gen.gbar])
        assert codeword_table(gen, ind).user_energies() == pytest.approx(frob, rel=1e-12)
        assert gen.norms() ** 2 == pytest.approx(frob, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generator_set_rejects_non_finite_entry(tiny_cfg, bad):
    gbar = np.ones((1, 2, 2))
    gbar[0, 1, 0] = bad
    with pytest.raises(ConfigError, match="generator entries must be finite"):
        GeneratorSet(gbar=gbar, config=tiny_cfg)


class TestInitGenerators:
    def test_pseudo_inverse_roundtrip(self, tiny_cfg):
        gen = gen_from_complex([np.array([[1.0, 1j]])], tiny_cfg)
        ind = IndicatorMatrix([[1], [0]])
        cb = codeword_table(gen, ind)
        recovered = init_generators(cb)
        assert recovered.gbar == pytest.approx(gen.gbar, abs=1e-12)

    def test_zero_codebook_gives_zero(self, tiny_cfg):
        ind = IndicatorMatrix([[1], [0]])
        cb = codeword_table(GeneratorSet(gbar=np.zeros((1, 2, 2)), config=tiny_cfg), ind)
        out = init_generators(cb)
        assert np.all(out.gbar == 0)

    def test_huawei_file_is_exactly_linear(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        gen = init_generators(cb)
        # the fitted generators reproduce the file entries exactly
        rebuilt = codeword_table(gen, cb.indicator)
        assert rebuilt.entries == pytest.approx(cb.entries, abs=1e-12)


class TestCodewordTable:
    def test_direct_multiplication_example(self, tiny_cfg):
        gen = gen_from_complex([np.array([[1.0, 1j]])], tiny_cfg)
        ind = IndicatorMatrix([[0], [1]])
        cb = codeword_table(gen, ind)
        # bits (-1,-1),(-1,+1),(+1,-1),(+1,+1) -> -1-i, -1+i, 1-i, 1+i
        assert cb.entries[0][1] == pytest.approx([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j])
        assert np.all(cb.entries[0][0] == 0)

    def test_antipodal_symmetry(self, huawei_codebook):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        rng = np.random.default_rng(5)
        gen = GeneratorSet(gbar=rng.normal(size=(6, 4, 2)), config=cfg)
        cb = codeword_table(gen, huawei_codebook.indicator)
        for j in range(6):
            for m in range(4):
                assert cb.entries[j][:, m] == pytest.approx(-cb.entries[j][:, 3 - m])


def random_placement(seed, K, J, N, M):
    """A random occupancy F with N resources per user, and its system."""
    rng = np.random.default_rng(seed)
    F = np.zeros((K, J), dtype=int)
    for j in range(J):
        F[rng.permutation(K)[:N], j] = 1
    cfg = SystemConfig(n_users=J, n_resources=K, n_nonzero=N, alphabet_size=M)
    return rng, cfg, F, IndicatorMatrix(F)


class TestPlacementOracle:
    """Stacked gathers and scatters against a per-user loop over F's columns."""

    # (K, J, N, M); K = N = 3 is a dense placement
    SYSTEMS = [(5, 10, 2, 4), (3, 5, 3, 8), (4, 6, 2, 2), (6, 4, 3, 4)]

    @pytest.mark.parametrize("K, J, N, M", SYSTEMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_codeword_table(self, seed, K, J, N, M):
        rng, cfg, F, ind = random_placement(seed, K, J, N, M)
        gen = GeneratorSet(gbar=rng.normal(size=(J, 2 * N, cfg.bits_per_symbol)), config=cfg)
        B = build_bit_matrix(M).astype(float)
        expected = np.zeros((J, K, M), dtype=complex)
        for j in range(J):
            expected[j, np.flatnonzero(F[:, j]), :] = (gen.gbar[j, :N] + 1j * gen.gbar[j, N:]) @ B
        assert codeword_table(gen, ind).entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K, J, N, M", SYSTEMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_init_generators(self, seed, K, J, N, M):
        rng, cfg, F, ind = random_placement(seed, K, J, N, M)
        entries = np.zeros((J, K, M), dtype=complex)
        for j in range(J):
            entries[j, np.flatnonzero(F[:, j]), :] = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
        B = build_bit_matrix(M).astype(float)
        expected = np.empty((J, 2 * N, cfg.bits_per_symbol))
        for j in range(J):
            g = entries[j, np.flatnonzero(F[:, j]), :] @ B.T @ np.linalg.inv(B @ B.T)
            expected[j] = np.vstack([g.real, g.imag])
        out = init_generators(Codebook(entries=entries, config=cfg, indicator=ind))
        assert out.gbar.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K, J, N, M", SYSTEMS)
    def test_slot_indices(self, K, J, N, M):
        _, _, F, ind = random_placement(0, K, J, N, M)
        expected = np.stack([np.concatenate([np.flatnonzero(F[:, j]), K + np.flatnonzero(F[:, j])])
                             for j in range(J)])
        slots = _slot_indices(ind)
        assert slots.dtype == expected.dtype and slots.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K, J, N, M", [s for s in SYSTEMS if s[0] > s[2]])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validate_support_names_first_violation(self, seed, K, J, N, M):
        rng, cfg, F, ind = random_placement(seed, K, J, N, M)
        entries = np.zeros((J, K, M), dtype=complex)
        off = np.argwhere(F.T == 0)  # (j, k) cells outside the supports
        for j, k in off[rng.permutation(len(off))[:4]]:
            entries[j, k, rng.integers(M)] = 0.5 - 0.25j
        first = next((j, k) for j in range(J) for k in range(K)
                     if F[k, j] == 0 and np.any(entries[j, k] != 0))
        support = tuple(np.flatnonzero(F[:, first[0]]).tolist())
        msg = f"user {first[0]} has energy on resource {first[1]} outside its support {support}"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            Codebook(entries=entries, config=cfg, indicator=ind)
