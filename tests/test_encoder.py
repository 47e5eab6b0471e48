import numpy as np
import pytest

from scmalink import (
    Codebook,
    DegenerateCodebookError,
    DegenerateCodebookWarning,
    GeneratorSet,
    ShapeError,
    SystemConfig,
    build_bit_matrix,
    build_indicator,
    codeword_table,
    init_generators,
    normalize,
    paper_indicator_4x6,
    read_codebook,
    superimpose,
    superimposed_constellation,
    tuple_digits,
)
from scmalink import data_path


def gen_from_complex(g_complex, cfg):
    """Stack [Re; Im] of per-user (N, log2M) complex matrices."""
    gbar = np.stack([np.vstack([g.real, g.imag]) for g in g_complex])
    return GeneratorSet(gbar=gbar, config=cfg)


def encode(gen, ind, msgs):
    """Downlink signal of (batch, J) message tuples through the generators."""
    return superimpose(codeword_table(gen, build_bit_matrix(gen.config.M), ind), msgs)


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
        out = encode(gen, build_indicator(self.IND), [[1]])  # bits [+1]
        assert out[0] == pytest.approx([1 + 0j, 0])

    def test_complex_generator(self, tiny_cfg):
        gen = gen_from_complex([np.array([[1.0, 1j]])], tiny_cfg)
        out = encode(gen, build_indicator(self.IND), [[1]])  # bits [-1, +1]
        assert out[0, 0] == pytest.approx(-1 + 1j)

    def test_antipodal_bits_negate(self, tiny_cfg):
        rng = np.random.default_rng(3)
        gen = GeneratorSet(gbar=rng.normal(size=(1, 2, 2)), config=tiny_cfg)
        minus, plus = encode(gen, build_indicator(self.IND), [[0], [3]])
        assert minus == pytest.approx(-plus)

    def test_real_split_layout(self, tiny_cfg):
        # first N rows are the real parts, last N the imaginary parts
        gen = gen_from_complex([np.array([[2.0 - 0.5j, 0.25 + 1j]])], tiny_cfg)
        split = gen.gbar[0] @ np.array([1.0, -1.0])
        c = encode(gen, build_indicator(self.IND), [[2]])[0, 0]  # bits [+1, -1]
        assert split[0] == pytest.approx(c.real)
        assert split[1] == pytest.approx(c.imag)


class TestSuperimpose:
    def test_zero_generators(self):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        gen = GeneratorSet(gbar=np.zeros((6, 4, 2)), config=cfg)
        with pytest.warns(DegenerateCodebookWarning):
            out = encode(gen, paper_indicator_4x6(), np.zeros((1, 6), dtype=int))
        assert np.all(out == 0)

    def test_destructive_cancellation(self):
        # two users on one shared resource with opposite bits cancel exactly
        cfg = SystemConfig(n_users=2, n_resources=1, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.array([[[1.0], [0.0]], [[1.0], [0.0]]]), config=cfg)
        out = encode(gen, build_indicator([[1, 1]]), [[1, 0]])
        assert out[0] == pytest.approx([0.0])

    def test_matches_codeword_table_lookup(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        gen = init_generators(cb, build_bit_matrix(4))
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
        b = build_bit_matrix(2)
        gen = GeneratorSet(gbar=np.array([[[1.0], [0.0]]]), config=cfg)
        out = normalize(gen, b)
        assert out.gbar == pytest.approx(gen.gbar, abs=1e-15)

    def test_energy_four_scales_by_half(self):
        cfg = SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=2)
        b = build_bit_matrix(2)
        gen = GeneratorSet(gbar=np.array([[[2.0], [0.0]]]), config=cfg)
        out = normalize(gen, b)
        assert out.gbar[0, 0, 0] == pytest.approx(1.0)

    def test_random_generator_postcondition(self):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        b = build_bit_matrix(4)
        rng = np.random.default_rng(11)
        gen = GeneratorSet(gbar=rng.normal(size=(6, 4, 2)), config=cfg)
        out = normalize(gen, b)
        assert out.user_energies(b) == pytest.approx(np.ones(6), abs=1e-12)

    def test_idempotent(self):
        cfg = SystemConfig(n_users=3, n_resources=4, n_nonzero=2, alphabet_size=4)
        b = build_bit_matrix(4)
        rng = np.random.default_rng(12)
        gen = GeneratorSet(gbar=rng.normal(size=(3, 4, 2)), config=cfg)
        once = normalize(gen, b)
        twice = normalize(once, b)
        assert twice.gbar == pytest.approx(once.gbar, abs=1e-14)

    def test_zero_generator_raises(self):
        cfg = SystemConfig(n_users=1, n_resources=2, n_nonzero=1, alphabet_size=2)
        gen = GeneratorSet(gbar=np.zeros((1, 2, 1)), config=cfg)
        with pytest.raises(DegenerateCodebookError):
            normalize(gen, build_bit_matrix(2))

    def test_frobenius_identity(self):
        # because B B^T = M I, average codeword energy equals ||gbar||_F^2
        cfg = SystemConfig(n_users=4, n_resources=4, n_nonzero=2, alphabet_size=8)
        b = build_bit_matrix(8)
        rng = np.random.default_rng(13)
        gen = GeneratorSet(gbar=rng.normal(size=(4, 4, 3)), config=cfg)
        frob = np.array([np.linalg.norm(g) ** 2 for g in gen.gbar])
        assert gen.user_energies(b) == pytest.approx(frob, rel=1e-12)


class TestInitGenerators:
    def test_pseudo_inverse_roundtrip(self, tiny_cfg):
        b = build_bit_matrix(4)
        gen = gen_from_complex([np.array([[1.0, 1j]])], tiny_cfg)
        ind = build_indicator([[1], [0]])
        cb = codeword_table(gen, b, ind)
        recovered = init_generators(cb, b)
        assert recovered.gbar == pytest.approx(gen.gbar, abs=1e-12)

    def test_zero_codebook_gives_zero(self, tiny_cfg):
        ind = build_indicator([[1], [0]])
        with pytest.warns(DegenerateCodebookWarning):
            cb = codeword_table(GeneratorSet(gbar=np.zeros((1, 2, 2)), config=tiny_cfg),
                                build_bit_matrix(4), ind)
        out = init_generators(cb, build_bit_matrix(4))
        assert np.all(out.gbar == 0)

    def test_huawei_file_is_exactly_linear(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        b = build_bit_matrix(4)
        gen = init_generators(cb, b)
        # the fitted generators reproduce the file entries exactly
        rebuilt = codeword_table(gen, b, cb.indicator)
        assert rebuilt.entries == pytest.approx(cb.entries, abs=1e-12)


class TestCodewordTable:
    def test_direct_multiplication_example(self, tiny_cfg):
        b = build_bit_matrix(4)
        gen = gen_from_complex([np.array([[1.0, 1j]])], tiny_cfg)
        ind = build_indicator([[0], [1]])
        cb = codeword_table(gen, b, ind)
        # bits (-1,-1),(-1,+1),(+1,-1),(+1,+1) -> -1-i, -1+i, 1-i, 1+i
        assert cb.entries[0][1] == pytest.approx([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j])
        assert np.all(cb.entries[0][0] == 0)

    def test_antipodal_symmetry(self):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        rng = np.random.default_rng(5)
        gen = GeneratorSet(gbar=rng.normal(size=(6, 4, 2)), config=cfg)
        cb = codeword_table(gen, build_bit_matrix(4), paper_indicator_4x6())
        for j in range(6):
            for m in range(4):
                assert cb.entries[j][:, m] == pytest.approx(-cb.entries[j][:, 3 - m])
