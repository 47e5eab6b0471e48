import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scmalink import (
    AdamState,
    ConfigError,
    DenseLayer,
    MultiTaskDecoder,
    ShapeError,
    adam_step,
    cross_entropy,
    dnn_complexity,
)
from scmalink.fileio import load_checkpoint
from scmalink.nn import softmax


def small_decoder(rng, input_width=4, n_users=2, n_messages=4):
    return MultiTaskDecoder.build(
        rng, input_width, n_users, n_messages,
        shared_widths=(6, 5), subnet_widths=(4,), init_std=0.5,
    )


class TestForward:
    # a decoder of one layer: by position, that layer is the softmax head
    def test_softmax_symmetric_case(self):
        dec = MultiTaskDecoder([], [DenseLayer(np.zeros((1, 4, 4)), np.zeros((1, 4)))])
        out = dec.forward(np.zeros((1, 4)))
        assert out[0, 0] == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_softmax_log2_example(self):
        # pre-activations [ln 2, 0, 0, 0] -> [0.4, 0.2, 0.2, 0.2]
        dec = MultiTaskDecoder([], [DenseLayer(np.eye(4)[None], np.zeros((1, 4)))])
        out = dec.forward(np.array([[np.log(2), 0, 0, 0]]))
        assert out[0, 0] == pytest.approx([0.4, 0.2, 0.2, 0.2])

    def test_zero_decoder_outputs_uniform(self):
        rng = np.random.default_rng(0)
        dec = small_decoder(rng)
        for layer in dec.layers():
            layer.weights[:] = 0
            layer.bias[:] = 0
        probs = dec.forward(np.ones(4))
        assert probs == pytest.approx(np.full((2, 4), 0.25))

    def test_valid_distribution_for_random_parameters(self):
        rng = np.random.default_rng(1)
        dec = small_decoder(rng)
        probs = dec.forward(rng.normal(size=(50, 4)))
        assert probs.shape == (50, 2, 4)
        assert np.all(probs > 0)
        assert probs.sum(axis=2) == pytest.approx(np.ones((50, 2)), abs=1e-9)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(20, 8))
        assert softmax(z + 123.456) == pytest.approx(softmax(z), abs=1e-12)

    def test_decoder_needs_a_head(self):
        # the last user layer is the softmax head, so a decoder needs one
        with pytest.raises(ConfigError, match="at least one user subnetwork layer"):
            MultiTaskDecoder([DenseLayer(np.ones((4, 4)), np.zeros(4))], [])

    def test_user_layers_must_stack_one_user_count(self):
        rng = np.random.default_rng(4)
        user_layers = [DenseLayer(rng.normal(size=(2, 4, 4)), np.zeros((2, 4))),
                       DenseLayer(rng.normal(size=(3, 4, 4)), np.zeros((3, 4)))]
        with pytest.raises(ShapeError, match="must stack 2 users"):
            MultiTaskDecoder([], user_layers)

    def test_width_mismatch_raises(self):
        dec = small_decoder(np.random.default_rng(3))
        with pytest.raises(ShapeError):
            dec.forward(np.ones(5))

    @pytest.mark.parametrize("shape", [(), (2, 4, 4)])
    def test_input_neither_vector_nor_batch_raises(self, shape):
        dec = small_decoder(np.random.default_rng(3))
        with pytest.raises(ShapeError, match=rf"input shape {re.escape(str(shape))}"):
            dec.forward(np.ones(shape))

    def test_stacked_forward_matches_each_user_alone(self):
        # one (J, out, in) layer per depth computes what J separate
        # (out, in) networks would, user by user
        rng = np.random.default_rng(12)
        dec = small_decoder(rng, n_users=3)
        x = rng.normal(size=(7, 4))
        probs = dec.forward(x)
        trunk = x
        for layer in dec.shared:
            trunk = layer.forward(trunk)
        for j in range(3):
            h = trunk
            *hidden, head = [DenseLayer(layer.weights[j], layer.bias[j]) for layer in dec.user_layers]
            for layer in hidden:
                h = layer.forward(h)
            assert np.array_equal(probs[:, j, :], softmax(head.affine(h)))


class TestLoss:
    def test_exact_prediction_zero_loss(self):
        probs = np.zeros((3, 2, 4))
        probs[:, :, 1] = 1
        assert cross_entropy(probs, np.ones((3, 2), dtype=int)) == 0.0

    def test_uniform_j6_m4(self):
        p = np.full((5, 6, 4), 0.25)
        assert cross_entropy(p, np.zeros((5, 6), dtype=int)) == pytest.approx(6 * np.log(4), abs=1e-12)

    def test_uniform_j1_m4(self):
        p = np.full((1, 1, 4), 0.25)
        assert cross_entropy(p, [[2]]) == pytest.approx(1.3863, abs=1e-4)

    def test_clamped_at_zero_probability(self):
        p = np.zeros((1, 1, 2))
        p[0, 0, 1] = 1.0
        out = cross_entropy(p, [[0]])
        assert np.isfinite(out) and out > 60  # -log(1e-30)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4), size=(10, 3))
        assert cross_entropy(p, rng.integers(0, 4, size=(10, 3))) >= 0

    def test_equals_the_one_hot_product_bit_for_bit(self):
        # -sum_m q_m log p_m with one-hot q adds exact zeros to -log p[message]
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.full(4, 0.3), size=(200, 6))
        p[0, 0] = [0.0, 1.0, 0.0, 0.0]  # a clamped target
        msgs = rng.integers(0, 4, size=(200, 6))
        q = np.zeros_like(p)
        np.put_along_axis(q, msgs[..., None], 1.0, axis=-1)
        one_hot = float((-(q * np.log(np.maximum(p, 1e-30))).sum(axis=-1)).sum(axis=-1).mean())
        assert cross_entropy(p, msgs) == one_hot

    def test_one_hot_target_rejected(self):
        rng = np.random.default_rng(14)
        dec = small_decoder(rng)
        probs = dec.forward(rng.normal(size=(3, 4)), remember=True)
        one_hot = np.zeros_like(probs)
        one_hot[..., 0] = 1.0
        with pytest.raises(ShapeError, match="messages"):
            cross_entropy(probs, one_hot)
        with pytest.raises(ShapeError, match="messages"):
            dec.backward_cross_entropy(probs, one_hot)


class TestBackward:
    def test_terminal_gradient_is_p_minus_q(self):
        rng = np.random.default_rng(6)
        dec = small_decoder(rng)
        x = rng.normal(size=(8, 4))
        probs = dec.forward(x, remember=True)
        dec.backward_cross_entropy(probs, np.zeros((8, 2), dtype=int))
        # re-run forward keeping the head input, check d loss / d z = (p-q)/B
        head = dec.user_layers[-1]
        expected = probs.copy()
        expected[:, :, 0] -= 1
        expected /= 8
        assert head.grad_bias == pytest.approx(expected.sum(axis=0), abs=1e-12)

    def test_backward_without_remembered_forward_raises(self):
        layer = DenseLayer(np.ones((3, 2)), np.zeros(3))
        for backward in (layer.backward, layer.backward_preact):
            with pytest.raises(ConfigError, match="remembered forward"):
                backward(np.ones((1, 3)))

    def test_zero_upstream_gives_zero_gradients(self):
        # a head certain of the right message: exp(-800) underflows to 0, so
        # p is exactly one-hot and p - q is exactly zero
        rng = np.random.default_rng(7)
        dec = small_decoder(rng)
        head = dec.user_layers[-1]
        head.weights[:] = 0
        head.bias[:] = [800.0, 0.0, 0.0, 0.0]
        x = rng.normal(size=(4, 4))
        probs = dec.forward(x, remember=True)
        dec.backward_cross_entropy(probs, np.zeros((4, 2), dtype=int))
        for g in dec.gradients():
            assert np.allclose(g, 0, atol=1e-12)

    def test_finite_difference_all_layer_types(self):
        # decoder with relu trunk and subnetwork layers and a softmax head
        rng = np.random.default_rng(8)
        shared = [
            DenseLayer(rng.normal(0, 0.7, size=(5, 3)), np.zeros(5)),
            DenseLayer(rng.normal(0, 0.7, size=(4, 5)), np.zeros(4)),
        ]
        user_layers = [
            DenseLayer(rng.normal(0, 0.7, size=(2, 4, 4)), np.zeros((2, 4))),
            DenseLayer(rng.normal(0, 0.7, size=(2, 2, 4)), np.zeros((2, 2))),
        ]
        dec = MultiTaskDecoder(shared, user_layers)
        x = rng.normal(size=(5, 3))
        msgs = np.zeros((5, 2), dtype=int)

        probs = dec.forward(x, remember=True)
        dec.backward_cross_entropy(probs, msgs)
        analytic = [g.copy() for g in dec.gradients()]

        step = 1e-6
        params = dec.parameters()
        numeric = []
        for arr in params:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                lp = cross_entropy(dec.forward(x), msgs)
                arr[ix] = orig - step
                lm = cross_entropy(dec.forward(x), msgs)
                arr[ix] = orig
                g[ix] = (lp - lm) / (2 * step)
            numeric.append(g)
        a = np.concatenate([g.ravel() for g in analytic])
        n = np.concatenate([g.ravel() for g in numeric])
        assert np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n)) < 1e-5


def paper_decoder(seed):
    return MultiTaskDecoder.build(np.random.default_rng(seed), 8, 6, 4)


def fresh_copy(dec):
    """The same parameters in new layers that hold no buffers yet."""
    def copy(layer):
        return DenseLayer(layer.weights.copy(), layer.bias.copy())
    return MultiTaskDecoder([copy(l) for l in dec.shared], [copy(l) for l in dec.user_layers])


def random_batch(rng, size, n_users=6, n_messages=4):
    return rng.normal(size=(size, 8)), rng.integers(0, n_messages, size=(size, n_users))


def remembered_step(dec, x, msgs):
    """One remembered forward and backward: probabilities, input gradient."""
    probs = dec.forward(x, remember=True)
    return probs, dec.backward_cross_entropy(probs, msgs)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLayerBuffers:
    """A remembered forward and its backward reuse per-layer buffers; every
    result must equal a run on layers that never held any."""

    def test_batch_size_changes_match_fresh_copies(self):
        rng = np.random.default_rng(20)
        dec = paper_decoder(20)
        adam = AdamState.for_parameters(dec.parameters())
        for size in (1000, 333, 3):
            x, msgs = random_batch(rng, size)
            twin = fresh_copy(dec)
            got = remembered_step(dec, x, msgs)
            want = remembered_step(twin, x, msgs)
            assert_same_bytes(got, want)
            assert_same_bytes(dec.gradients(), twin.gradients())
            adam_step(dec.parameters(), dec.gradients(), adam, 1e-3)

    def test_outputs_survive_the_next_step(self):
        rng = np.random.default_rng(21)
        dec = paper_decoder(21)
        got = remembered_step(dec, *random_batch(rng, 500))
        kept = [a.copy() for a in got]
        remembered_step(dec, *random_batch(rng, 500))
        assert_same_bytes(got, kept)

    def test_inference_between_forward_and_backward_changes_nothing(self):
        rng = np.random.default_rng(22)
        dec = paper_decoder(22)
        x, msgs = random_batch(rng, 500)
        twin = fresh_copy(dec)
        want = remembered_step(twin, x, msgs)
        probs = dec.forward(x, remember=True)
        dec.forward(rng.normal(size=x.shape))
        got = probs, dec.backward_cross_entropy(probs, msgs)
        assert_same_bytes(got, want)
        assert_same_bytes(dec.gradients(), twin.gradients())

    def test_remembered_step_allocates_less_than_one_layer(self):
        # one (6, 1000, 64) float64 activation is 3,072,000 bytes; allocating
        # the layer arrays afresh every step peaked at about 20.7 MB
        rng = np.random.default_rng(23)
        dec = paper_decoder(23)
        x, msgs = random_batch(rng, 1000)
        remembered_step(dec, x, msgs)  # allocates the buffers
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            for _ in range(3):
                remembered_step(dec, x, msgs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 6 * 1000 * 64 * 8


def norm_rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestDtype:
    """A layer computes in its arrays' dtype: float32 stays float32, any other
    dtype becomes float64. Float32 matches float64 within a few hundred
    float32 ulps where no relu pre-activation changes sign between the two,
    as on the batch here. On 12 random paper decoders at batch 1000, the 10
    without such a flip read probabilities at most 1.5e-7 apart and input and
    parameter gradients at most 2.6e-7 and 6.1e-7 apart, relative in norm
    (float32's epsilon is 1.2e-7); the two with one flipped unit read up to
    5e-4, a whole sample's term."""

    PROB_ABS = 1e-6
    GRAD_REL = 1e-5

    def twins(self, seed=0):
        # float32-representable float64 parameters: only the arithmetic differs
        dec = paper_decoder(seed).astype(np.float32).astype(np.float64)
        return dec, dec.astype(np.float32)

    def test_decoder_forward_and_backward_match_float64(self):
        dec, d32 = self.twins()
        x, msgs = random_batch(np.random.default_rng(0), 1000)
        (p64, g64), (p32, g32) = remembered_step(dec, x, msgs), remembered_step(d32, x, msgs)
        for a, b in zip(d32.layers()[:-1], dec.layers()[:-1]):
            assert np.array_equal(a._output > 0, b._output > 0)
        assert p32.dtype == g32.dtype == np.float32 and d32.dtype == np.float32
        assert np.abs(p32 - p64).max() <= self.PROB_ABS
        assert norm_rel(g32, g64) <= self.GRAD_REL
        for a, b in zip(d32.gradients(), dec.gradients()):
            assert a.dtype == np.float32 and norm_rel(a, b) <= self.GRAD_REL
        # inference casts a float64 input and keeps the layer dtype
        assert d32.forward(x).dtype == np.float32 and dec.forward(x).dtype == np.float64

    def test_layer_forward_and_backward_match_float64(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 64, 128)).astype(np.float32)
        b = rng.normal(size=(6, 64)).astype(np.float32)
        x = rng.normal(size=(6, 500, 128)).astype(np.float32)
        grad = rng.normal(size=(6, 500, 64))
        l32, l64 = DenseLayer(w, b), DenseLayer(w.astype(np.float64), b.astype(np.float64))
        y32, y64 = l32.forward(x, remember=True), l64.forward(x.astype(np.float64), remember=True)
        assert np.array_equal(y32 > 0, y64 > 0)
        g32, g64 = l32.backward(grad.astype(np.float32)), l64.backward(grad.copy())
        assert y32.dtype == g32.dtype == l32.grad_weights.dtype == l32.grad_bias.dtype == np.float32
        assert l32._buffers["mask"].dtype == bool
        for got, want in ((y32, y64), (g32, g64), (l32.grad_weights, l64.grad_weights),
                          (l32.grad_bias, l64.grad_bias)):
            assert norm_rel(got, want) <= self.GRAD_REL

    def test_other_dtypes_become_float64(self):
        layer = DenseLayer(np.ones((3, 2), dtype=np.float16), [0, 1, 2])
        assert layer.weights.dtype == layer.bias.dtype == np.float64
        dec = paper_decoder(1)
        assert dec.astype(np.float16).dtype == np.float64
        assert dec.astype(np.float32).astype(np.float64).dtype == np.float64

    def test_astype_copies_values(self):
        dec = paper_decoder(2)
        twin = dec.astype(np.float64)
        assert_same_bytes(twin.parameters(), dec.parameters())
        twin.shared[0].weights[0, 0] += 1.0
        assert twin.shared[0].weights[0, 0] != dec.shared[0].weights[0, 0]

    def test_mixed_dtypes_raise(self):
        with pytest.raises(ConfigError, match="weights float32 and bias float64 differ in dtype"):
            DenseLayer(np.ones((3, 2), dtype=np.float32), np.zeros(3))
        dec = paper_decoder(3)
        d32 = dec.astype(np.float32)
        with pytest.raises(ConfigError, match=re.escape("decoder layers mix dtypes ['float32', 'float64']")):
            MultiTaskDecoder(d32.shared, dec.user_layers)


# batch sizes around every block boundary, and the harness's 2,000-vector chunk
BLOCK_SWEEP = [0, 1, 2, 5, 66, *range(127, 130), *range(255, 258), 300, *range(383, 386),
               *range(511, 514), 700, 1000, *range(1999, 2002), 2049, 4000, 5000]


class TestRowBlocks:
    """Inference runs near-equal row blocks of at most ROW_BLOCK rows; a
    remembered forward runs the batch as one block."""

    @pytest.fixture(scope="class")
    def decoders(self):
        # the seed-7 default_init decoder, as train and the benchmark build it
        paper = MultiTaskDecoder.build(np.random.default_rng(np.random.SeedSequence([7, 1])), 8, 6, 4)
        _, recorded, _, _ = load_checkpoint(Path(__file__).with_name("checkpoint_v1.bin"))
        return {"paper": paper, "checkpoint_v1": recorded}

    @pytest.mark.parametrize("name", ["paper", "checkpoint_v1"])
    def test_blocks_equal_one_block_byte_for_byte(self, decoders, name):
        dec = decoders[name]
        x = np.random.default_rng(30).normal(size=(max(BLOCK_SWEEP), dec.input_width))
        differ = []
        for b in BLOCK_SWEEP:
            got = dec.forward(x[:b])
            assert got.shape == (b, dec.n_users, dec.n_messages)
            if got.tobytes() != dec.forward(x[:b], remember=True).tobytes():
                differ.append(b)
        assert differ == []

    def test_wide_decoder_within_tolerance_with_equal_decisions(self):
        # wider layers take other BLAS kernels by size; measured at most
        # 8.2e-16 relative, as between batch sizes before blocking
        dec = MultiTaskDecoder.build(np.random.default_rng(5), 8, 6, 4,
                                     shared_widths=(256, 128), subnet_widths=(128, 64))
        x = np.random.default_rng(31).normal(size=(4000, 8))
        for b in (257, 511, 2000, 4000):
            got = dec.forward(x[:b])
            want = dec.forward(x[:b], remember=True)
            assert np.abs(got - want).max() <= 1e-14 * want.min()
            assert np.array_equal(got.argmax(axis=-1), want.argmax(axis=-1))


def two_reduction_softmax(z):
    """Reference softmax: one max reduction and one sum reduction over the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmax:
    SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 700.0, -745.0, 1e308]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
    def test_equals_two_reductions_byte_for_byte(self, m):
        rng = np.random.default_rng(40 + m)
        pool = np.array(self.SPECIAL)
        cases = [
            rng.normal(size=(200, m)),
            rng.normal(size=(50, 6, m)) * 30,
            pool[rng.integers(0, len(pool), size=(500, m))],  # +-0, +-inf, NaN
            np.repeat(rng.normal(size=(40, 1)), m, axis=1),  # rows of equal entries
            np.repeat(pool[:, None], m, axis=1),
            np.where(rng.random((100, m)) < 0.5, 0.0, -0.0),
            # (b, J, M) as the MPA posteriors pass it: a C-ordered copy of a transpose
            np.ascontiguousarray(rng.integers(-3, 3, size=(m, 20, 6)).astype(float).transpose(1, 2, 0)),
        ]
        with np.errstate(invalid="ignore", over="ignore"):
            for z in cases:
                got, want = softmax(z), two_reduction_softmax(z)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_negative_nan_logit_gives_nan_row(self):
        # numpy's max reduction may return a NaN of the other sign than the
        # -NaN it met; np.maximum returns that -NaN itself
        z = np.array([[-np.nan, 1.0, 2.0, 0.0], [1.0, -np.nan, 0.0, 0.0]])
        with np.errstate(invalid="ignore"):
            got, want = softmax(z), two_reduction_softmax(z)
        assert np.isnan(got).all() and np.isnan(want).all()


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) at t=1
        p = [np.array([1.0])]
        g = [np.array([0.37])]
        state = AdamState.for_parameters(p)
        adam_step(p, g, state, lr=0.01)
        assert p[0][0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_lists_of_different_lengths_rejected(self):
        p = [np.zeros(2), np.zeros(3)]
        state = AdamState.for_parameters(p)
        with pytest.raises(ShapeError, match="must align"):
            adam_step(p, [np.zeros(2)], state, lr=0.1)
        assert state.step == 0

    def test_zero_gradient_keeps_parameters(self):
        p = [np.array([2.0, -3.0])]
        state = AdamState.for_parameters(p)
        adam_step(p, [np.zeros(2)], state, lr=0.5)
        assert p[0] == pytest.approx([2.0, -3.0])
        assert state.step == 1

    def test_statefulness(self):
        # moments persist: a zero-gradient step still moves the parameter
        p = [np.array([1.0])]
        state = AdamState.for_parameters(p)
        adam_step(p, [np.array([0.5])], state, lr=0.1)
        after_first = p[0][0]
        adam_step(p, [np.zeros(1)], state, lr=0.1)
        assert p[0][0] != pytest.approx(after_first, abs=1e-6)
        # and the moments decayed rather than reset
        assert 0 < state.m[0][0] < 0.5 * (1 - 0.9)  # below one-step value
        assert state.step == 2


class TestComplexity:
    def test_default_topology_estimate(self):
        rng = np.random.default_rng(9)
        dec = MultiTaskDecoder.build(rng, 8, 6, 4)
        assert dnn_complexity(dec) == 49_536

    def test_single_small_layer(self):
        rng = np.random.default_rng(10)
        dec = MultiTaskDecoder.build(rng, 4, 1, 4, shared_widths=(), subnet_widths=())
        assert dnn_complexity(dec) == 16

    def test_wide_shared_dominates(self):
        rng = np.random.default_rng(11)
        dec = MultiTaskDecoder.build(rng, 8, 2, 4, shared_widths=(128, 64), subnet_widths=(16,))
        assert dnn_complexity(dec) == 11_392
