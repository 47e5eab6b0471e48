"""Minimal dense network engine and the multi-task SCMA decoder.

One shared trunk maps the 2K-dimensional real received vector to a common
representation; J per-user subnetworks classify it into one of M messages
through a softmax head. Forward, analytic backward and ADAM are implemented
directly on numpy arrays; batches are row-major (samples x features).

A layer computes in the dtype of its arrays: float32 weights and biases stay
float32, and any other dtype becomes float64. Its buffers (except the bool
relu mask) and gradients take that dtype, and a decoder casts its input to
it; a decoder whose layers mix dtypes is rejected. Everything the package
builds or loads is float64; training runs a float32 copy of the decoder
(MultiTaskDecoder.astype, see training.train), where the GEMMs run about
twice as fast.

The J subnetworks have one shape, so each subnetwork depth is one
DenseLayer holding every user's weights stacked as (J, out, in) and biases
as (J, out); its activations are (J, batch, width). A trunk layer holds
(out, in) weights and (out,) biases.

A remembered (training) forward and its backward write into arrays each
layer owns, allocated again only when the batch shape changes: the affine
output (relu applied to it in place on hidden layers), the relu mask and the
input gradient. They stay valid until the next remembered forward. Weight
and bias gradients are written in place. Fresh (J, batch, width) arrays
every step cost page faults, as the allocator hands them back to the OS.
The probabilities and backward_cross_entropy's input gradient leave the
decoder, so they are fresh. Inference (remember=False) allocates:
simulate_ber runs one decoder's inference forward on several threads at
once.

Inference runs on row blocks: the batch is cut into near-equal blocks of at
most ROW_BLOCK rows, and each block passes every layer before the next one
starts. A (J, 256, 64) float64 activation of the paper decoder is 768 kB and
stays in a 2 MB L2, where one (J, 2000, 64) activation is 6.1 MB and its
bias add and relu stream it from memory. A remembered forward stays one
block: its backward reads the whole batch. Blocking changes no bit because
of how OpenBLAS picks its GEMM kernels by size. Measured at 1 and 2 threads
on random operands, a block of r rows gave other bits than a 2,000-row GEMM
only for small r: r = 1 on the 8->128 and 16->4 layers, r <= 18 on 128->64
and 64->64, r <= 37 on 64->32 and r <= 75 on 32->16; every r from 76 to 256
agreed. Near-equal blocks hold at least 128 rows whenever the batch exceeds
256, so the paper decoder's probabilities are those of one block, byte for
byte. Wider layers choose other kernels: with a (256, 128) trunk and
(128, 64) subnetworks, batches from 511 rows up differ from one block by at
most 8.2e-16 relative (tested to 1e-14, decisions equal), as such a
decoder's rows already did between batch sizes before blocking.

softmax takes its max as a running np.maximum over the M slices of the last
axis. A max rounds nothing: only the sign of a zero max can differ from a
max reduction's, which exp(z - top) does not see, and the sign of a NaN
that a -NaN logit makes. Its sum stays one np.sum over the last axis,
because numpy sums M >= 8 entries in pairwise order, which a loop over the
slices would not reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ShapeError, SystemConfig

# most rows per inference block; one 2,000-vector forward of the paper
# decoder (BLAS 1 thread, 2-core Xeon, median of 40) took 6.64 ms as one
# block, 6.44 at 1024 rows, 6.25 at 512, 6.11 at 256, 6.53 at 128, 7.25 at 64
ROW_BLOCK = 256
LOG_CLAMP = 1e-30  # avoids -inf on collapsed probabilities
# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softmax(z):
    """Softmax over the last axis. The max is a running np.maximum over the
    M slices, one pass over all rows instead of an inner loop per row."""
    top = z[..., 0]
    for m in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., m])
    e = np.exp(z - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


class DenseLayer:
    """Affine map x W^T + b, for one network or J stacked ones, and relu on
    it; a decoder's last layer, its softmax head, reads only the affine map."""

    def __init__(self, weights, bias):
        w, b = (np.asarray(a, dtype=_dtype_of(a)) for a in (weights, bias))
        if w.dtype != b.dtype:
            raise ConfigError(f"weights {w.dtype} and bias {b.dtype} differ in dtype")
        if w.ndim not in (2, 3) or b.shape != w.shape[:-1]:
            raise ShapeError(f"weights {w.shape} and bias {b.shape} are inconsistent")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ConfigError("layer parameters must be finite")
        self.weights = w
        self.bias = b
        self.grad_weights = np.zeros_like(w)
        self.grad_bias = np.zeros_like(b)
        self._input = None
        self._output = None
        self._buffers = {}

    @property
    def n_in(self):
        return self.weights.shape[-1]

    @property
    def n_out(self):
        return self.weights.shape[-2]

    def _buffer(self, name, shape, dtype=None):
        """The layer's own array `name`, allocated again only when `shape`
        changes; in the layer's dtype unless another is given."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape, self.weights.dtype if dtype is None else dtype)
        return buf

    def affine(self, x, remember=False):
        """x W^T + b for a (batch, in) or (J, batch, in) input; a layer buffer if remembered."""
        w_t = self.weights.swapaxes(-1, -2)
        if remember:
            shape = (*self.weights.shape[:-2], x.shape[-2], self.n_out)
            z = np.matmul(x, w_t, out=self._buffer("z", shape))
            self._input = x
            self._output = z
        else:
            z = x @ w_t
        z += self.bias[..., None, :]
        return z

    def forward(self, x, remember=False):
        """relu(x W^T + b), applied in place on the affine output."""
        z = self.affine(x, remember)
        return np.maximum(z, 0.0, out=z)

    def backward_preact(self, grad_z):
        """Backward from the gradient w.r.t. the pre-activation z; the
        parameter gradients are written in place."""
        if self._input is None:
            raise ConfigError("backward called without a remembered forward pass")
        np.matmul(np.swapaxes(grad_z, -1, -2), self._input, out=self.grad_weights)
        np.sum(grad_z, axis=-2, out=self.grad_bias)
        shape = (*grad_z.shape[:-1], self.n_in)
        return np.matmul(grad_z, self.weights, out=self._buffer("grad_in", shape))

    def backward(self, grad_out):
        """Backward from the gradient w.r.t. the relu output, masked in place
        where the kept output is 0: relu(z) > 0 exactly where z > 0. The input
        gradient returned is a layer buffer, like the affine output, valid
        until the next remembered forward overwrites it."""
        if self._output is None:
            raise ConfigError("backward called without a remembered forward pass")
        mask = np.greater(self._output, 0, out=self._buffer("mask", grad_out.shape, bool))
        return self.backward_preact(np.multiply(grad_out, mask, out=grad_out))


class MultiTaskDecoder:
    """Shared dense trunk feeding J per-user softmax classification heads;
    `user_layers` holds one stacked layer per subnetwork depth. Roles follow
    from position: every layer is relu but the last user layer, the heads."""

    def __init__(self, shared, user_layers):
        if not user_layers:
            raise ConfigError("decoder needs at least one user subnetwork layer")
        if any(layer.weights.ndim != 2 for layer in shared):
            raise ShapeError("trunk layers take (out, in) weights")
        n_users = user_layers[0].weights.shape[0]
        if any(layer.weights.ndim != 3 or layer.weights.shape[0] != n_users
               for layer in user_layers):
            raise ShapeError(f"every subnetwork layer must stack {n_users} users' weights")
        layers = [*shared, *user_layers]
        for prev, layer in zip(layers, layers[1:]):
            if layer.n_in != prev.n_out:
                raise ShapeError(f"layer input width {layer.n_in} does not match {prev.n_out}")
        dtypes = sorted({layer.weights.dtype.name for layer in layers})
        if len(dtypes) > 1:
            raise ConfigError(f"decoder layers mix dtypes {dtypes}")
        self.shared = list(shared)
        self.user_layers = list(user_layers)
        self.dtype = layers[0].weights.dtype

    def astype(self, dtype):
        """A copy of this decoder in `dtype`, by DenseLayer's rule: float32
        stays float32, anything else is float64. The values are assigned
        into new layers, so the copy keeps a parameter that went non-finite."""
        def zeros(layers):
            return [DenseLayer(np.zeros(layer.weights.shape, dtype), np.zeros(layer.bias.shape, dtype))
                    for layer in layers]
        twin = MultiTaskDecoder(zeros(self.shared), zeros(self.user_layers))
        for p, value in zip(twin.parameters(), self.parameters()):
            p[...] = value
        return twin

    @classmethod
    def build(cls, rng, input_width, n_users, n_messages,
              shared_widths=(128, 64), subnet_widths=(64, 32, 16), init_std="scaled"):
        """Fresh decoder with gaussian weights and zero biases.

        init_std "scaled" draws each layer from normal(0, 1/n_in), which keeps
        activations O(1) through the depth; a float selects one fixed standard
        deviation for every layer (1.0 gives plain unit-variance gaussians,
        which saturate the softmax heads and train poorly at this depth).
        Weights are drawn trunk first, then user by user, depth by depth.
        """

        def gaussian(n_in, n_out):
            std = 1.0 / np.sqrt(n_in) if init_std == "scaled" else float(init_std)
            return rng.normal(0.0, std, size=(n_out, n_in))

        chain = [input_width, *shared_widths]
        shared = [DenseLayer(gaussian(a, b), np.zeros(b)) for a, b in zip(chain, chain[1:])]
        sub = [chain[-1], *subnet_widths, n_messages]
        per_user = [[gaussian(a, b) for a, b in zip(sub, sub[1:])] for _ in range(n_users)]
        user_layers = [DenseLayer(np.stack(ws), np.zeros((n_users, n_out)))
                       for ws, n_out in zip(zip(*per_user), sub[1:])]
        return cls(shared, user_layers)

    @property
    def n_users(self):
        return self.user_layers[0].weights.shape[0]

    @property
    def n_messages(self):
        return self.user_layers[-1].n_out

    @property
    def input_width(self):
        return self.layers()[0].n_in

    def check_fits(self, cfg: SystemConfig) -> None:
        """Raise ConfigError unless the decoder reads 2K real inputs and has
        J heads over M messages."""
        if (self.input_width, self.n_users, self.n_messages) != (2 * cfg.K, cfg.J, cfg.M):
            raise ConfigError(
                f"decoder input width {self.input_width}, {self.n_users} users and "
                f"{self.n_messages} messages do not match 2K = {2 * cfg.K}, J = {cfg.J}, M = {cfg.M}")

    def forward(self, r_split, remember=False):
        """Probabilities (batch, J, M) for real-split inputs (batch, 2K).

        Inference runs the whole network on one near-equal block of at most
        ROW_BLOCK rows before it starts the next; a remembered forward runs
        the batch as one block."""
        x = np.asarray(r_split, dtype=self.dtype)
        if x.ndim not in (1, 2):
            raise ShapeError(f"input shape {x.shape} is neither (2K,) nor (batch, 2K)")
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.input_width:
            raise ShapeError(f"input width {x.shape[1]}, decoder expects {self.input_width}")
        n = len(x)
        blocks = 1 if remember else -(-n // ROW_BLOCK)
        if blocks <= 1:
            probs = self._block_probs(x, remember)
        else:
            probs = np.empty((self.n_users, n, self.n_messages), self.dtype)
            for i in range(blocks):
                rows = slice(i * n // blocks, (i + 1) * n // blocks)
                probs[:, rows] = self._block_probs(x[rows], False)
        probs = probs.swapaxes(0, 1)
        return probs[0] if single else probs

    def _block_probs(self, x, remember):
        """(J, rows, M) probabilities of one block of (rows, 2K) inputs."""
        for layer in self.layers()[:-1]:
            x = layer.forward(x, remember)
        return softmax(self.user_layers[-1].affine(x, remember))

    def backward_cross_entropy(self, probs, messages):
        """Gradients of the batch-mean total cross-entropy against the
        (batch, J) message indices; returns dL/d(input).

        Uses the fused softmax identity: the gradient at each head's
        pre-activation is p / batch, less 1 / batch at the message. The trunk
        output feeds every user, so its gradient is the sum over users. The
        returned gradient is a fresh array; the layers' own buffers stay
        inside the decoder.
        """
        grad = probs.copy()  # probs stays the caller's
        grad[_targets(probs, messages)] -= 1.0
        g = self.user_layers[-1].backward_preact(np.swapaxes(grad, 0, 1) / len(grad))
        for layer in reversed(self.user_layers[:-1]):
            g = layer.backward(g)
        g = g.sum(axis=0)
        for layer in reversed(self.shared):
            g = layer.backward(g)
        return g.copy()

    def layers(self):
        return [*self.shared, *self.user_layers]

    def parameters(self):
        return [p for layer in self.layers() for p in (layer.weights, layer.bias)]

    def gradients(self):
        return [g for layer in self.layers() for g in (layer.grad_weights, layer.grad_bias)]

    def widths(self):
        """Node counts of consecutive layers: shared chain and one subnet chain."""
        chain = [self.input_width] + [l.n_out for l in self.shared]
        sub = [chain[-1]] + [l.n_out for l in self.user_layers]
        return chain, sub


def _dtype_of(a):
    """float32 for a float32 array, float64 for anything else."""
    return np.float32 if getattr(a, "dtype", None) == np.float32 else np.float64


def _targets(probs, messages):
    """Index of the (batch, J) target probabilities p[b, j, messages[b, j]]."""
    messages = np.asarray(messages)
    if messages.ndim != 2 or messages.shape != probs.shape[:-1]:
        raise ShapeError(f"messages {messages.shape} are not the (batch, J) of probs {probs.shape}")
    return np.arange(len(messages))[:, None], np.arange(messages.shape[1]), messages


def cross_entropy(probs, messages) -> float:
    """Total cross-entropy against the (batch, J) transmitted message indices:
    -log p[message], summed over users and averaged over the batch."""
    p = np.asarray(probs, dtype=float)
    ce = -np.log(np.maximum(p[_targets(p, messages)], LOG_CLAMP))
    return float(ce.sum(axis=-1).mean())


def dnn_complexity(dec: MultiTaskDecoder) -> int:
    """Multiply-adds per decoded vector: every trunk width product plus J
    times every subnetwork width product (49,536 for the paper decoder)."""
    chain, sub = dec.widths()
    trunk = sum(a * b for a, b in zip(chain, chain[1:]))
    return int(trunk + dec.n_users * sum(a * b for a, b in zip(sub, sub[1:])))


@dataclass
class AdamState:
    """First/second moment accumulators mirroring a parameter list."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_parameters(cls, params):
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected ADAM update, in place on the parameter arrays."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("parameter, gradient and state lists must align")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g**2
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params
