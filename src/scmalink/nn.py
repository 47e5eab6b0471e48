"""Minimal dense network engine and the multi-task SCMA decoder.

One shared trunk maps the 2K-dimensional real received vector to a common
representation; J per-user subnetworks classify it into one of M messages
through a softmax head. Forward, analytic backward and ADAM are implemented
directly on numpy arrays; batches are row-major (samples x features) and all
arithmetic is float64.

The J subnetworks have one shape, so each subnetwork depth is one
DenseLayer holding every user's weights stacked as (J, out, in) and biases
as (J, out); its activations are (J, batch, width). A trunk layer holds
(out, in) weights and (out,) biases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ShapeError, SystemConfig

LOG_CLAMP = 1e-30  # avoids -inf on collapsed probabilities


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


_ACTIVATIONS = ("relu", "linear", "softmax")


class DenseLayer:
    """Affine map plus activation, for one network or J stacked ones;
    caches inputs for the backward pass."""

    def __init__(self, weights, bias, activation="relu"):
        w = np.asarray(weights, dtype=float)
        b = np.asarray(bias, dtype=float)
        if w.ndim not in (2, 3) or b.shape != w.shape[:-1]:
            raise ShapeError(f"weights {w.shape} and bias {b.shape} are inconsistent")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ConfigError("layer parameters must be finite")
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.weights = w
        self.bias = b
        self.activation = activation
        self.grad_weights = np.zeros_like(w)
        self.grad_bias = np.zeros_like(b)
        self._input = None
        self._preact = None

    @property
    def n_in(self):
        return self.weights.shape[-1]

    @property
    def n_out(self):
        return self.weights.shape[-2]

    def forward(self, x, remember=False):
        z = x @ np.swapaxes(self.weights, -1, -2)
        z += self.bias[..., None, :]
        if remember:
            self._input = x
            self._preact = z
        if self.activation == "relu":
            # the pre-activation is overwritten only when no backward needs it
            return np.maximum(z, 0.0) if remember else np.maximum(z, 0.0, out=z)
        if self.activation == "softmax":
            return softmax(z)
        return z

    def backward_preact(self, grad_z):
        """Backward from the gradient w.r.t. the pre-activation z."""
        if self._input is None:
            raise ConfigError("backward called without a remembered forward pass")
        self.grad_weights = np.swapaxes(grad_z, -1, -2) @ self._input
        self.grad_bias = grad_z.sum(axis=-2)
        return grad_z @ self.weights

    def backward(self, grad_out):
        """Backward from the gradient w.r.t. the layer output, which a relu
        layer masks in place (a fresh (J, batch, width) array per depth costs
        page faults)."""
        if self.activation == "relu":
            grad_z = np.multiply(grad_out, self._preact > 0, out=grad_out)
        elif self.activation == "linear":
            grad_z = grad_out
        else:
            raise ConfigError(
                "softmax layers are fused with the cross-entropy loss; use backward_preact"
            )
        return self.backward_preact(grad_z)


class MultiTaskDecoder:
    """Shared dense trunk feeding J per-user softmax classification heads;
    `user_layers` holds one stacked layer per subnetwork depth."""

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
        if user_layers[-1].activation != "softmax":
            raise ConfigError("every subnetwork must end in a softmax head")
        if any(layer.activation == "softmax" for layer in layers[:-1]):
            raise ConfigError("softmax is only allowed as the terminal activation")
        self.shared = list(shared)
        self.user_layers = list(user_layers)

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
        acts = ["relu"] * len(subnet_widths) + ["softmax"]
        user_layers = [
            DenseLayer(np.stack(ws), np.zeros((n_users, n_out)), act)
            for ws, n_out, act in zip(zip(*per_user), sub[1:], acts)
        ]
        return cls(shared, user_layers)

    @property
    def n_users(self):
        return self.user_layers[0].weights.shape[0]

    @property
    def n_messages(self):
        return self.user_layers[-1].n_out

    @property
    def input_width(self):
        return next(self.layers()).n_in

    def check_fits(self, cfg: SystemConfig) -> None:
        """Raise ConfigError unless the decoder reads 2K real inputs and has
        J heads over M messages."""
        if (self.input_width, self.n_users, self.n_messages) != (2 * cfg.K, cfg.J, cfg.M):
            raise ConfigError(
                f"decoder input width {self.input_width}, {self.n_users} users and "
                f"{self.n_messages} messages do not match 2K = {2 * cfg.K}, J = {cfg.J}, M = {cfg.M}")

    def forward(self, r_split, remember=False):
        """Probabilities (batch, J, M) for real-split inputs (batch, 2K)."""
        x = np.asarray(r_split, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.input_width:
            raise ShapeError(f"input width {x.shape[1]}, decoder expects {self.input_width}")
        for layer in self.layers():
            x = layer.forward(x, remember)
        probs = np.swapaxes(x, 0, 1)
        return probs[0] if single else probs

    def backward_cross_entropy(self, probs, labels):
        """Gradients of the batch-mean total cross-entropy; returns dL/d(input).

        Uses the fused softmax identity: the gradient at each head's
        pre-activation is (p - q) / batch. The trunk output feeds every user,
        so its gradient is the sum over users.
        """
        if probs.shape != labels.shape:
            raise ShapeError(f"probs {probs.shape} and labels {labels.shape} differ")
        batch = probs.shape[0]
        g = self.user_layers[-1].backward_preact(np.swapaxes(probs - labels, 0, 1) / batch)
        for layer in reversed(self.user_layers[:-1]):
            g = layer.backward(g)
        g = g.sum(axis=0)
        for layer in reversed(self.shared):
            g = layer.backward(g)
        return g

    def layers(self):
        yield from self.shared
        yield from self.user_layers

    def parameters(self):
        return [p for layer in self.layers() for p in (layer.weights, layer.bias)]

    def gradients(self):
        return [g for layer in self.layers() for g in (layer.grad_weights, layer.grad_bias)]

    def widths(self):
        """Node counts of consecutive layers: shared chain and one subnet chain."""
        chain = [self.input_width] + [l.n_out for l in self.shared]
        sub = [chain[-1]] + [l.n_out for l in self.user_layers]
        return chain, sub


def cross_entropy(probs, labels) -> float:
    """Total cross-entropy summed over users, averaged over the batch."""
    p = np.asarray(probs, dtype=float)
    q = np.asarray(labels, dtype=float)
    if p.shape != q.shape:
        raise ShapeError(f"probs {p.shape} and labels {q.shape} differ")
    ce = -(q * np.log(np.maximum(p, LOG_CLAMP))).sum(axis=-1)
    if ce.ndim == 1:  # single sample (J,)
        return float(ce.sum())
    return float(ce.sum(axis=-1).mean())


def dnn_complexity(dec: MultiTaskDecoder) -> int:
    """Dominant matrix-multiplication cost: the largest consecutive width product."""
    chain, sub = dec.widths()
    pairs = [a * b for a, b in zip(chain, chain[1:])] + [a * b for a, b in zip(sub, sub[1:])]
    return int(max(pairs))


@dataclass
class AdamState:
    """First/second moment accumulators mirroring a parameter list."""

    m: list
    v: list
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_parameters(cls, params, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected ADAM update, in place on the parameter arrays."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("parameter, gradient and state lists must align")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g**2
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params
