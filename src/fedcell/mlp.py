"""Two-hidden-layer ReLU classifier on a flat parameter vector.

Parameters live in a single float64 vector laid out as W1, b1, W2, b2, W3,
b3 so model exchange and noising are plain vector arithmetic.
"""
from __future__ import annotations

import numpy as np


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean cross entropy of `logits` against labels `y`, and each row's
    softmax denominator; `logits` end as the numerators, exp(row - row max)."""
    logits -= logits.max(axis=1, keepdims=True)
    shifted_y = logits[np.arange(logits.shape[0]), y]
    denom = np.exp(logits, out=logits).sum(axis=1)
    return float(np.mean(np.log(denom) - shifted_y)), denom


class Mlp:
    def __init__(self, features: int, classes: int, hidden=(256, 256)):
        self.sizes = [int(features), *[int(h) for h in hidden], int(classes)]
        self.slices = []
        off = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            w = slice(off, off + fan_in * fan_out)
            off += fan_in * fan_out
            b = slice(off, off + fan_out)
            off += fan_out
            self.slices.append((w, b, fan_in, fan_out))
        self.dim = off

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
        w = np.zeros(self.dim)
        for ws, _, fan_in, fan_out in self.slices:
            a = np.sqrt(6.0 / (fan_in + fan_out))
            w[ws] = rng.uniform(-a, a, fan_in * fan_out)
        return w

    def unpack(self, w: np.ndarray):
        return [(w[ws].reshape(fan_in, fan_out), w[bs])
                for ws, bs, fan_in, fan_out in self.slices]

    def _forward(self, w, x):
        """Every layer's input (x first) and the logits; each bias is added
        and each ReLU applied in place on its fresh weight product."""
        layers = self.unpack(w)
        acts = [x]
        for wm, b in layers[:-1]:
            h = acts[-1] @ wm
            h += b
            np.maximum(h, 0.0, out=h)
            acts.append(h)
        wm, b = layers[-1]
        logits = acts[-1] @ wm
        logits += b
        return acts, logits

    def loss_and_grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Mean cross entropy over (x, y) and its flat gradient.

        The logits become the softmax delta in place, and each weight
        product is written straight into its slice of the gradient."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        layers = self.unpack(w)
        acts, delta = self._forward(w, x)
        loss, denom = _cross_entropy(delta, y)

        grad = np.empty(self.dim)
        delta /= denom[:, None]
        delta[np.arange(n), y] -= 1.0
        delta /= n
        for layer in range(len(layers) - 1, -1, -1):
            ws, bs, fan_in, fan_out = self.slices[layer]
            np.matmul(acts[layer].T, delta, out=grad[ws].reshape(fan_in, fan_out))
            np.sum(delta, axis=0, out=grad[bs])
            if layer:
                delta = delta @ layers[layer][0].T
                delta *= acts[layer] > 0.0
        return loss, grad

    def evaluate(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """(mean cross entropy, accuracy) on a labelled set."""
        _, logits = self._forward(w, x)
        acc = float(np.mean(np.argmax(logits, axis=1) == y))
        return _cross_entropy(logits, y)[0], acc
