"""Two-hidden-layer ReLU classifier on a flat parameter vector.

Parameters live in a single float64 vector laid out as W1, b1, W2, b2, W3,
b3 so model exchange and noising are plain vector arithmetic.
"""
from __future__ import annotations

import numpy as np


class Mlp:
    def __init__(self, input_dim: int, num_classes: int, hidden=(256, 256)):
        self.sizes = [int(input_dim), *[int(h) for h in hidden], int(num_classes)]
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
        layers = self.unpack(w)
        acts = [x]
        h = x
        for wm, b in layers[:-1]:
            h = np.maximum(h @ wm + b, 0.0)
            acts.append(h)
        wm, b = layers[-1]
        return acts, h @ wm + b

    def loss_and_grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Mean cross entropy over (x, y) and its flat gradient."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("empty batch")
        layers = self.unpack(w)
        acts, logits = self._forward(w, x)
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        denom = e.sum(axis=1)
        loss = float(np.mean(np.log(denom) - z[np.arange(n), y]))

        grad = np.zeros(self.dim)
        delta = e / denom[:, None]
        delta[np.arange(n), y] -= 1.0
        delta /= n
        for layer in range(len(layers) - 1, -1, -1):
            ws, bs, fan_in, fan_out = self.slices[layer]
            grad[ws] = (acts[layer].T @ delta).ravel()
            grad[bs] = delta.sum(axis=0)
            if layer:
                delta = (delta @ layers[layer][0].T) * (acts[layer] > 0.0)
        return loss, grad

    def evaluate(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """(mean cross entropy, accuracy) on a labelled set."""
        n = x.shape[0]
        _, logits = self._forward(w, x)
        z = logits - logits.max(axis=1, keepdims=True)
        denom = np.exp(z).sum(axis=1)
        loss = float(np.mean(np.log(denom) - z[np.arange(n), y]))
        acc = float(np.mean(np.argmax(logits, axis=1) == y))
        return loss, acc
