"""Two-hidden-layer ReLU classifier on a flat parameter vector.

Parameters live in a single float64 vector laid out as W1, b1, W2, b2, W3,
b3 so model exchange and noising are plain vector arithmetic.

`loss_and_grad` and `evaluate` walk the batch in fixed slices of CHUNK rows,
in order, so a call holds one slice's activations (about 1 MB at the desk
shape) whatever the batch size.  The weight gradient is summed slice by
slice: each slice's product sums over at most 256 rows, which OpenBLAS
returns with the same bits at one and at two threads, while a product over
a whole batch changes its last digits with the thread count from about 400
rows.  256 is also the hidden width and lies above 31 of the 33 shards a
desk training call visits on average, and a batch of 256 samples or fewer
runs as one slice, so it keeps the bits of the unchunked pass.
"""
from __future__ import annotations

import numpy as np

CHUNK = 256


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Each row's cross entropy of `logits` against labels `y`, and each
    row's softmax denominator; `logits` end as the numerators,
    exp(row - row max)."""
    logits -= logits.max(axis=1, keepdims=True)
    shifted_y = logits[np.arange(logits.shape[0]), y]
    denom = np.exp(logits, out=logits).sum(axis=1)
    return np.log(denom) - shifted_y, denom


def _slices(n: int):
    """A batch of n rows as slices of CHUNK rows, in order."""
    if n == 0:
        raise ValueError("empty batch")
    return [slice(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]


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

    @staticmethod
    def _forward(layers, x):
        """Every layer's input (x first) and the logits; each bias is added
        and each ReLU applied in place on its fresh weight product."""
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

    def _slice_grad(self, layers, x, y, n, out):
        """Each row's loss on one slice, whose gradient share is written
        into `out`: its logits become the softmax delta in place, divided
        by the whole batch size n, and each weight product is written
        straight into its block of `out`."""
        acts, delta = self._forward(layers, x)
        losses, denom = _cross_entropy(delta, y)
        delta /= denom[:, None]
        delta[np.arange(x.shape[0]), y] -= 1.0
        delta /= n
        for layer in range(len(layers) - 1, -1, -1):
            ws, bs, fan_in, fan_out = self.slices[layer]
            np.matmul(acts[layer].T, delta, out=out[ws].reshape(fan_in, fan_out))
            np.sum(delta, axis=0, out=out[bs])
            if layer:
                delta = delta @ layers[layer][0].T
                delta *= acts[layer] > 0.0
        return losses

    def loss_and_grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """Mean cross entropy over (x, y) and its flat gradient.

        The first slice writes the gradient; each later slice writes one
        reused buffer, which is then added to it."""
        n = x.shape[0]
        chunks = _slices(n)
        layers = self.unpack(w)
        losses = np.empty(n)
        grad = np.empty(self.dim)
        part = np.empty(self.dim) if len(chunks) > 1 else None
        for rows in chunks:
            out = grad if rows.start == 0 else part
            losses[rows] = self._slice_grad(layers, x[rows], y[rows], n, out)
            if out is part:
                grad += part
        return float(np.mean(losses)), grad

    def evaluate(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        """(mean cross entropy, accuracy) on a labelled set."""
        n = x.shape[0]
        layers = self.unpack(w)
        losses = np.empty(n)
        hits = np.empty(n, dtype=bool)
        for rows in _slices(n):
            logits = self._forward(layers, x[rows])[1]
            np.equal(np.argmax(logits, axis=1), y[rows], out=hits[rows])
            losses[rows] = _cross_entropy(logits, y[rows])[0]
        return float(np.mean(losses)), float(np.mean(hits))
