"""A LeNet-style convolutional network with manual backprop (numpy).

The DNN-training workload of GPMbench (Section 4.2) trains LeNet [52] on
MNIST [53] with cuDNN kernels and checkpoints the weights and biases every
few passes.  This module is the *model*: a small but genuine CNN - two
convolution+average-pool stages, two fully-connected layers, softmax
cross-entropy loss - trained by SGD with hand-derived gradients.

The network is sized so its parameters occupy ~3.2 MB, matching the paper's
checkpoint payload (Table 1), and trains on synthetic MNIST-like digits
(deterministic 16x16 glyph renderings plus noise), since the real dataset
is not available offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """im2col: x (N,C,H,W) -> (N, C*K*K, OH*OW), rows ordered (c, ki, kj)."""
    n, c = x.shape[:2]
    oh, ow = x.shape[2] - k + 1, x.shape[3] - k + 1
    # windows[n, c, i, j, ki, kj] == x[n, c, i+ki, j+kj]; the transpose +
    # reshape materialises the (c, ki, kj)-major layout in one copy.
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid 2-D convolution: x (N,C,H,W), w (F,C,K,K) -> (N,F,H-K+1,W-K+1)."""
    n = x.shape[0]
    f, _, k, _ = w.shape
    oh, ow = x.shape[2] - k + 1, x.shape[3] - k + 1
    out = w.reshape(f, -1) @ _im2col(x, k)
    return out.reshape(n, f, oh, ow) + b.reshape(1, f, 1, 1)


def _conv2d_param_grads(x, w, dout):
    """Gradients of _conv2d w.r.t. w and b."""
    n, f = dout.shape[:2]
    cols = _im2col(x, w.shape[2])
    dflat = dout.reshape(n, f, -1)
    dw = np.tensordot(dflat, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    return dw, db


def _conv2d_input_grad(x, w, dout):
    """Gradient of _conv2d w.r.t. x."""
    n, c = x.shape[:2]
    f, _, k, _ = w.shape
    oh, ow = dout.shape[2], dout.shape[3]
    # dcols[n] = w_flat.T @ dflat[n], batched over n.
    dcols = np.matmul(w.reshape(f, -1).T, dout.reshape(n, f, -1))
    dx = np.zeros_like(x)
    idx = 0
    for ci in range(c):
        for ki in range(k):
            for kj in range(k):
                dx[:, ci, ki : ki + oh, kj : kj + ow] += dcols[:, idx, :].reshape(n, oh, ow)
                idx += 1
    return dx


def _avgpool2(x: np.ndarray) -> np.ndarray:
    return (
        x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
        + x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
    ) * np.float32(0.25)


def _avgpool2_grad(dout: np.ndarray) -> np.ndarray:
    n, c, h, w = dout.shape
    dx = np.empty((n, c, 2 * h, 2 * w), dtype=dout.dtype)
    q = dout * np.float32(0.25)
    dx[:, :, 0::2, 0::2] = q
    dx[:, :, 0::2, 1::2] = q
    dx[:, :, 1::2, 0::2] = q
    dx[:, :, 1::2, 1::2] = q
    return dx


def _relu(x):
    return np.maximum(x, 0.0)


def synthetic_mnist(n: int, seed: int = 0, size: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic MNIST stand-in: noisy renderings of 10 digit glyphs."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    base = np.zeros((10, size, size), dtype=np.float32)
    for d in range(10):
        g = np.zeros((size, size), dtype=np.float32)
        # A distinct bar/ring pattern per digit - separable, not realistic.
        g[2 + d % 5 : size - 2, 2 : 2 + 2 + d % 7] = 1.0
        g[size // 2, :] = (d % 3) / 2.0
        g[:, size // 2] = (d % 4) / 3.0
        base[d] = g
    images = base[labels] + rng.normal(0, 0.25, size=(n, size, size)).astype(np.float32)
    return images[:, None, :, :].astype(np.float32), labels


@dataclass
class LeNetParams:
    """The trainable tensors (the checkpoint payload)."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    def tensors(self) -> list[np.ndarray]:
        return [self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b,
                self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b]

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.tensors())

    def pack(self, out: np.ndarray | None = None) -> np.ndarray:
        """Flatten all tensors into one float32 vector (into ``out`` if given)."""
        tensors = self.tensors()
        if out is None:
            out = np.empty(sum(t.size for t in tensors), dtype=np.float32)
        pos = 0
        for t in tensors:
            out[pos : pos + t.size] = t.reshape(-1)
            pos += t.size
        return out

    def unpack(self, flat: np.ndarray) -> None:
        pos = 0
        for t in self.tensors():
            t[...] = flat[pos : pos + t.size].reshape(t.shape)
            pos += t.size


@lru_cache(maxsize=4)
def _initial_tensors(hidden: int, seed: int) -> tuple[np.ndarray, ...]:
    """LeNet's initial parameters in :meth:`LeNetParams.tensors` order.

    Drawing them costs ~800k normals, and one crash sweep builds the same
    network many times, so each ``(hidden, seed)`` is drawn once; the
    arrays are read-only and every :class:`LeNet` copies them.
    """
    rng = np.random.default_rng(seed)

    def init(*shape):
        fan_in = int(np.prod(shape[1:])) or shape[0]
        return (rng.normal(0, 1.0 / np.sqrt(fan_in), size=shape)).astype(np.float32)

    # 32x32 -> conv5 -> 28x28 -> pool -> 14x14 -> conv3 -> 12x12 -> pool -> 6x6
    tensors = (
        init(8, 1, 5, 5), np.zeros(8, dtype=np.float32),
        init(16, 8, 3, 3), np.zeros(16, dtype=np.float32),
        init(hidden, 16 * 6 * 6), np.zeros(hidden, dtype=np.float32),
        init(10, hidden), np.zeros(10, dtype=np.float32),
    )
    for t in tensors:
        t.flags.writeable = False
    return tensors


class LeNet:
    """The network: conv(8)+pool -> conv(16)+pool -> fc -> fc -> softmax."""

    #: Input image side; 32 gives a ~3.2 MB parameter payload as in Table 1.
    IMAGE_SIZE = 32

    def __init__(self, hidden: int = 1400, seed: int = 0) -> None:
        self.params = LeNetParams(*(t.copy() for t in _initial_tensors(hidden, seed)))

    # -- flop accounting (drives the simulated GPU compute time) -----------

    def flops_per_example(self) -> int:
        p = self.params
        conv1 = 2 * 8 * 1 * 25 * 28 * 28
        conv2 = 2 * 16 * 8 * 9 * 12 * 12
        fc = 2 * (p.fc1_w.size + p.fc2_w.size)
        return 3 * (conv1 + conv2 + fc)  # forward + ~2x backward

    # -- forward/backward ----------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        p = self.params
        c1 = _conv2d(x, p.conv1_w, p.conv1_b)
        r1 = _relu(c1)
        p1 = _avgpool2(r1)
        c2 = _conv2d(p1, p.conv2_w, p.conv2_b)
        r2 = _relu(c2)
        p2 = _avgpool2(r2)
        flat = p2.reshape(x.shape[0], -1)
        h = _relu(flat @ p.fc1_w.T + p.fc1_b)
        logits = h @ p.fc2_w.T + p.fc2_b
        cache = {"x": x, "c1": c1, "p1": p1, "c2": c2, "p2": p2,
                 "flat": flat, "h": h}
        return logits, cache

    @staticmethod
    def softmax_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        n = logits.shape[0]
        loss = -np.log(probs[np.arange(n), labels] + 1e-12).mean()
        dlogits = probs
        dlogits[np.arange(n), labels] -= 1.0
        return float(loss), dlogits / n

    def train_step(self, x: np.ndarray, labels: np.ndarray, lr: float = 0.05) -> float:
        """One SGD step; returns the batch loss."""
        p = self.params
        logits, cache = self.forward(x)
        loss, dlogits = self.softmax_loss(logits, labels)

        dfc2_w = dlogits.T @ cache["h"]
        dfc2_b = dlogits.sum(axis=0)
        dh = dlogits @ p.fc2_w
        dh[cache["h"] <= 0] = 0.0
        dfc1_w = dh.T @ cache["flat"]
        dfc1_b = dh.sum(axis=0)
        dflat = dh @ p.fc1_w
        dp2 = dflat.reshape(cache["p2"].shape)
        dr2 = _avgpool2_grad(dp2)
        dr2[cache["c2"] <= 0] = 0.0
        dconv2_w, dconv2_b = _conv2d_param_grads(cache["p1"], p.conv2_w, dr2)
        dp1 = _conv2d_input_grad(cache["p1"], p.conv2_w, dr2)
        dr1 = _avgpool2_grad(dp1)
        dr1[cache["c1"] <= 0] = 0.0
        # The input image needs no gradient.
        dconv1_w, dconv1_b = _conv2d_param_grads(cache["x"], p.conv1_w, dr1)

        for t, g in [
            (p.conv1_w, dconv1_w), (p.conv1_b, dconv1_b),
            (p.conv2_w, dconv2_w), (p.conv2_b, dconv2_b),
            (p.fc1_w, dfc1_w), (p.fc1_b, dfc1_b),
            (p.fc2_w, dfc2_w), (p.fc2_b, dfc2_b),
        ]:
            t -= (lr * g).astype(np.float32, copy=False)
        return loss

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        logits, _ = self.forward(x)
        return float((logits.argmax(axis=1) == labels).mean())
