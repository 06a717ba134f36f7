"""The tanh-MLP core of the harvester model and the autoencoder: forward and
backward passes, and nets packed into one parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MlpParams:
    """Fully connected net: tanh hidden layers, identity output. Output heads
    (decoder softmax, harvester tanh) live with their callers.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def mlp_forward(net: MlpParams, x: np.ndarray):
    """Returns (output, activations); activations[i] is layer i's input."""
    acts = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T   # then in place: one (B, width) array per layer
        h += b
        if i != last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(net: MlpParams, acts: list[np.ndarray], d_out: np.ndarray):
    """Gradients of all weights/biases plus the input gradient."""
    n_layers = len(net.weights)
    g_w = [None] * n_layers
    g_b = [None] * n_layers
    dz = d_out
    for i in range(n_layers - 1, -1, -1):
        g_w[i] = dz.T @ acts[i]
        g_b[i] = dz.sum(axis=0)
        dh = dz @ net.weights[i]
        if i > 0:
            dz = dh * (1.0 - acts[i] ** 2)
    return g_w, g_b, dh


def flat(pairs) -> list[np.ndarray]:
    """[w0, b0, w1, b1, ...] of (weights, biases) list pairs: pack's order."""
    return [a for ws, bs in pairs for w, b in zip(ws, bs) for a in (w, b)]


def pack(nets: list[MlpParams]) -> np.ndarray:
    """One contiguous vector of every weight and bias of ``nets`` in flat
    order, each array rebound to its view, so updating it updates the nets.
    """
    arrays = flat((net.weights, net.biases) for net in nets)
    theta = np.concatenate(arrays, axis=None)
    ends = np.cumsum([a.size for a in arrays])
    views = iter(theta[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends))
    for net in nets:
        for i in range(len(net.weights)):
            net.weights[i], net.biases[i] = next(views), next(views)
    return theta
