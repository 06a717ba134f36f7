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


def mlp_forward(net: MlpParams, x: np.ndarray, one_hot: bool = False):
    """Returns (output, activations); activations[i] is layer i's input.

    With ``one_hot`` the input ``x`` is the identity matrix, and layer 0 is
    W0.T + b0 without the matmul: the same bits, since every product with an
    off-diagonal 0 adds an exact 0.
    """
    acts = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if i == 0 and one_hot:
            # C order, as the matmul's result: the next matmul rounds by layout
            h = np.add(w.T, b, out=np.empty((w.shape[1], w.shape[0])))
        else:
            h = h @ w.T   # then in place: one (B, width) array per layer
            h += b
        if i != last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(net: MlpParams, acts: list[np.ndarray], d_out: np.ndarray,
                 out: list[np.ndarray] | None = None, params: bool = True,
                 input_grad: bool = True):
    """Gradients of all weights/biases plus the input gradient.

    ``out``: arrays in :func:`flat` order ([w0, b0, w1, b1, ...]) that the
    gradients are written into, in place of new arrays; the same bits either
    way. ``params=False`` skips the weight and bias gradients (their lists
    hold None), ``input_grad=False`` the input gradient (None).
    """
    n_layers = len(net.weights)
    g_w = [None] * n_layers
    g_b = [None] * n_layers
    dz, dh = d_out, None
    for i in range(n_layers - 1, -1, -1):
        if params:
            g_w[i] = np.matmul(dz.T, acts[i], out=None if out is None else out[2 * i])
            g_b[i] = np.add.reduce(dz, axis=0, out=None if out is None else out[2 * i + 1])
        if i == 0 and not input_grad:
            break
        dh = dz @ net.weights[i]
        if i > 0:
            slope = np.square(acts[i])   # dz = dh * (1 - a**2), in place
            np.subtract(1.0, slope, out=slope)
            dh *= slope
            dz = dh
    return g_w, g_b, dh


def flat(pairs) -> list[np.ndarray]:
    """[w0, b0, w1, b1, ...] of (weights, biases) list pairs: pack's order."""
    return [a for ws, bs in pairs for w, b in zip(ws, bs) for a in (w, b)]


def views(vec: np.ndarray, nets: list[MlpParams]) -> list[list[np.ndarray]]:
    """Per net, views of ``vec`` shaped as its :func:`flat` arrays, in
    :func:`pack` order."""
    out, end = [], 0
    for net in nets:
        arrays = []
        for w, b in zip(net.weights, net.biases):
            for a in (w, b):
                arrays.append(vec[end:end + a.size].reshape(a.shape))
                end += a.size
        out.append(arrays)
    return out


def pack(nets: list[MlpParams]) -> np.ndarray:
    """One contiguous vector of every weight and bias of ``nets`` in flat
    order, each array rebound to its view, so updating it updates the nets.
    """
    theta = np.concatenate(flat((net.weights, net.biases) for net in nets), axis=None)
    for net, arrays in zip(nets, views(theta, nets)):
        net.weights[:], net.biases[:] = arrays[0::2], arrays[1::2]
    return theta
