"""The tanh-MLP core of the harvester model and the autoencoder: forward and
backward passes, and nets packed into one parameter vector.

Gradients have one form: the flat vector, in :func:`pack` order. A caller
hands :func:`mlp_backward` the net's :func:`views` of that vector, and the
backward pass writes each weight and bias gradient into its view.
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
    """Returns (output, activations); activations[i] is layer i's input.

    ``x`` is (B, inputs), or B distinct integer row indices that stand for
    the one-hot rows they pick. The first layer then gathers its weight
    columns, ``W0.T[x] + b0``: the one-hot product's value bit for bit, since
    its other terms are exact zeros, without the (B, inputs) matrix.
    """
    acts = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        # then in place: one C-ordered (B, width) array per layer (an
        # F-ordered one would change the next matmul's rounding)
        h = w.T[h] if h.ndim == 1 else h @ w.T
        h += b
        if i != last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(net: MlpParams, acts: list[np.ndarray], d_out: np.ndarray,
                 out: list[np.ndarray] | None = None, input_grad: bool = True):
    """Back from the output gradient ``d_out``; returns the input gradient
    (None with ``input_grad=False``).

    ``out``: arrays in :func:`flat` order ([w0, b0, w1, b1, ...]), such as a
    net's :func:`views` of the flat gradient, that the weight and bias
    gradients are written into; with None they are not computed.
    """
    dz, dh = d_out, None
    for i in range(len(net.weights) - 1, -1, -1):
        if out is not None:
            if acts[i].ndim == 1:   # one-hot rows: dz's rows are their columns
                out[2 * i].fill(0.0)
                out[2 * i].T[acts[i]] = dz
            else:
                np.matmul(dz.T, acts[i], out=out[2 * i])
            np.add.reduce(dz, axis=0, out=out[2 * i + 1])
        if i == 0 and not input_grad:
            break
        dh = dz @ net.weights[i]
        if i > 0:
            slope = np.square(acts[i])   # dz = dh * (1 - a**2), in place
            np.subtract(1.0, slope, out=slope)
            dh *= slope
            dz = dh
    return dh


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
