"""End-to-end learned modulation: tiny MLP encoder/decoder pairs trained by
Adam through the shared tanh-MLP core on the composite
cross-entropy + power-demand loss, for point-to-point, broadcast,
multiple-access and interference topologies.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import one_blas_thread
from .channel import ChannelSpec, awgn, monte_carlo
from .constellation import Codebook, json_field
from .nn import MlpParams, flat, mlp_backward, mlp_forward, pack, views

KINDS = ("p2p", "bc", "mac", "ic")


class TrainDivergedError(RuntimeError):
    def __init__(self, iteration: int, trace: np.ndarray):
        super().__init__(f"training loss went non-finite at iteration {iteration}")
        self.iteration = iteration
        self.trace = trace


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _init_mlp(sizes: list[int], rng) -> MlpParams:
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        ws.append(rng.uniform(-lim, lim, (fan_out, fan_in)))
        bs.append(rng.uniform(-lim, lim, fan_out))
    return MlpParams(weights=ws, biases=bs)


def _to_complex(xr: np.ndarray) -> np.ndarray:
    return xr[..., 0::2] + 1j * xr[..., 1::2]


def _to_real(xc: np.ndarray) -> np.ndarray:
    """Complex samples (..., n) as interleaved (re, im) reals (..., 2n); a
    view when they are contiguous complex128."""
    return np.ascontiguousarray(xc, dtype=complex).view(float)


# ---------------------------------------------------------------------------
# topologies and systems
# ---------------------------------------------------------------------------

@dataclass
class Topology:
    """Link layout: kind, per-user message sizes, per-receiver linear SNRs,
    per-transmitter average power, and (IC only) the cross-gain matrix with
    unit diagonal.
    """

    kind: str
    m_list: list[int]
    snrs: list[float]
    p_a_uw: float
    gains: np.ndarray | None = None

    def __post_init__(self):
        self.kind = self.kind.lower()
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        k = len(self.m_list)
        if (self.kind == "p2p") != (k == 1):
            raise ValueError("P2P exactly when the user count is 1")
        if any(m < 1 for m in self.m_list):
            raise ValueError("message sizes must be >= 1")
        if len(self.snrs) != self.n_rx:
            raise ValueError(f"need one SNR per receiver ({self.n_rx})")
        for snr in self.snrs:   # the link contract: inf is noiseless
            ChannelSpec(snr, self.p_a_uw)
        if self.kind == "ic":
            g = np.asarray(self.gains, dtype=float)
            if g.shape != (k, k) or not np.allclose(np.diag(g), 1.0):
                raise ValueError("IC gains must be KxK with unit diagonal")
            if not np.all(np.isfinite(g)):
                raise ValueError("IC gains must be finite")
            self.gains = g
        elif self.gains is not None:
            raise ValueError("gains are IC-only")

    @property
    def k(self) -> int:
        return len(self.m_list)

    @property
    def n_tx(self) -> int:
        return 1 if self.kind in ("p2p", "bc") else self.k

    @property
    def n_rx(self) -> int:
        return 1 if self.kind in ("p2p", "mac") else self.k

    def coeff(self) -> np.ndarray:
        """Channel coefficients, shape (n_tx, n_rx)."""
        if self.kind == "ic":
            return self.gains
        return np.ones((self.n_tx, self.n_rx))

    def rx_segments(self, r: int) -> list[tuple[int, int, int]]:
        """(offset, size, message stream) per softmax segment of receiver r."""
        if self.kind == "mac":
            offs = itertools.accumulate(self.m_list[:-1], initial=0)
            return [(o, m, j) for j, (o, m) in enumerate(zip(offs, self.m_list))]
        if self.kind == "p2p":
            return [(0, self.m_list[0], 0)]
        return [(0, self.m_list[r], r)]

    def tx_messages(self, tx: int) -> int:
        """Rows of transmitter tx's codebook (all message combos for BC)."""
        if self.kind == "bc":
            return int(np.prod(self.m_list))
        return self.m_list[tx]

    def to_json(self) -> dict:
        return {"kind": self.kind, "m_list": list(self.m_list),
                # a noiseless receiver's SNR is the string "inf": strict JSON has no Infinity
                "snrs": ["inf" if s == math.inf else float(s) for s in self.snrs],
                "p_a_uw": self.p_a_uw,
                "gains": None if self.gains is None else np.asarray(self.gains).tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "Topology":
        g = d.get("gains")
        return cls(kind=d["kind"], m_list=list(d["m_list"]), snrs=[float(s) for s in d["snrs"]],
                   p_a_uw=float(d["p_a_uw"]), gains=None if g is None else np.array(g))


@dataclass
class TrainConfig:
    lambda_: float = 0.0
    n: int = 1
    learning_rate: float = 1e-3
    batch_size: int = 128
    iterations: int = 2000
    seed: int = 0
    pd_floor: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ValueError("lambda must be finite and >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not (math.isfinite(self.pd_floor) and self.pd_floor > 0):
            raise ValueError("pd_floor must be finite and positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def to_json(self) -> dict:
        return {"lambda": self.lambda_, "n": self.n,
                "learning_rate": self.learning_rate, "batch_size": self.batch_size,
                "iterations": self.iterations, "seed": self.seed,
                "pd_floor": self.pd_floor}

    @classmethod
    def from_json(cls, d: dict) -> "TrainConfig":
        return cls(lambda_=float(d["lambda"]), n=int(d["n"]),
                   learning_rate=float(d["learning_rate"]),
                   batch_size=int(d["batch_size"]), iterations=int(d["iterations"]),
                   seed=int(d["seed"]), pd_floor=float(d["pd_floor"]))


@dataclass
class AeSystem:
    topology: Topology
    config: TrainConfig
    encoders: list[MlpParams]
    decoders: list[MlpParams]
    harvester: object | None = None
    final_loss: float | None = None


def _rng_children(seed: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def _encoder_input(topo: Topology, tx: int) -> np.ndarray:
    """Constant input matrix enumerating every message of transmitter tx."""
    if topo.kind != "bc":
        return np.eye(topo.m_list[tx])
    rows = int(np.prod(topo.m_list))
    x = np.zeros((rows, sum(topo.m_list)))
    offs = np.cumsum([0] + topo.m_list[:-1])
    combos = np.indices(topo.m_list).reshape(topo.k, -1).T   # row-major
    for j in range(topo.k):
        x[np.arange(rows), offs[j] + combos[:, j]] = 1.0
    return x


def _net_sizes(topo: Topology, n: int) -> dict[str, list[tuple[int, int]]]:
    """(input, output) width of each encoder and each decoder: an encoder
    maps its transmitter's one-hot message (all of them, for BC) to n complex
    symbols, a decoder maps n received symbols to its segments' logits."""
    enc_in = [sum(topo.m_list) if topo.kind == "bc" else topo.m_list[tx]
              for tx in range(topo.n_tx)]
    dec_out = [sum(m for _, m, _ in topo.rx_segments(r)) for r in range(topo.n_rx)]
    return {"encoders": [(k, 2 * n) for k in enc_in],
            "decoders": [(2 * n, k) for k in dec_out]}


def build_system(topology: Topology, config: TrainConfig, harvester=None,
                 hidden: tuple[int, ...] = (64, 64)) -> AeSystem:
    """Fresh system with seeded Glorot-uniform parameters."""
    if config.lambda_ > 0 and harvester is None:
        raise ValueError("a harvester model is required when lambda > 0")
    init_rng, _, _ = _rng_children(config.seed)
    nets = {key: [_init_mlp([k_in, *hidden, k_out], init_rng) for k_in, k_out in sizes]
            for key, sizes in _net_sizes(topology, config.n).items()}
    return AeSystem(topology=topology, config=config, encoders=nets["encoders"],
                    decoders=nets["decoders"], harvester=harvester)


# ---------------------------------------------------------------------------
# forward / loss / gradients
# ---------------------------------------------------------------------------

def _encode_all_real(sys: AeSystem, tx: int):
    """Normalized real-valued codebook of transmitter tx plus backprop state."""
    topo = sys.topology
    raw, acts = mlp_forward(sys.encoders[tx], _encoder_input(topo, tx))
    s = float((raw ** 2).sum())
    if s == 0.0:
        raise ValueError("encoder produced an all-zero codebook; cannot normalize")
    rows = topo.tx_messages(tx)
    g = math.sqrt(rows * sys.config.n * topo.p_a_uw / s)
    return g * raw, raw, acts, g, s


def encode_all(sys: AeSystem, tx: int = 0) -> np.ndarray:
    """Complex codeword matrix of transmitter tx with the average-power
    equality enforced by a single scale factor; differentiable end to end.
    """
    x, _, _, _, _ = _encode_all_real(sys, tx)
    return _to_complex(x)


def _batch_rows(topo: Topology, messages: np.ndarray, tx: int) -> np.ndarray:
    if topo.kind == "bc":
        return np.ravel_multi_index(tuple(messages.T), tuple(topo.m_list))
    return messages[:, tx]


def compose_received(topo: Topology, tx_symbols: list[np.ndarray],
                     noises: list[np.ndarray]) -> list[np.ndarray]:
    """Per-receiver samples: gain-weighted transmit batches summed in
    transmitter order, then the noise; bit-exact against the hand-written
    a_1j*x_1 + a_2j*x_2 + w form.
    """
    coeff = topo.coeff()
    out = []
    for r in range(topo.n_rx):
        y = coeff[0, r] * tx_symbols[0]
        for tx in range(1, topo.n_tx):
            y = y + coeff[tx, r] * tx_symbols[tx]
        out.append(y + noises[r])
    return out


@dataclass
class LossParts:
    """The loss terms, and per batch sample and receiver whether a clamp
    holds: P_d at or below ``pd_floor``, or (per symbol) a harvester output
    of exactly 0, as a clipped harvester gives. Empty when lambda is 0."""

    xent: float
    power: float
    clamped: np.ndarray


def composite_loss(sys: AeSystem, messages: np.ndarray, noises: list[np.ndarray],
                   grad: np.ndarray | None = None):
    """Cross-entropy plus lambda/max(P_d, floor), averaged over the batch.

    ``messages``: (B, K) ints; ``noises``: per receiver, complex (B, n).
    P_d is the per-message mean over the n received symbols of the harvester
    output, computed on the noisy samples; its gradient flows through the
    harvester's derivative, both from one ``value_and_derivative`` call.
    Returns (loss, grad, parts).

    ``grad``: the flat gradient, in :func:`~swiptkit.nn.pack` order of
    ``sys.encoders + sys.decoders``; the backward passes write every weight
    and bias gradient straight into it (a new vector when None, with the
    same bits).
    """
    topo, cfg = sys.topology, sys.config
    lam = cfg.lambda_
    if lam > 0 and sys.harvester is None:
        raise ValueError("a harvester model is required when lambda > 0")
    messages = np.atleast_2d(np.asarray(messages, dtype=int))
    bsz = messages.shape[0]
    n = cfg.n
    nets = sys.encoders + sys.decoders
    if grad is None:
        grad = np.empty(sum(a.size for a in flat((t.weights, t.biases) for t in nets)))
    outs = views(grad, nets)

    # transmit side, all codebooks; samples stay real, (re, im) interleaved,
    # where complex arithmetic would give the same parts bit for bit
    enc_state = [_encode_all_real(sys, tx) for tx in range(topo.n_tx)]
    rows = [_batch_rows(topo, messages, tx) for tx in range(topo.n_tx)]
    ys = compose_received(topo, [enc_state[tx][0][rows[tx]] for tx in range(topo.n_tx)],
                          [_to_real(w) for w in noises])

    coeff = topo.coeff()
    batch = np.arange(bsz)
    xent_total = 0.0
    power_total = 0.0
    clamps = []
    d_y = []
    for r in range(topo.n_rx):
        y = ys[r]
        logits, acts = mlp_forward(sys.decoders[r], y)
        # softmax and its cross-entropy gradient, in place on each segment;
        # a mean is a sum over its count, as np.mean computes it
        flat_logits = logits.reshape(-1)
        for off, m_j, stream in topo.rx_segments(r):
            p = logits[:, off:off + m_j]
            # max is exact in any order; reducing the transposed copy is faster
            p -= np.ascontiguousarray(p.T).max(axis=0)[:, None]
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
            hit = batch * logits.shape[1] + off + messages[:, stream]   # the truths
            xent_total -= float(np.log(flat_logits[hit] + 1e-300).sum()) / bsz
            flat_logits[hit] -= 1.0
            p /= bsz
        d_in = mlp_backward(sys.decoders[r], acts, logits, outs[topo.n_tx + r])
        d_y.append(d_in)

        if lam > 0:
            f_val, f_der = sys.harvester.value_and_derivative(np.abs(y.view(complex)) ** 2)
            p_d = f_val.sum(axis=1) / n
            pd_safe = np.maximum(p_d, cfg.pd_floor)
            power_total += float((lam / pd_safe).sum()) / bsz
            active = p_d > cfg.pd_floor
            clamps += [~active, f_val.ravel() == 0.0]
            d_pd = np.where(active, -lam / pd_safe ** 2, 0.0) / bsz   # (B,)
            d_pin = d_pd[:, None] * f_der / n
            d_in[:, 0::2] += d_pin * 2.0 * y[:, 0::2]
            d_in[:, 1::2] += d_pin * 2.0 * y[:, 1::2]

    # back through the channel into each transmitter's codebook
    for tx in range(topo.n_tx):
        x_norm, raw, acts, g, s = enc_state[tx]
        batch_dx = coeff[tx, 0] * d_y[0]
        for r in range(1, topo.n_rx):
            batch_dx += coeff[tx, r] * d_y[r]
        d_x = np.zeros_like(x_norm)
        np.add.at(d_x, rows[tx], batch_dx)
        # through the common normalization factor
        d_raw = g * d_x - (g / s) * float((d_x * raw).sum()) * raw
        mlp_backward(sys.encoders[tx], acts, d_raw, outs[tx], input_grad=False)

    loss = xent_total + power_total
    clamped = np.concatenate(clamps) if clamps else np.zeros(0, dtype=bool)
    return loss, grad, LossParts(xent_total, power_total, clamped)


def sample_messages(topo: Topology, rng, bsz: int) -> np.ndarray:
    cols = [rng.integers(0, m, bsz) for m in topo.m_list]
    return np.stack(cols, axis=1)


def sample_noises(topo: Topology, rng, bsz: int, n: int) -> list[np.ndarray]:
    """Per receiver, the channel's AWGN (B, n) at its SNR (drawn when noiseless too)."""
    return [awgn(np.zeros((bsz, n)), ChannelSpec(snr, topo.p_a_uw), rng) for snr in topo.snrs]


def train(sys: AeSystem):
    """Adam training over uniform iid minibatches with fresh noise.

    Returns (trained system, trace) where trace rows are
    (loss, xent_term, power_term). Deterministic per config seed. Each step
    has :func:`composite_loss` write the gradient into one flat buffer and
    runs Adam in place on two preallocated temporaries, in the operation
    order of the textbook update; trace and parameters are bit for bit
    those of that update on concatenated gradients.

    The step loop runs on one OpenBLAS thread (:func:`one_blas_thread`), and
    the caller's thread count is put back when it ends or raises. At the
    default batch of 128, OpenBLAS splits each (128, 64) x (64, 64) decoder
    matmul across two threads, and the split costs more than it saves: the
    second thread spins through every step, which doubles the CPU time
    without shortening the step. The bits do not change, since OpenBLAS
    splits a matmul by output blocks, never along the summed axis. The
    learned sweeps (:func:`evaluate_ser`) run on one BLAS thread too, with
    their decode blocks spread over the CPUs by the channel's pool.
    """
    sys = copy.deepcopy(sys)
    cfg = sys.config
    _, msg_rng, noise_rng = _rng_children(cfg.seed)
    theta = pack(sys.encoders + sys.decoders)
    grad = np.empty_like(theta)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    tmp_a, tmp_b = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace = np.zeros((cfg.iterations, 3))

    with one_blas_thread():
        for it in range(cfg.iterations):
            msgs = sample_messages(sys.topology, msg_rng, cfg.batch_size)
            noises = sample_noises(sys.topology, noise_rng, cfg.batch_size, cfg.n)
            loss, _, parts = composite_loss(sys, msgs, noises, grad)
            if not math.isfinite(loss):
                raise TrainDivergedError(it, trace[:it])
            trace[it] = (loss, parts.xent, parts.power)

            t = it + 1
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            np.multiply(grad, 1 - beta1, out=tmp_a)
            m_state *= beta1
            m_state += tmp_a
            np.multiply(grad, 1 - beta2, out=tmp_a)
            tmp_a *= grad
            v_state *= beta2
            v_state += tmp_a
            # theta -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m_state, 1 - beta1 ** t, out=tmp_a)
            tmp_a *= cfg.learning_rate
            np.divide(v_state, 1 - beta2 ** t, out=tmp_b)
            np.sqrt(tmp_b, out=tmp_b)
            tmp_b += eps
            tmp_a /= tmp_b
            theta -= tmp_a

    sys.final_loss = float(trace[-1, 0])
    return sys, trace


def extract_design(sys: AeSystem) -> list[Codebook]:
    """Package each transmitter's codebook as a Codebook, one base point per
    symbol, with the rho field set to the sentinel "learned".
    """
    out = []
    topo, n = sys.topology, sys.config.n
    for tx in range(topo.n_tx):
        rows = topo.tx_messages(tx)
        out.append(Codebook(base_points=encode_all(sys, tx).ravel(),
                            codeword_indices=np.arange(rows * n).reshape(rows, n),
                            m=rows, n=n, p_a_uw=topo.p_a_uw, rho="learned"))
    return out


def make_decoder(sys: AeSystem, receiver: int = 0, stream: int | None = 0):
    """Max-softmax decision function: complex samples (B, n) -> messages of
    ``stream``; with ``stream=None``, a (B, segments) array holding every
    stream the receiver decodes, in :meth:`Topology.rx_segments` order, from
    one decoder pass.
    """
    segs = [(off, m_j) for off, m_j, s in sys.topology.rx_segments(receiver)
            if stream is None or s == stream]
    if not segs:
        raise ValueError(f"receiver {receiver} does not decode stream {stream}")

    def decide(y: np.ndarray) -> np.ndarray:
        logits, _ = mlp_forward(sys.decoders[receiver], _to_real(np.atleast_2d(y)))
        if stream is not None:
            (off, m_j), = segs
            return np.argmax(logits[:, off:off + m_j], axis=1)
        return np.stack([np.argmax(logits[:, off:off + m_j], axis=1) for off, m_j in segs],
                        axis=1)

    return decide


def received_codebooks(sys: AeSystem) -> list[np.ndarray]:
    """Noiseless joint received codebook of every receiver: one row per
    message combination (row-major over ``m_list``), shape (prod M, n)."""
    topo = sys.topology
    combos = np.indices(topo.m_list).reshape(topo.k, -1).T
    xc = [encode_all(sys, tx)[_batch_rows(topo, combos, tx)] for tx in range(topo.n_tx)]
    return compose_received(topo, xc, [0.0] * topo.n_rx)


def evaluate_ser(sys: AeSystem, trials: int, seed: int = 0,
                 snr: float | None = None, p_a_uw: float | None = None) -> np.ndarray:
    """Monte Carlo message error rate per stream under the trained decoders.

    Receiver r is scored by the channel's sampler on its joint received
    codebook (:func:`received_codebooks`), seeded ``seed + r``, at noise
    variance P_a/SNR: its own, or ``p_a_uw``/``snr`` when given.
    """
    topo = sys.topology
    errors = np.zeros(topo.k, dtype=int)
    for r, cw in enumerate(received_codebooks(sys)):
        spec = ChannelSpec(snr=topo.snrs[r] if snr is None else snr,
                           p_a_uw=topo.p_a_uw if p_a_uw is None else p_a_uw, seed=seed + r)
        streams = [s for _, _, s in topo.rx_segments(r)]
        decide = make_decoder(sys, r, stream=None)

        def count(msg, y, streams=streams, decide=decide):
            truth, out = np.unravel_index(msg, topo.m_list), np.zeros(topo.k, dtype=int)
            for s, est in zip(streams, decide(y).T):
                out[s] = np.count_nonzero(est != truth[s])
            return out

        errors += monte_carlo([cw], spec, trials, [count])[0]
    return errors / trials


def gradient_check(sys: AeSystem, batch_size: int = 6, step: float = 1e-4,
                   seed: int = 123) -> dict:
    """Analytic gradients of composite_loss vs fourth-order central differences
    on a fixed small batch, on a copy of ``sys``; for <= a few hundred params.

    A parameter whose +-2h stencil changes which samples are clamped (see
    :class:`LossParts`) straddles a kink, where a finite difference is no
    derivative: it is skipped and counted in ``n_skipped``.
    """
    sys = copy.deepcopy(sys)
    topo, cfg = sys.topology, sys.config
    rng = np.random.default_rng(seed)
    msgs = sample_messages(topo, rng, batch_size)
    noises = sample_noises(topo, rng, batch_size, cfg.n)

    theta = pack(sys.encoders + sys.decoders)
    analytic = np.empty_like(theta)
    *_, parts = composite_loss(sys, msgs, noises, analytic)

    max_rel, n_skipped = 0.0, 0
    for i in range(theta.size):
        orig = theta[i]
        lo, kink = [], False
        for k in (2, 1, -1, -2):
            theta[i] = orig + k * step
            loss, _, at = composite_loss(sys, msgs, noises)
            lo.append(loss)
            kink |= not np.array_equal(at.clamped, parts.clamped)
        theta[i] = orig
        if kink:
            n_skipped += 1
            continue
        # fourth order: the two-point error nears 1e-4 through steep fitted harvesters
        fd = (8.0 * (lo[1] - lo[2]) - (lo[0] - lo[3])) / (12.0 * step)
        rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-6)
        max_rel = max(max_rel, rel)
    return {"max_rel_err": max_rel, "n_params": theta.size, "n_skipped": n_skipped}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _net_to_json(net: MlpParams) -> dict:
    return {"weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases]}


def _net_from_json(d: dict) -> MlpParams:
    return MlpParams(weights=[np.array(w) for w in d["weights"]],
                     biases=[np.array(b) for b in d["biases"]])


def system_to_json(sys: AeSystem) -> dict:
    return {"topology": sys.topology.to_json(),
            "config": sys.config.to_json(),
            "encoders": [_net_to_json(e) for e in sys.encoders],
            "decoders": [_net_to_json(d) for d in sys.decoders],
            "final_loss": sys.final_loss}


def system_from_json(d: dict, harvester=None) -> AeSystem:
    """ValueError names a missing or malformed field, an encoder or decoder
    count other than the topology's transmitter or receiver count, and a net
    whose layer shapes do not chain from its input to its output width."""
    nets = lambda v: [_net_from_json(x) for x in v]
    sys = AeSystem(topology=json_field(d, "topology", Topology.from_json),
                   config=json_field(d, "config", TrainConfig.from_json),
                   encoders=json_field(d, "encoders", nets),
                   decoders=json_field(d, "decoders", nets),
                   harvester=harvester, final_loss=d.get("final_loss"))
    topo = sys.topology
    for key, sizes in _net_sizes(topo, sys.config.n).items():
        got = getattr(sys, key)
        if len(got) != len(sizes):
            raise ValueError(f"bad field {key!r}: a {topo.kind} topology has {len(sizes)}, "
                             f"got {len(got)}")
        for i, (net, (width, k_out)) in enumerate(zip(got, sizes)):
            if not net.weights or len(net.weights) != len(net.biases):
                raise ValueError(f"bad field {key!r}: net {i} needs as many biases as "
                                 "weights, and at least one layer")
            for j, (w, b) in enumerate(zip(net.weights, net.biases)):
                if w.ndim != 2 or w.shape[1] != width or b.shape != (w.shape[0],):
                    raise ValueError(f"bad field {key!r}: net {i} layer {j} has weights "
                                     f"{w.shape} and biases {b.shape}, expected "
                                     f"(out, {width}) and (out,)")
                width = w.shape[0]
            if width != k_out:
                raise ValueError(f"bad field {key!r}: net {i} has {width} outputs, the "
                                 f"topology and n = {sys.config.n} need {k_out}")
    return sys


def load_system(path, harvester=None) -> AeSystem:
    return system_from_json(json.loads(Path(path).read_text()), harvester)


def write_trace_csv(path, trace: np.ndarray, header_comment: str | None = None) -> None:
    """Loss trace CSV: iteration,loss,xent_term,power_term."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iteration", "loss", "xent_term", "power_term"])
        for i, row in enumerate(trace):
            w.writerow([i, repr(float(row[0])), repr(float(row[1])), repr(float(row[2]))])
