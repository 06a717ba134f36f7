"""End-to-end learned modulation: tiny MLP encoder/decoder pairs trained by
Adam through the shared tanh-MLP core on the composite
cross-entropy + power-demand loss, for point-to-point, broadcast,
multiple-access and interference topologies.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelSpec, monte_carlo
from .codebook import Codebook, codebook_min_dist
from .constellation import Constellation
from .nn import MlpParams, flat, mlp_backward, mlp_forward, pack

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
    out = np.empty(xc.shape[:-1] + (2 * xc.shape[-1],), dtype=float)
    out[..., 0::2] = xc.real
    out[..., 1::2] = xc.imag
    return out


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
        if len(self.snrs) != self.n_rx:
            raise ValueError(f"need one SNR per receiver ({self.n_rx})")
        if any(s <= 0 for s in self.snrs):
            raise ValueError("SNRs must be positive")
        if not self.p_a_uw > 0:
            raise ValueError("P_a must be positive")
        if self.kind == "ic":
            g = np.asarray(self.gains, dtype=float)
            if g.shape != (k, k) or not np.allclose(np.diag(g), 1.0):
                raise ValueError("IC gains must be KxK with unit diagonal")
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
            offs = np.cumsum([0] + self.m_list[:-1])
            return [(int(o), m, j) for j, (o, m) in enumerate(zip(offs, self.m_list))]
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
                "snrs": [float(s) for s in self.snrs], "p_a_uw": self.p_a_uw,
                "gains": None if self.gains is None else np.asarray(self.gains).tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "Topology":
        g = d.get("gains")
        return cls(kind=d["kind"], m_list=list(d["m_list"]), snrs=list(d["snrs"]),
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
        if self.pd_floor <= 0:
            raise ValueError("pd_floor must be positive")
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


def build_system(topology: Topology, config: TrainConfig, harvester=None,
                 hidden: tuple[int, ...] = (64, 64)) -> AeSystem:
    """Fresh system with seeded Glorot-uniform parameters."""
    if config.lambda_ > 0 and harvester is None:
        raise ValueError("a harvester model is required when lambda > 0")
    init_rng, _, _ = _rng_children(config.seed)
    encoders, decoders = [], []
    for tx in range(topology.n_tx):
        in_dim = sum(topology.m_list) if topology.kind == "bc" else topology.m_list[tx]
        encoders.append(_init_mlp([in_dim, *hidden, 2 * config.n], init_rng))
    for r in range(topology.n_rx):
        out_dim = sum(m for _, m, _ in topology.rx_segments(r))
        decoders.append(_init_mlp([2 * config.n, *hidden, out_dim], init_rng))
    return AeSystem(topology=topology, config=config, encoders=encoders,
                    decoders=decoders, harvester=harvester)


# ---------------------------------------------------------------------------
# forward / loss / gradients
# ---------------------------------------------------------------------------

def _encode_all_real(sys: AeSystem, tx: int):
    """Normalized real-valued codebook of transmitter tx plus backprop state."""
    topo = sys.topology
    x_in = _encoder_input(topo, tx)
    raw, acts = mlp_forward(sys.encoders[tx], x_in)
    s = float(np.sum(raw ** 2))
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


def composite_loss(sys: AeSystem, messages: np.ndarray, noises: list[np.ndarray]):
    """Cross-entropy plus lambda/max(P_d, floor), averaged over the batch.

    ``messages``: (B, K) ints; ``noises``: per receiver, complex (B, n).
    P_d is the per-message mean over the n received symbols of the harvester
    output, computed on the noisy samples; its gradient flows through the
    harvester's derivative. Returns (loss, encoder grads, decoder grads,
    parts).
    """
    topo, cfg = sys.topology, sys.config
    lam = cfg.lambda_
    if lam > 0 and sys.harvester is None:
        raise ValueError("a harvester model is required when lambda > 0")
    messages = np.atleast_2d(np.asarray(messages, dtype=int))
    bsz = messages.shape[0]
    n = cfg.n

    # transmit side, all codebooks
    enc_state = [_encode_all_real(sys, tx) for tx in range(topo.n_tx)]
    rows = [_batch_rows(topo, messages, tx) for tx in range(topo.n_tx)]
    xc = [_to_complex(enc_state[tx][0][rows[tx]]) for tx in range(topo.n_tx)]

    coeff = topo.coeff()
    ys = compose_received(topo, xc, noises)

    xent_total = 0.0
    power_total = 0.0
    clamps = []
    d_y = [np.zeros((bsz, 2 * n)) for _ in range(topo.n_rx)]
    dec_grads = []
    for r in range(topo.n_rx):
        y_real = _to_real(ys[r])
        logits, acts = mlp_forward(sys.decoders[r], y_real)
        d_logits = np.zeros_like(logits)
        for off, m_j, stream in topo.rx_segments(r):
            seg = logits[:, off:off + m_j]
            seg = seg - seg.max(axis=1, keepdims=True)
            p = np.exp(seg)
            p /= p.sum(axis=1, keepdims=True)
            truth = messages[:, stream]
            xent_total += float(-np.mean(np.log(p[np.arange(bsz), truth] + 1e-300)))
            p[np.arange(bsz), truth] -= 1.0
            d_logits[:, off:off + m_j] = p / bsz
        g_w, g_b, d_in = mlp_backward(sys.decoders[r], acts, d_logits)
        dec_grads.append((g_w, g_b))
        d_y[r] += d_in

        if lam > 0:
            p_in = np.abs(ys[r]) ** 2
            f_val = np.asarray(sys.harvester.evaluate(p_in))
            p_d = f_val.mean(axis=1)
            pd_safe = np.maximum(p_d, cfg.pd_floor)
            power_total += float(np.mean(lam / pd_safe))
            active = p_d > cfg.pd_floor
            clamps += [~active, f_val.ravel() == 0.0]
            d_pd = np.where(active, -lam / pd_safe ** 2, 0.0) / bsz   # (B,)
            d_pin = d_pd[:, None] * np.asarray(sys.harvester.derivative(p_in)) / n
            d_y[r][:, 0::2] += d_pin * 2.0 * ys[r].real
            d_y[r][:, 1::2] += d_pin * 2.0 * ys[r].imag

    # back through the channel into each transmitter's codebook
    enc_grads = []
    for tx in range(topo.n_tx):
        x_norm, raw, acts, g, s = enc_state[tx]
        d_x = np.zeros_like(x_norm)
        batch_dx = sum(coeff[tx, r] * d_y[r] for r in range(topo.n_rx))
        np.add.at(d_x, rows[tx], batch_dx)
        # through the common normalization factor
        d_raw = g * d_x - (g / s) * float(np.sum(d_x * raw)) * raw
        g_w, g_b, _ = mlp_backward(sys.encoders[tx], acts, d_raw)
        enc_grads.append((g_w, g_b))

    loss = xent_total + power_total
    clamped = np.concatenate(clamps) if clamps else np.zeros(0, dtype=bool)
    return loss, enc_grads, dec_grads, LossParts(xent_total, power_total, clamped)


def sample_messages(topo: Topology, rng, bsz: int) -> np.ndarray:
    cols = [rng.integers(0, m, bsz) for m in topo.m_list]
    return np.stack(cols, axis=1)


def sample_noises(topo: Topology, rng, bsz: int, n: int) -> list[np.ndarray]:
    out = []
    for r in range(topo.n_rx):
        sd = math.sqrt(topo.p_a_uw / topo.snrs[r] / 2.0)
        out.append(rng.normal(0.0, sd, (bsz, n)) + 1j * rng.normal(0.0, sd, (bsz, n)))
    return out


def train(sys: AeSystem):
    """Adam training over uniform iid minibatches with fresh noise.

    Returns (trained system, trace) where trace rows are
    (loss, xent_term, power_term). Deterministic per config seed.
    """
    sys = copy.deepcopy(sys)
    cfg = sys.config
    _, msg_rng, noise_rng = _rng_children(cfg.seed)
    theta = pack(sys.encoders + sys.decoders)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace = np.zeros((cfg.iterations, 3))

    for it in range(cfg.iterations):
        msgs = sample_messages(sys.topology, msg_rng, cfg.batch_size)
        noises = sample_noises(sys.topology, noise_rng, cfg.batch_size, cfg.n)
        loss, enc_grads, dec_grads, parts = composite_loss(sys, msgs, noises)
        if not np.isfinite(loss):
            raise TrainDivergedError(it, trace[:it])
        trace[it] = (loss, parts.xent, parts.power)

        t = it + 1
        g = np.concatenate(flat(enc_grads + dec_grads), axis=None)
        m_state *= beta1
        m_state += (1 - beta1) * g
        v_state *= beta2
        v_state += (1 - beta2) * g * g
        m_hat = m_state / (1 - beta1 ** t)
        v_hat = v_state / (1 - beta2 ** t)
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    sys.final_loss = float(trace[-1, 0])
    return sys, trace


def extract_design(sys: AeSystem) -> list:
    """Package each transmitter's codebook as a Constellation (n=1) or
    Codebook (n>1) with the rho field set to the sentinel "learned".
    """
    out = []
    topo, n = sys.topology, sys.config.n
    for tx in range(topo.n_tx):
        xc = encode_all(sys, tx)
        rows = topo.tx_messages(tx)
        if n == 1:
            out.append(Constellation(points=xc[:, 0], m=rows, p_a_uw=topo.p_a_uw,
                                     rho="learned"))
        else:
            cb = Codebook(base_points=xc.ravel(),
                          codeword_indices=np.arange(rows * n).reshape(rows, n),
                          m=rows, n=n, p_a_uw=topo.p_a_uw, rho="learned")
            if rows >= 2:
                cb.achieved_dmin_sq = codebook_min_dist(cb)
            out.append(cb)
    return out


def make_decoder(sys: AeSystem, receiver: int = 0, stream: int = 0):
    """Max-softmax decision function: complex samples (B, n) -> messages."""

    def decide(y: np.ndarray) -> np.ndarray:
        logits, _ = mlp_forward(sys.decoders[receiver], _to_real(np.atleast_2d(y)))
        for off, m_j, s in sys.topology.rx_segments(receiver):
            if s == stream:
                return np.argmax(logits[:, off:off + m_j], axis=1)
        raise ValueError(f"receiver {receiver} does not decode stream {stream}")

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
        streams = [(s, make_decoder(sys, r, s)) for _, _, s in topo.rx_segments(r)]

        def count(msg, y, streams=streams):
            truth, out = np.unravel_index(msg, topo.m_list), np.zeros(topo.k, dtype=int)
            for s, decide in streams:
                out[s] = np.count_nonzero(decide(y) != truth[s])
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

    _, enc_grads, dec_grads, parts = composite_loss(sys, msgs, noises)
    analytic = np.concatenate(flat(enc_grads + dec_grads), axis=None)

    theta = pack(sys.encoders + sys.decoders)
    max_rel, n_skipped = 0.0, 0
    for i in range(theta.size):
        orig = theta[i]
        lo, kink = [], False
        for k in (2, 1, -1, -2):
            theta[i] = orig + k * step
            loss, _, _, at = composite_loss(sys, msgs, noises)
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
    return AeSystem(topology=Topology.from_json(d["topology"]),
                    config=TrainConfig.from_json(d["config"]),
                    encoders=[_net_from_json(e) for e in d["encoders"]],
                    decoders=[_net_from_json(x) for x in d["decoders"]],
                    harvester=harvester, final_loss=d.get("final_loss"))


def save_system(sys: AeSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_json(sys)) + "\n")


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
