"""Output checks made apart from the program.

Everything here is the benchmark's own computation over the JSON and CSV
files the CLI wrote: a forward pass of the tanh nets from their weights, a
NumPy Monte Carlo of the SER with its own seeds and its own minimum-distance
(ML) decoder, the delivered power by quadrature, pairwise d_min^2, and the
true sigmoid harvester from its own solve of the 317 uW knee. Nothing is
compared with a saved copy of earlier output, and `swiptkit` is never
imported.

Statistical comparisons use a z-limit of 5 (two-sided false alarm 6e-7 per
comparison; a run makes at most about 50), so a correct program fails a
check about once in 30,000 runs. The CLI's own `ci` column is a 3-sigma
interval.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import i0e

import workloads as wl

Z_LIMIT = 5.0
REL_POWER = 1e-9            # average power equals P_a
REL_DMIN = 1e-9             # reported d_min^2 equals the pairwise minimum
# fitted harvester against the true sigmoid (saturation 40 uW); over 80 fit
# seeds of the harvester_fit workload the RMSE ranged 0.86 to 3.27 uW
FIT_RMSE_BOUND_UW = 5.0
TRADEOFF_FACTOR = 10.0      # every lambda > 0 system delivers this many times lambda = 0
OWN_TRIALS = 200_000
_CHUNK = 50_000


# ---------------------------------------------------------------------------
# own models
# ---------------------------------------------------------------------------

def tanh_mlp(weights, biases, x: np.ndarray) -> np.ndarray:
    """tanh hidden layers, identity output; weights are (out, in)."""
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ np.asarray(w).T + np.asarray(b)
        if i < last:
            h = np.tanh(h)
    return h


def to_real(y: np.ndarray) -> np.ndarray:
    """Complex (B, n) -> interleaved re/im (B, 2n), the nets' input layout."""
    out = np.empty(y.shape[:-1] + (2 * y.shape[-1],))
    out[..., 0::2] = y.real
    out[..., 1::2] = y.imag
    return out


class FittedHarvester:
    """Forward pass of a fitted harvester JSON: the 1-3-2-1 tanh net on input
    power over ``input_scale``, minus its value at zero input, clipped at 0
    and times ``power_scale``.
    """

    def __init__(self, d: dict):
        self.layers = [(np.asarray(d[w], float), np.asarray(d[b], float).ravel())
                       for w, b in (("w1", "b1"), ("w2", "b2"), ("w3", "b3"))]
        self.input_scale = float(d["input_scale"])
        self.power_scale = float(d["power_scale"])

    def _raw(self, z: np.ndarray) -> np.ndarray:
        h = z.reshape(-1, 1)
        for w, b in self.layers:
            h = np.tanh(h @ w.T + b)
        return h[:, 0]

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        raw = self._raw(p.ravel() / self.input_scale) - self._raw(np.zeros(1))[0]
        return (self.power_scale * np.maximum(raw, 0.0)).reshape(p.shape)


def true_sigmoid():
    """The synthetic rectifier curve: saturation 40 uW, inflection 300 uW,
    steepness solved (by bisection) so that argmax f(x)/x sits at 317 uW.
    """
    ls, b, knee = 40.0, 300.0, 317.0

    def curve(a):
        om = 1.0 / (1.0 + math.exp(a * b))

        def f(p):
            return (ls / (1.0 + np.exp(-a * (np.asarray(p, float) - b))) - ls * om) / (1.0 - om)

        def df(p):
            e = math.exp(-a * (p - b))
            return ls * a * e / (1.0 + e) ** 2 / (1.0 - om)
        return f, df

    def knee_gap(a):
        f, df = curve(a)
        return df(knee) * knee - float(f(knee))

    lo, hi = 1e-3, 2.0
    if knee_gap(lo) * knee_gap(hi) > 0:
        raise RuntimeError("knee bracket holds no root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if knee_gap(lo) * knee_gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return curve(0.5 * (lo + hi))[0]


def fit_grid() -> np.ndarray:
    """The synthetic dataset's inputs: 0 and a log grid over [0.1, 2000] uW."""
    return np.concatenate([[0.0], np.logspace(-1.0, math.log10(2000.0), 1999)])


def encoder_codebook(net: dict, rows: int, n: int, p_a: float) -> np.ndarray:
    """Codebook of a P2P/MAC encoder net: one-hot messages through the net,
    one common scale to average power P_a, re/im pairs to complex."""
    raw = tanh_mlp(net["weights"], net["biases"], np.eye(rows))
    raw = raw * math.sqrt(rows * n * p_a / float(np.sum(raw ** 2)))
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def mc_ser(codebooks, segments, decoder, snr, p_a, trials, rng):
    """Own Monte Carlo of the error rates of a link whose transmitters'
    codewords add at one receiver: per-stream decoder errors, joint errors
    (any stream wrong) and ML errors (single transmitter only).
    """
    n = codebooks[0].shape[1]
    sd = math.sqrt(p_a / snr / 2.0)
    dec_err = np.zeros(len(codebooks), dtype=np.int64)
    joint_err = ml_err = 0
    done = 0
    while done < trials:
        b = min(_CHUNK, trials - done)
        msgs = np.stack([rng.integers(0, cb.shape[0], b) for cb in codebooks], axis=1)
        y = sum(cb[msgs[:, j]] for j, cb in enumerate(codebooks))
        y = y + sd * (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n)))
        if decoder is not None:
            logits = tanh_mlp(decoder["weights"], decoder["biases"], to_real(y))
            wrong = np.zeros(b, dtype=bool)
            for j, (off, m) in enumerate(segments):
                miss = np.argmax(logits[:, off:off + m], axis=1) != msgs[:, j]
                dec_err[j] += int(miss.sum())
                wrong |= miss
            joint_err += int(wrong.sum())
        if len(codebooks) == 1:
            cw = codebooks[0]
            d = np.sum(np.abs(cw) ** 2, axis=1) - 2.0 * (y @ cw.conj().T).real
            ml_err += int(np.sum(np.argmin(d, axis=1) != msgs[:, 0]))
        done += b
    return {"dec_err": dec_err, "joint_err": joint_err, "ml_err": ml_err}


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def received_codewords(codebooks) -> np.ndarray:
    """Noiseless received codewords: every message combination, summed."""
    total = codebooks[0]
    for cb in codebooks[1:]:
        total = (total[:, None, :] + cb[None, :, :]).reshape(-1, cb.shape[1])
    return total


def exact_pd(cw: np.ndarray, snr: float, p_a: float, harvester):
    """Mean and per-trial standard deviation of the delivered power
    mean_j f(|c_j + w_j|^2) over uniform messages, with w ~ CN(0, P_a/snr).

    Quadrature over the Rician density of |c + w| on a 4001-point grid of
    +-12 noise deviations around each distinct |c|. A Monte Carlo reference
    would be too rough here: at low rho almost all the power comes from rare
    trials that a 200k-trial sample can miss.
    """
    s2 = p_a / snr
    amp, inv = np.unique(np.round(np.abs(cw), 12), return_inverse=True)
    e1, e2 = np.empty(amp.size), np.empty(amp.size)
    for k, a in enumerate(amp):
        r = np.linspace(max(0.0, a - 12.0 * math.sqrt(s2)), a + 12.0 * math.sqrt(s2), 4001)
        pdf = 2.0 * r / s2 * np.exp(-(r - a) ** 2 / s2) * i0e(2.0 * a * r / s2)
        f = harvester(r * r)
        e1[k] = _trapezoid(f * pdf, r)
        e2[k] = _trapezoid(f * f * pdf, r)
    e1, e2 = e1[inv].reshape(cw.shape), e2[inv].reshape(cw.shape)
    n = cw.shape[1]
    per_msg = e1.mean(axis=1)
    var = per_msg.var() + float(np.mean(np.sum(e2 - e1 ** 2, axis=1))) / n ** 2
    return float(per_msg.mean()), math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# checks: each returns (ok, detail)
# ---------------------------------------------------------------------------

def power_ok(cw: np.ndarray, p_a: float):
    avg = float(np.mean(np.abs(cw) ** 2))
    return abs(avg - p_a) <= REL_POWER * p_a, f"avg power {avg:.12g} uW"


def _pair_d2(cw: np.ndarray) -> np.ndarray:
    d = np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2)
    return d[np.triu_indices(len(cw), k=1)]


def distinct_ok(cw: np.ndarray, p_a: float):
    d2 = float(_pair_d2(cw).min())
    return d2 > 1e-12 * p_a, f"min pair d^2 {d2:.6g}"


def dmin_ok(cw: np.ndarray, dmin_sq: float):
    own = float(_pair_d2(cw).min())
    return abs(own - dmin_sq) <= REL_DMIN * own, f"dmin_sq {dmin_sq:.10g} own {own:.10g}"


def rate_agrees(k1: int, n1: int, k2: int, n2: int):
    """Two error counts agree: pooled two-proportion z-test within Z_LIMIT."""
    p = (k1 + k2) / (n1 + n2)
    sigma = math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
    diff = k1 / n1 - k2 / n2
    z = abs(diff) / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
    return z <= Z_LIMIT, f"{k1 / n1:.6g} vs own {k2 / n2:.6g} (z={z:.2f})"


def not_below(k_learned: int, n1: int, k_ml: int, n2: int):
    """A learned decoder's error rate is not below ML's beyond Z_LIMIT."""
    p = (k_learned + k_ml) / (n1 + n2)
    sigma = math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
    diff = k_learned / n1 - k_ml / n2
    ok = diff >= -Z_LIMIT * sigma if sigma > 0 else diff >= 0
    return ok, f"learned {k_learned / n1:.6g} vs own ML {k_ml / n2:.6g}"


def mean_agrees(m_cli: float, trials: int, m_exact: float, sd: float):
    """A Monte Carlo mean over ``trials`` agrees with the exact expectation,
    given the exact per-trial standard deviation ``sd``."""
    sigma = sd / math.sqrt(trials)
    diff = abs(m_cli - m_exact)
    z = diff / sigma if sigma > 0 else (0.0 if diff <= 1e-12 * abs(m_exact) else math.inf)
    return z <= Z_LIMIT, f"{m_cli:.6g} vs exact {m_exact:.6g} uW (z={z:.2f})"


def fit_ok(harvester, truth):
    grid = fit_grid()
    rmse = float(np.sqrt(np.mean((harvester(grid) - truth(grid)) ** 2)))
    return rmse <= FIT_RMSE_BOUND_UW, f"rmse vs true curve {rmse:.4g} uW"


def zero_at_zero(harvester):
    f0 = float(harvester(np.zeros(1))[0])
    nonneg = bool(np.all(harvester(fit_grid()) >= 0.0))
    return f0 == 0.0 and nonneg, f"f(0)={f0:.3g}, nonnegative={nonneg}"


def tradeoff_ok(pd_zero: float, pd_positive: list[float]):
    worst = min(pd_positive)
    return worst >= TRADEOFF_FACTOR * pd_zero, f"P_d lambda=0 {pd_zero:.4g} uW, lambda>0 min {worst:.4g} uW"


def onoff_ok(points: np.ndarray, p_a: float):
    """rho = 1: the on points share one modulus, every other point is 0."""
    mod = np.abs(points)
    on = mod > 1e-9 * math.sqrt(p_a)
    m_on = int(on.sum())
    r2 = len(points) * p_a / m_on if m_on else math.inf
    ok = m_on > 0 and np.allclose(mod[on] ** 2, r2, rtol=1e-9) and np.all(mod[~on] == 0.0)
    return bool(ok), f"M_on={m_on}"


CHECKS = {f.__name__: f for f in (power_ok, distinct_ok, dmin_ok, rate_agrees,
                                  not_below, mean_agrees, fit_ok, zero_at_zero,
                                  tradeoff_ok, onoff_ok)}


def _beyond(rate: float, n1: int, n2: int) -> float:
    """An error rate that the two-proportion test must tell from ``rate``.

    With s = 1/n1 + 1/n2 and the pooled rate p at most rate + d, the test
    rejects once d^2 > Z^2 s (rate + d). Twice the positive root of that
    quadratic is beyond it for every ``rate``, zero included.
    """
    zs = Z_LIMIT ** 2 * (1.0 / n1 + 1.0 / n2)
    return rate + (zs + math.sqrt(zs * zs + 4.0 * zs * rate))


# deliberately wrong versions of a check's real inputs
_WRONG = {
    "power_ok": lambda cw, p_a: (cw * 1.01, p_a),
    "distinct_ok": lambda cw, p_a: (np.concatenate([cw[:1], cw[:1], cw[2:]]), p_a),
    "dmin_ok": lambda cw, dmin: (cw * 1.01, dmin),
    "rate_agrees": lambda k1, n1, k2, n2: (
        math.ceil(_beyond(k2 / n2, n1, n2) * n1), n1, k2, n2),
    "not_below": lambda k1, n1, k2, n2: (
        k1, n1, math.ceil(_beyond(k1 / n1, n1, n2) * n2), n2),
    "mean_agrees": lambda m1, n, m2, sd: (m2 + 3 * Z_LIMIT * max(sd, 1e-9) / math.sqrt(n),
                                         n, m2, sd),
    # RMSE(h + c - truth) >= c - RMSE(h - truth): rejected whenever h passes
    "fit_ok": lambda h, truth: (lambda p: h(p) + 3.0 * FIT_RMSE_BOUND_UW, truth),
    "zero_at_zero": lambda h: (lambda p: h(p) + 0.01 * h.power_scale,),
    "tradeoff_ok": lambda pd0, pds: (max(pds), [pd0]),
    "onoff_ok": lambda pts, p_a: (np.where(np.abs(pts) == 0, 0.01 * np.abs(pts).max(), pts), p_a),
}


class Checker:
    """Runs checks, keeps the first real inputs of each kind, and afterwards
    shows that each kind rejects a deliberately wrong version of them."""

    def __init__(self):
        self.witness: dict[str, tuple] = {}
        self.lines: list[str] = []

    def __call__(self, label: str, kind: str, *args) -> bool:
        self.witness.setdefault(kind, args)
        ok, detail = CHECKS[kind](*args)
        self.lines.append(f"  {'ok  ' if ok else 'FAIL'} {label}: {detail}")
        return bool(ok)

    def self_test(self) -> list[str]:
        """Kinds whose check accepted a deliberately wrong output."""
        missed = []
        for kind, args in self.witness.items():
            ok, _ = CHECKS[kind](*_WRONG[kind](*args))
            if ok:
                missed.append(kind)
        return missed


# ---------------------------------------------------------------------------
# per-workload checks: each yields (op name, thunk returning pass/fail)
# ---------------------------------------------------------------------------

def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _points(d: dict) -> np.ndarray:
    """A constellation JSON's points as a (M, 1) codeword matrix."""
    return np.array([complex(re, im) for re, im in d["points"]]).reshape(-1, 1)


def _harvester_ok(chk: Checker, label: str, path: Path, truth) -> bool:
    h = FittedHarvester(_json(path))
    return all([chk(f"{label} fit", "fit_ok", h, truth),
                chk(f"{label} zero at zero", "zero_at_zero", h)])


def _sweep_row(chk, label, row, cws, segments, decoder, snr, harvester, rng):
    """Checks one sweep row's P_d against the exact value and returns the own
    Monte Carlo error counts and the row's error count for the caller."""
    trials = int(row["trials"])
    mean, sd = exact_pd(received_codewords(cws), snr, wl.P_A_UW, harvester)
    ok = chk(f"{label} P_d", "mean_agrees", float(row["pd_uw"]), trials, mean, sd)
    own = mc_ser(cws, segments, decoder, snr, wl.P_A_UW, OWN_TRIALS, rng)
    return ok, own, int(round(float(row["ser"]) * trials)), trials


def _learned(chk: Checker, out: Path, ops, rng, truth):
    fixture = FittedHarvester(_json(out / "eh_fixture.json"))
    inputs_ok = _harvester_ok(chk, "fixture harvester", out / "eh_fixture.json", truth)

    def train(op):
        system = _json(out / op.outputs[0])
        topo, n = system["topology"], system["config"]["n"]
        oks = [inputs_ok, math.isfinite(system["final_loss"])]
        for tx, (net, dpath) in enumerate(zip(system["encoders"], op.outputs[1:])):
            pts = _points(_json(out / dpath))
            own = encoder_codebook(net, topo["m_list"][tx], n, wl.P_A_UW)
            oks.append(bool(np.max(np.abs(own - pts)) <= 1e-9 * math.sqrt(wl.P_A_UW)))
            oks.append(chk(f"{op.name} tx{tx} power", "power_ok", pts, wl.P_A_UW))
            oks.append(chk(f"{op.name} tx{tx} distinct", "distinct_ok", pts, wl.P_A_UW))
        return all(oks)

    def sweep_p2p(op):
        rows = _csv_rows(out / op.outputs[0])
        oks = [len(rows) == len(op.info["systems"])]
        pds = {}
        for row, path in zip(rows, op.info["systems"]):
            system = _json(out / path)
            lam = system["config"]["lambda"]
            cw = encoder_codebook(system["encoders"][0], system["topology"]["m_list"][0],
                                  system["config"]["n"], wl.P_A_UW)
            label = f"sweep lambda={lam:g}"
            ok, own, k_cli, trials = _sweep_row(chk, label, row, [cw], [(0, len(cw))],
                                                system["decoders"][0], wl.LEARNED_SNR,
                                                fixture, rng)
            oks += [ok, float(row["control"]) == lam,
                    chk(f"{label} SER", "rate_agrees", k_cli, trials,
                        int(own["dec_err"][0]), OWN_TRIALS),
                    chk(f"{label} SER vs ML", "not_below", k_cli, trials,
                        own["ml_err"], OWN_TRIALS)]
            pds[lam] = float(row["pd_uw"])
        oks.append(chk("lambda tradeoff", "tradeoff_ok", pds[0.0],
                       [v for k, v in pds.items() if k > 0]))
        return all(oks)

    def sweep_mac(op):
        # the MAC's two transmitters add at its one receiver
        system = _json(out / "mac.json")
        m_list, n = system["topology"]["m_list"], system["config"]["n"]
        cws = [encoder_codebook(net, m, n, wl.P_A_UW)
               for net, m in zip(system["encoders"], m_list)]
        segments = list(zip(np.cumsum([0] + m_list[:-1]).tolist(), m_list))
        rows = _csv_rows(out / op.outputs[0])
        ok, own, k_cli, trials = _sweep_row(chk, "MAC sweep", rows[0], cws, segments,
                                            system["decoders"][0], wl.LEARNED_SNR,
                                            fixture, rng)
        # a mended sweep may report stream 0, the mean over streams or the joint rate
        own_k = [int(own["dec_err"][0]), int(round(own["dec_err"].mean())), own["joint_err"]]
        agree = any(CHECKS["rate_agrees"](k_cli, trials, k, OWN_TRIALS)[0] for k in own_k)
        chk.lines.append(f"  {'ok  ' if agree else 'FAIL'} MAC sweep SER: {k_cli / trials:.6g}"
                         f" vs own per stream {(own['dec_err'] / OWN_TRIALS).tolist()},"
                         f" joint {own['joint_err'] / OWN_TRIALS:.6g}")
        return len(rows) == 1 and ok and agree

    by_name = {"sweep-learned-p2p": sweep_p2p, "sweep-learned-mac": sweep_mac}
    for op in ops:
        yield op.name, (lambda op=op: by_name.get(op.name, train)(op))


def _coded(chk: Checker, out: Path, ops, rng, truth):
    fixture = FittedHarvester(_json(out / "eh_fixture.json"))
    inputs_ok = _harvester_ok(chk, "fixture harvester", out / "eh_fixture.json", truth)
    design_op, sim_op = ops
    state = {}

    def design():
        d = _json(out / design_op.outputs[0])
        base = np.array([complex(re, im) for re, im in d["base_points"]])
        idx = np.array([c["indices"] for c in d["codewords"]])
        cw = np.array([[complex(re, im) for re, im in c["symbols"]] for c in d["codewords"]])
        state["cw"] = cw
        return all([inputs_ok, d["m"] == wl.CODED_M == len(cw),
                    d["n"] == wl.CODED_N == cw.shape[1], d["rho"] == wl.CODED_RHO,
                    bool(np.allclose(base[idx], cw, rtol=0, atol=1e-12)),
                    chk("coded design power", "power_ok", cw, wl.P_A_UW),
                    chk("coded design distinct", "distinct_ok", cw, wl.P_A_UW),
                    chk("coded design dmin_sq", "dmin_ok", cw, float(d["dmin_sq"]))])

    def simulate():
        sim = _json(out / sim_op.outputs[0])
        trials = int(sim["trials"])
        own = mc_ser([state["cw"]], [], None, wl.CODED_SNR, wl.P_A_UW, OWN_TRIALS, rng)
        mean, sd = exact_pd(state["cw"], wl.CODED_SNR, wl.P_A_UW, fixture)
        k_cli = int(round(sim["ser"] * trials))
        return all([trials == wl.CODED_TRIALS, not sim["degenerate"], k_cli > 0,
                    chk("coded SER", "rate_agrees", k_cli, trials, own["ml_err"], OWN_TRIALS),
                    chk("coded P_d", "mean_agrees", sim["pd_uw"], trials, mean, sd)])

    yield design_op.name, design
    yield sim_op.name, simulate


def _harvester_fit(chk: Checker, out: Path, ops, rng, truth):
    designs = {}

    def design(op):
        d = _json(out / op.outputs[0])
        pts = _points(d)
        rho = op.info["rho"]
        designs[rho] = pts
        oks = [d["m"] == wl.RING_M == len(pts), d["rho"] == rho,
               chk(f"ring rho={rho:.1f} power", "power_ok", pts, wl.P_A_UW)]
        if rho < 1.0:
            oks.append(chk(f"ring rho={rho:.1f} distinct", "distinct_ok", pts, wl.P_A_UW))
        else:
            oks.append(chk("ring rho=1 On-Off", "onoff_ok", pts[:, 0], wl.P_A_UW))
        return all(oks)

    def sweep(op):
        fitted = FittedHarvester(_json(out / "eh_fit.json"))
        rows = _csv_rows(out / op.outputs[0])
        oks = [len(rows) == len(wl.RING_RHOS)]
        for row, rho in zip(rows, wl.RING_RHOS):
            label = f"ring sweep rho={rho:.1f}"
            ok, own, k_cli, trials = _sweep_row(chk, label, row, [designs[rho]], [], None,
                                                wl.RING_SNR, fitted, rng)
            oks += [ok, float(row["control"]) == rho,
                    chk(f"{label} SER", "rate_agrees", k_cli, trials, own["ml_err"],
                        OWN_TRIALS)]
        # the On-Off end of the sweep delivers more than the information end
        oks.append(float(rows[-1]["pd_uw"]) > float(rows[0]["pd_uw"]))
        return all(oks)

    for op in ops:
        if op.name == "fit-eh":
            yield op.name, lambda: _harvester_ok(chk, "fitted harvester",
                                                 out / "eh_fit.json", truth)
        elif op.name.startswith("design-ring"):
            yield op.name, lambda op=op: design(op)
        else:
            yield op.name, lambda op=op: sweep(op)


_BY_WORKLOAD = {"learned_link": _learned, "coded_design": _coded,
                "harvester_fit": _harvester_fit}

# what a missing or malformed output raises while it is read
_READ_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def check_workload(workload: str, out: Path, ops, seed: int):
    """Check the last round's outputs. Returns (op name -> passed, report
    lines, check kinds that accepted a deliberately wrong output)."""
    chk = Checker()
    rng = np.random.default_rng([seed, 0x5EED])
    passed = {}
    try:
        for name, thunk in _BY_WORKLOAD[workload](chk, out, ops, rng, true_sigmoid()):
            try:
                passed[name] = bool(thunk())
            except _READ_ERRORS as err:
                chk.lines.append(f"  FAIL {name}: {type(err).__name__}: {err}")
                passed[name] = False
    except _READ_ERRORS as err:         # the workload's shared inputs are unreadable
        chk.lines.append(f"  FAIL inputs: {type(err).__name__}: {err}")
    return passed, chk.lines, chk.self_test()
