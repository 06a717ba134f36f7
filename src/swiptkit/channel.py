"""Monte Carlo link evaluation: AWGN sampling, ML and learned-decoder SER,
delivered-power measurement, rate-power sweeps, and QAM references.

SNR convention: snr = P_a / sigma^2 where sigma^2 is the total variance of
the complex noise per symbol (so "SNR = 50" is 16.98 dB).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc

from .codebook import Codebook, OnOffBlockCode
from .constellation import Constellation
from .harvester import _harvest_fn

_CHUNK = 100_000


def qfunc(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


@dataclass
class ChannelSpec:
    """AWGN channel at linear ``snr`` for designs of average power P_a."""

    snr: float
    p_a_uw: float
    seed: int = 0

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError("snr must be positive")

    @property
    def sigma_sq(self) -> float:
        return self.p_a_uw / self.snr


@dataclass
class TradeoffPoint:
    """One row of a rate-power sweep."""

    control: float
    ser: float
    pd_uw: float
    ci_halfwidth: float


@dataclass
class SerResult:
    ser: float
    ci_halfwidth: float
    trials: int
    errors: int
    degenerate: bool = False
    pd_uw: float | None = None


def awgn(x: np.ndarray, spec: ChannelSpec, rng) -> np.ndarray:
    """Add complex Gaussian noise, variance sigma_sq/2 per real dimension."""
    x = np.asarray(x, dtype=complex)
    if spec.sigma_sq == 0.0:
        return x.copy()
    sd = math.sqrt(spec.sigma_sq / 2.0)
    return x + rng.normal(0.0, sd, x.shape) + 1j * rng.normal(0.0, sd, x.shape)


def design_codewords(design) -> np.ndarray:
    """Codeword matrix (M, n) of any design object (or a raw array)."""
    if isinstance(design, Constellation):
        return design.points.reshape(-1, 1)
    if isinstance(design, Codebook):
        return design.codewords
    if isinstance(design, OnOffBlockCode):
        return design.codewords()
    cw = np.asarray(design, dtype=complex)
    return cw.reshape(-1, 1) if cw.ndim == 1 else cw


def _chunk_rngs(seed: int, trials: int):
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(_CHUNK, trials - i * _CHUNK) for i in range(n_chunks)]
    return [(np.random.default_rng(c), s) for c, s in zip(children, sizes)]


def sample_channel(cw: np.ndarray, spec: ChannelSpec, trials: int):
    """The one draw of messages and noise: per chunk, uniform row indices of
    the codeword matrix ``cw`` (M, n) and their AWGN samples."""
    for rng, size in _chunk_rngs(spec.seed, trials):
        msg = rng.integers(0, cw.shape[0], size)
        yield msg, awgn(cw[msg], spec, rng)


def monte_carlo(cw: np.ndarray, spec: ChannelSpec, trials: int, errors=None,
                harvester=None):
    """Sum of ``errors(msg, y)`` over one pass of the sampler (0 without it)
    and the mean harvested power per symbol of the same samples (or None)."""
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    f = None if harvester is None else _harvest_fn(harvester)
    total, sums = 0, []
    for msg, y in sample_channel(cw, spec, trials):
        if errors is not None:
            total += errors(msg, y)
        if f is not None:
            sums.append(float(np.sum(np.asarray(f(np.abs(y) ** 2)))))
    return total, None if f is None else math.fsum(sums) / (trials * cw.shape[1])


def ml_decoder(cw: np.ndarray):
    """Minimum-distance decisions argmin |c|^2 - 2 Re<y, c> in (B, M) memory."""
    c = np.hstack([cw.real, cw.imag])
    c_sq = np.sum(c * c, axis=1)

    def decide(y: np.ndarray) -> np.ndarray:
        d = np.hstack([y.real, y.imag]) @ c.T
        d *= -2.0
        d += c_sq
        return np.argmin(d, axis=1)

    return decide


def point_seed(seed: int, i: int) -> int:
    """Seed of point ``i`` of a sweep: an independent substream per point."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def binomial_ci(ser: float, trials: int) -> float:
    return 3.0 * math.sqrt(max(ser * (1.0 - ser), 0.0) / trials)


def ser_mc(design, spec: ChannelSpec, trials: int, decoder=None,
           harvester=None) -> SerResult:
    """Symbol (message) error rate by Monte Carlo.

    Uniform messages, AWGN, minimum-distance decoding (ML under AWGN) or the
    max-softmax decisions of a ``decoder``; with a harvester, ``pd_uw`` is the
    delivered power of the same samples. A fully degenerate design (all
    codewords identical) is not decoded: it reports the expected error rate.
    """
    cw = design_codewords(design)
    m = cw.shape[0]
    degenerate = m >= 2 and bool(np.all(cw == cw[0]))
    decide = decoder or ml_decoder(cw)
    count = None if degenerate else lambda msg, y: int(np.count_nonzero(decide(y) != msg))
    errors, pd = monte_carlo(cw, spec, trials, count, harvester)
    ser = (m - 1) / m if degenerate else errors / trials
    if degenerate:
        errors = int(round(ser * trials))
    return SerResult(ser, binomial_ci(ser, trials), trials, errors, degenerate, pd)


def delivered_power_mc(design, spec: ChannelSpec, harvester, trials: int) -> float:
    """Mean harvested power per symbol over AWGN trials."""
    return monte_carlo(design_codewords(design), spec, trials, harvester=harvester)[1]


def delivered_power_noiseless(design, harvester) -> float:
    """Exact enumeration of the per-symbol mean harvested power."""
    cw = design_codewords(design)
    f = _harvest_fn(harvester)
    return float(np.mean(np.asarray(f(np.abs(cw) ** 2))))


def rp_sweep(designer, controls, spec: ChannelSpec, harvester,
             trials: int) -> list[TradeoffPoint]:
    """Evaluate (SER, delivered power) per control value, rows in order.

    Each point gets independent substreams derived from the spec seed, so
    the sweep is deterministic per (seed, trials).
    """
    controls = list(controls)
    if not controls:
        raise ValueError("controls must be nonempty")
    rows = []
    for i, c in enumerate(controls):
        pt_spec = replace(spec, seed=point_seed(spec.seed, i))
        res = ser_mc(designer(c), pt_spec, trials, harvester=harvester)
        rows.append(TradeoffPoint(control=float(c), ser=res.ser, pd_uw=res.pd_uw,
                                  ci_halfwidth=res.ci_halfwidth))
    return rows


def qam_reference(m: int, p_a_uw: float) -> Constellation:
    """Square QAM scaled to average power P_a; supports M in {4, 16, 64}."""
    if m not in (4, 16, 64):
        raise ValueError("supported QAM sizes: 4, 16, 64")
    side = int(math.isqrt(m))
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    pts = pts * math.sqrt(p_a_uw / float(np.mean(np.abs(pts) ** 2)))
    return Constellation(points=pts, m=m, p_a_uw=p_a_uw, rho=0.0)


def write_sweep_csv(path, points: list[TradeoffPoint], snr_db: float,
                    trials: int, seed: int, header_comment: str | None = None) -> None:
    """Sweep CSV: control,ser,ci,pd_uw,snr_db,trials,seed."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["control", "ser", "ci", "pd_uw", "snr_db", "trials", "seed"])
        for p in points:
            w.writerow([repr(p.control), repr(p.ser), repr(p.ci_halfwidth),
                        repr(p.pd_uw), repr(snr_db), trials, seed])
