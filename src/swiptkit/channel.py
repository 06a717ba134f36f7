"""Link evaluation: symbol error rate by Monte Carlo, delivered power by
quadrature, rate-power sweeps, and QAM references.

Every design is a :class:`~swiptkit.constellation.Codebook` (or a raw
codeword matrix); the channel reads only its ``(M, n)`` codewords.

SER draws uniform messages and AWGN through one seeded sampler and decodes
them by minimum distance (ML under AWGN) or by a learned decoder. A sweep
draws each chunk once and decodes every point from it (common random
numbers), so each row equals ``ser_mc`` of its design at the same seed.
Draws are per chunk of trials, on the calling thread; decoding is per
fixed row block, mapped over a process-wide thread pool with one worker per
CPU and run on one OpenBLAS thread, and block results are summed in block
order, so every count is the same whatever the number of workers.
Delivered power is an expectation over a known density: per symbol, |c + w|
is Rician, and P_d is computed by quadrature, independent of any trial count.

SNR convention: snr = P_a / sigma^2 where sigma^2 is the total variance of
the complex noise per symbol (so "SNR = 50" is 16.98 dB).

SciPy is imported inside the one function that calls it (``erfc`` in
:func:`qfunc`, ``i0e`` in :func:`delivered_power`), not at module level:
importing ``scipy.special`` costs about a quarter of a second per process,
and commands that evaluate no delivered power never call it.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .constellation import Codebook

_CHUNK = 100_000   # trials per draw: one seed child each
_BLOCK = 12_500    # decoded rows per block: a cache size, not a setting


def qfunc(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc

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
        if not 0 < self.p_a_uw < math.inf:
            raise ValueError("P_a must be finite and positive")
        if not math.isfinite(float(self.p_a_uw) / float(self.snr)):
            raise ValueError(f"snr {self.snr!r} is too small: the noise variance "
                             "P_a/snr overflows")

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


def awgn(x: np.ndarray, spec: ChannelSpec, rng) -> np.ndarray:
    """Add complex Gaussian noise, variance sigma_sq/2 per real dimension:
    real parts, then imaginary parts, drawn even when sigma_sq is 0."""
    y = np.array(x, dtype=complex)   # a copy: the draws are added in place
    sd = math.sqrt(spec.sigma_sq / 2.0)
    y.real += rng.normal(0.0, sd, y.shape)
    y.imag += rng.normal(0.0, sd, y.shape)
    return y


def design_codewords(design) -> np.ndarray:
    """Codeword matrix (M, n) of a design (its ``codewords``) or of a raw
    array, where a 1-D array holds M points of block length 1."""
    cw = np.asarray(getattr(design, "codewords", design), dtype=complex)
    return cw.reshape(-1, 1) if cw.ndim == 1 else cw


def _chunk_rngs(seed: int, trials: int):
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(_CHUNK, trials - i * _CHUNK) for i in range(n_chunks)]
    return [(np.random.default_rng(c), s) for c, s in zip(children, sizes)]


def sample_channel(m: int, n: int, spec: ChannelSpec, trials: int):
    """The one draw of messages and noise: per chunk, uniform indices into
    M = ``m`` codewords and AWGN samples (size, ``n``). The received samples
    of a codeword matrix ``cw`` are ``cw[msg] + w``."""
    for rng, size in _chunk_rngs(spec.seed, trials):
        msg = rng.integers(0, m, size)
        yield msg, awgn(np.zeros((size, n)), spec, rng)


@functools.cache
def _decode_pool() -> ThreadPoolExecutor | None:
    """The process-wide pool that decodes row blocks, one worker per CPU the
    process may run on; None on one CPU, where blocks run inline."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return ThreadPoolExecutor(cpus, thread_name_prefix="swiptkit-decode") if cpus > 1 else None


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads: it makes a pool of its own
    os.register_at_fork(after_in_child=_decode_pool.cache_clear)


def monte_carlo(cws: list[np.ndarray], spec: ChannelSpec, trials: int, stats) -> list:
    """Per codeword matrix ``cws[p]`` (all of one shape), the sum of
    ``stats[p](msg, y)`` over one pass of the sampler, where every matrix sees
    the same messages and noise; a None statistic sums to 0 and is not run.

    Each chunk is drawn once on the calling thread, then ``cw[msg] + w`` and
    every statistic are evaluated per block of ``_BLOCK`` rows on the decode
    pool, all on one OpenBLAS thread (the caller's count is put back after).
    A statistic must therefore be additive over rows and safe to call from
    several threads at once. Block results are summed in block order, so
    integer counts do not depend on the worker count. Peak memory is one
    chunk's draws plus one block of decoder state per worker, however many
    matrices there are.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    shapes = {cw.shape for cw in cws}
    if len(shapes) != 1:
        raise ValueError(f"codeword matrices of one pass must share a shape, got {shapes}")
    totals = [0] * len(cws)
    active = [(p, cw, stat) for p, (cw, stat) in enumerate(zip(cws, stats)) if stat is not None]
    if not active:
        return totals
    pool = _decode_pool()
    run = map if pool is None else pool.map
    with one_blas_thread():
        for msg, w in sample_channel(*shapes.pop(), spec, trials):
            def block(lo, msg=msg, w=w):
                m, wb = msg[lo:lo + _BLOCK], w[lo:lo + _BLOCK]
                return [stat(m, cw[m] + wb) for _, cw, stat in active]

            for sums in run(block, range(0, len(msg), _BLOCK)):
                for (p, _, _), value in zip(active, sums):
                    totals[p] += value
    return totals


def ml_decoder(cw: np.ndarray):
    """Minimum-distance decisions argmin |c|^2 - 2 Re<y, c> in (B, M) memory."""
    c = np.hstack([cw.real, cw.imag])
    c_sq = np.sum(c * c, axis=1)
    c_m2 = -2.0 * c.T   # scaling by a power of two is exact: d is as if scaled after

    def decide(y: np.ndarray) -> np.ndarray:
        d = np.hstack([y.real, y.imag]) @ c_m2
        d += c_sq
        return np.argmin(d, axis=1)

    return decide


def binomial_ci(ser: float, trials: int) -> float:
    return 3.0 * math.sqrt(max(ser * (1.0 - ser), 0.0) / trials)


def _ser_results(cws: list[np.ndarray], spec: ChannelSpec, trials: int,
                decoder=None) -> list[SerResult]:
    """SER of every codeword matrix from one shared pass of the sampler. A
    fully degenerate matrix (all codewords identical) is not decoded: it
    reports the expected error rate (M-1)/M."""
    degenerate = [cw.shape[0] >= 2 and bool(np.all(cw == cw[0])) for cw in cws]

    def counter(cw):
        decide = decoder or ml_decoder(cw)
        return lambda msg, y: int(np.count_nonzero(decide(y) != msg))

    counts = monte_carlo(cws, spec, trials,
                         [None if d else counter(cw) for cw, d in zip(cws, degenerate)])
    out = []
    for cw, d, errors in zip(cws, degenerate, counts):
        m = cw.shape[0]
        ser = (m - 1) / m if d else errors / trials
        if d:
            errors = int(round(ser * trials))
        out.append(SerResult(ser, binomial_ci(ser, trials), trials, errors, d))
    return out


def ser_mc(design, spec: ChannelSpec, trials: int, decoder=None) -> SerResult:
    """Symbol (message) error rate by Monte Carlo.

    Uniform messages, AWGN, minimum-distance decoding (ML under AWGN) or the
    max-softmax decisions of a ``decoder``. A fully degenerate design (all
    codewords identical) is not decoded: it reports the expected error rate.
    """
    return _ser_results([design_codewords(design)], spec, trials, decoder)[0]


def delivered_power_mc(design, spec: ChannelSpec, harvester, trials: int) -> float:
    """Mean harvested power per symbol over AWGN trials: the Monte Carlo
    reference for :func:`delivered_power`."""
    cw = design_codewords(design)
    power = lambda msg, y: float(np.sum(np.asarray(harvester.evaluate(np.abs(y) ** 2))))
    return monte_carlo([cw], spec, trials, [power])[0] / (trials * cw.shape[1])


def delivered_power_noiseless(design, harvester) -> float:
    """Exact enumeration of the per-symbol mean harvested power."""
    cw = design_codewords(design)
    return float(np.mean(np.asarray(harvester.evaluate(np.abs(cw) ** 2))))


_PD_GRID = 4001      # quadrature nodes per amplitude, over +-12 noise deviations
_PD_BLOCK = 64       # amplitudes per harvester call


def delivered_power(design, spec: ChannelSpec, harvester) -> float:
    """Mean harvested power per symbol under AWGN, by quadrature.

    For each distinct |c|, |c + w| with w ~ CN(0, sigma^2) has the Rician
    density 2r/s exp(-(r - |c|)^2/s) i0e(2r|c|/s) (s = sigma^2); f(r^2) is
    integrated against it by the trapezoid rule on a fixed grid over
    |c| +- 12 sigma, then averaged over messages and symbols. Noiseless, it
    is :func:`delivered_power_noiseless`. ValueError names an SNR so small
    that the grid's largest input power (max |c| + 12 sigma)^2 overflows.
    """
    s = spec.sigma_sq
    if s == 0.0:
        return delivered_power_noiseless(design, harvester)
    cw = design_codewords(design)
    amp, inv = np.unique(np.abs(cw), return_inverse=True)
    half = 12.0 * math.sqrt(s)
    top = float(amp[-1]) + half
    if not math.isfinite(top * top):
        raise ValueError(f"snr {spec.snr!r} is too small: the input power of the "
                         "delivered-power quadrature overflows")
    from scipy.special import i0e

    t = np.linspace(0.0, 1.0, _PD_GRID)
    e = np.empty(amp.size)
    for k in range(0, amp.size, _PD_BLOCK):
        a = amp[k:k + _PD_BLOCK, None]
        lo = np.maximum(a - half, 0.0)
        r = lo + (a + half - lo) * t
        g = np.asarray(harvester.evaluate(r * r)) * (2.0 * r / s) \
            * np.exp(-(r - a) ** 2 / s) * i0e(2.0 * a * r / s)
        e[k:k + _PD_BLOCK] = (r[:, 1] - r[:, 0]) * (g.sum(axis=1) - 0.5 * (g[:, 0] + g[:, -1]))
    return float(np.mean(e[inv]))


def rp_sweep(designer, controls, spec: ChannelSpec, harvester,
             trials: int) -> list[TradeoffPoint]:
    """Evaluate (SER, delivered power) per control value, rows in order.

    Every point is decoded from the same draws of ``spec.seed`` (common
    random numbers), so row i equals ``ser_mc`` of its design at the spec,
    and its delivered power is :func:`delivered_power`. The designs must
    share one (M, n) shape.
    """
    controls = list(controls)
    if not controls:
        raise ValueError("controls must be nonempty")
    cws = [design_codewords(designer(c)) for c in controls]
    pds = [delivered_power(cw, spec, harvester) for cw in cws]   # fails before the pass
    return [TradeoffPoint(control=float(c), ser=res.ser, pd_uw=pd,
                          ci_halfwidth=res.ci_halfwidth)
            for c, pd, res in zip(controls, pds, _ser_results(cws, spec, trials))]


def qam_reference(m: int, p_a_uw: float) -> Codebook:
    """Square QAM scaled to average power P_a; supports M in {4, 16, 64}."""
    if m not in (4, 16, 64):
        raise ValueError("supported QAM sizes: 4, 16, 64")
    side = int(math.isqrt(m))
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    qam = Codebook(base_points=(levels[:, None] + 1j * levels[None, :]).ravel(),
                   codeword_indices=np.arange(m)[:, None], m=m, n=1, p_a_uw=p_a_uw, rho=0.0)
    qam.scale_to_power()
    return qam


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
