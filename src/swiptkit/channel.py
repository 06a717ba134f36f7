"""Link evaluation: symbol error rate by Monte Carlo, delivered power by
quadrature, rate-power sweeps, and QAM references.

Every design is a :class:`~swiptkit.constellation.Codebook` (or a raw
codeword matrix); the channel reads only its ``(M, n)`` codewords.

SER draws uniform messages and AWGN through one seeded sampler, and one
error count, :func:`error_counter`, scores minimum-distance decoding (ML
under AWGN) and :func:`~swiptkit.autoencoder.evaluate_ser`'s learned
decoders on them alike, in one pass, :func:`monte_carlo`. A sweep draws
each chunk once and decodes every point from it (common random numbers),
so each row equals ``ser_mc`` of its design at the same seed.
Draws are per chunk of trials, on the calling thread; the pass's one
statistic of the messages and the noise is evaluated per row block, mapped
over a process-wide thread pool with one worker per CPU and run on one
OpenBLAS thread, and block results are summed in block order, so every
count is the same whatever the number of workers. One rule cuts every row loop:
:func:`row_slices`, whose remainder joins the last part. It cuts a chunk
into blocks of ``_BLOCK`` rows, and :func:`sliced` cuts a decoder's block
into slices of :func:`slice_rows` rows, so peak memory is one chunk's
draws plus one slice of decoder state per worker, at any M.

The error count certifies minimum-distance rows from the noise alone: a
row whose noise w has |w| below (1 - 1e-6)·Δ_m/2, where Δ_m is the distance
from its sent codeword c_m to the nearest other codeword (the nearest
nonzero one from a zero codeword), is decided by :func:`ml_decoder` in
floating point as m, or as the first zero codeword when c_m is a repeated
zero such as an On-Off off-point (lemma and guards in
:func:`_certified_sq_radii`). |w|² is computed once per block and shared by
every design of a sweep; only the other rows are built and decoded, as a
row subset of their block, whose decisions (if not always bits) are the
whole block's, so every count equals that of decoding the whole block.

Delivered power is an expectation over a known density: per symbol, |c + w|
is Rician, and P_d is computed by quadrature, independent of any trial count.
Its Bessel factor is :func:`_i0e`, Cephes' kernel written out here, so no
command that reports P_d imports SciPy; it works on the quadrature's block
of ``_PD_BLOCK`` amplitudes and has no blocks of its own.

SNR convention: snr = P_a / sigma^2 where sigma^2 is the total variance of
the complex noise per symbol (so "SNR = 50" is 16.98 dB).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .constellation import _DIST_BLOCK, Codebook, check_pa, write_csv

_CHUNK = 100_000   # trials per draw: one seed child each
_BLOCK = 12_500    # decoded rows per block: a cache size, not a setting
_SLICE = 65_536    # decoder values per row slice: a cache size, not a setting
_SLICE_STEP = 24   # slice rows: a multiple of the BLAS's row panels
_SLICE_FLOOR = 2_048   # least outputs per product of a slice: no small-matrix kernel
_MARGIN = 1e-6     # s: rows within (1 - s)·Δ_m/2 of c_m skip the decode
_R2_LO, _R2_HI = 2.0 ** -900, 2.0 ** 1020   # certify only if max |c_j|² is in between


def qfunc(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x) = erfc(x/sqrt(2))/2, elementwise by
    ``math.erfc``: a float for a scalar, an array for an array."""
    x = np.asarray(x, dtype=float)
    q = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x.ravel().tolist()])
    return q.reshape(x.shape) if x.ndim else float(q[0])


@dataclass(frozen=True)   # a hashable value: equal specs draw equal noise
class ChannelSpec:
    """AWGN channel at linear ``snr`` for designs of average power P_a."""

    snr: float
    p_a_uw: float
    seed: int = 0

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError("snr must be positive")
        check_pa(self.p_a_uw)
        if not math.isfinite(float(self.p_a_uw) / float(self.snr)):
            raise ValueError(f"snr {self.snr!r} is too small: the noise variance "
                             "P_a/snr overflows")

    @property
    def sigma_sq(self) -> float:
        return self.p_a_uw / self.snr

    @property
    def noise_sd(self) -> float:
        """The noise's standard deviation per real dimension."""
        return math.sqrt(self.sigma_sq / 2.0)


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
    y.real += rng.normal(0.0, spec.noise_sd, y.shape)
    y.imag += rng.normal(0.0, spec.noise_sd, y.shape)
    return y


def design_codewords(design) -> np.ndarray:
    """Codeword matrix (M, n) of a design (its ``codewords``) or of a raw
    array, where a 1-D array holds M points of block length 1."""
    cw = np.asarray(getattr(design, "codewords", design), dtype=complex)
    return cw.reshape(-1, 1) if cw.ndim == 1 else cw


def sample_channel(m: int, n: int, spec: ChannelSpec, trials: int):
    """The one draw of messages and noise: per chunk of ``_CHUNK`` trials,
    each from its own child of ``spec.seed``, uniform indices into M = ``m``
    codewords and AWGN samples (size, ``n``). The received samples of a
    codeword matrix ``cw`` are ``cw[msg] + w``."""
    for i, child in enumerate(np.random.SeedSequence(spec.seed).spawn(-(-trials // _CHUNK))):
        rng = np.random.default_rng(child)
        size = min(_CHUNK, trials - i * _CHUNK)
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


def monte_carlo(shape: tuple[int, int], spec: ChannelSpec, trials: int, stat):
    """The sum of ``stat(msg, w)`` over one pass of the sampler for ``shape``
    = (M, n): ``msg`` indexes M codewords and ``w`` is the (rows, n) noise,
    so the received rows of a codeword matrix ``cw`` are
    ``cw.take(msg, axis=0) + w``. A statistic that returns an array may
    score several designs on the same draws (common random numbers), as
    :func:`error_counter` does for a whole sweep.

    Each chunk is drawn once on the calling thread, then the statistic is
    evaluated per :func:`row_slices` block of ``_BLOCK`` rows on the decode
    pool, all on one OpenBLAS thread (the caller's count is put back after).
    As with the decoders' slices, a chunk's remainder joins its last block,
    so no block is a lone row of a longer chunk: NumPy decodes a lone row by
    gemv, whose sums may round differently from a block's gemm. The
    statistic must therefore be additive over rows and safe to call from
    several threads at once; it may return a number or an array. Block
    results are summed in block order, so integer counts do not depend on
    the worker count. A block decides its rows as the whole chunk would, if
    not always from the same bits (its products have their own row panels).
    A chunk is freed before the next is drawn, so peak memory is one chunk's
    draws plus one :func:`row_slices` slice of decoder state per worker.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    total = 0
    pool = _decode_pool()
    run = map if pool is None else pool.map
    with one_blas_thread():
        for msg, w in sample_channel(*shape, spec, trials):
            for value in run(lambda rows, msg=msg, w=w: stat(msg[rows], w[rows]),
                             row_slices(len(msg), _BLOCK)):
                total += value
            # freed before the next chunk is drawn: one chunk alive at a time
            del msg, w
    return total


def slice_rows(widths) -> int:
    """Rows per decoder slice for products with ``widths`` outputs per row:
    the largest multiple of ``_SLICE_STEP`` that holds at most ``_SLICE``
    values of the widest product, but at least one step and at least
    ``_SLICE_FLOOR`` values of the narrowest.

    So a decoder holds one slice at a time, and every slice's products keep
    the bits of one product over all the rows, as do its decisions:
    OpenBLAS's dgemm walks rows in panels (12 rows on AVX-512, 24 by the
    AVX2 kernels' unroll), so slices start where the whole product's panels
    do, and a product of few outputs (about 1,200 on OpenBLAS 0.3.31) may go
    to a small-matrix kernel whose sums round differently. The ``slice``
    properties of the tests check this on the host's BLAS."""
    return _SLICE_STEP * max(1, _SLICE // (_SLICE_STEP * max(widths)),
                             -(-_SLICE_FLOOR // (_SLICE_STEP * min(widths))))


def row_slices(rows: int, s: int) -> list[slice]:
    """Consecutive slices of ``s`` rows that cover rows 0..``rows`` once, in
    order, the remainder joining the last slice: no slice is shorter than
    min(``rows``, s), so none is a lone row of a longer input (NumPy
    multiplies one row by gemv, whose sums may round differently from
    gemm's), and there is always one (empty at 0)."""
    if rows < 2 * s:
        return [slice(0, rows)]
    k = rows // s
    return [slice(i * s, (i + 1) * s) for i in range(k - 1)] + [slice((k - 1) * s, rows)]


def sliced(decide_rows, widths):
    """``decide_rows`` as a decoder of any number of rows: run per
    :func:`row_slices` slice of :func:`slice_rows` (``widths``) rows, the
    decisions concatenated in row order, or the one slice's array uncopied
    when there is one slice."""
    s = slice_rows(widths)

    def decide(y: np.ndarray) -> np.ndarray:
        parts = [decide_rows(y[rows]) for rows in row_slices(len(y), s)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return decide


def _to_real(xc: np.ndarray) -> np.ndarray:
    """Complex samples (..., n) as interleaved (re, im) reals (..., 2n); a
    view when they are contiguous complex128."""
    return np.ascontiguousarray(xc, dtype=complex).view(float)


def ml_decoder(cw: np.ndarray):
    """Minimum-distance decisions argmin |c|^2 - 2 Re<y, c>, :func:`sliced`
    by the M distances per row: (slice, M) distances at a time, so memory
    stays bounded at any M. It reads codewords and rows as interleaved
    (re, im) reals, :func:`_to_real`: a view of contiguous rows, no copy."""
    c = _to_real(cw)
    c_sq = np.sum(c * c, axis=1)
    c_m2 = -2.0 * c.T   # scaling by a power of two is exact: d is as if scaled after

    def decide_rows(y: np.ndarray) -> np.ndarray:
        d = _to_real(y) @ c_m2
        d += c_sq
        return np.argmin(d, axis=1)

    return sliced(decide_rows, [len(c)])


def _gamma(k: int) -> float:
    """Higham's gamma_k = k·u/(1 - k·u), u = 2^-53: the relative error bound
    of k roundings."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


def _certified_sq_radii(cw: np.ndarray) -> np.ndarray:
    """Per codeword m, a float t_m >= 0 such that :func:`ml_decoder` decides
    m, or z (the first zero codeword) when c_m is a repeated zero codeword,
    for the received row y = fl(c_m + w) of every noise row w whose computed
    |w|² (as in :func:`error_counter`) is below t_m.

    With c_j the interleaved (re, im) K-vectors of ``ml_decoder`` (K = 2n),
    s = ``_MARGIN``, Δ_m the distance from c_m to its nearest other codeword
    (from a zero codeword, to the nearest nonzero one) and R = max_j |c_j|:
    t_m = fl(T·fl(Δ_m²)), T = fl((1 - s)²/4), where fl(Δ_m²) >= s·fl(R²),
    and t_m = 0 elsewhere. So a repeated nonzero codeword has Δ_m = 0 and is
    never certified. All t_m are 0 unless M >= 2, 2^-900 <= fl(R²) <= 2^1020
    and s² > 13·γ_{K+1}, which holds for n <= 345 (u = 2^-53,
    γ_k = k·u/(1 - k·u)).

    Lemma. Under those guards, fl(|w|²) < t_m implies that the decoder's
    reference value for m is strictly below that of every j with c_j ≠ c_m,
    and, when c_m = 0, exactly +0.0 in every zero column. Ties go to the
    first index (``np.argmin``), so it decides m, or z when c_m = 0. Proof:

    1. Decoder error. The reference value for j is
       g_j = fl(fl(y·(-2c_j)) + fl(|c_j|²)), and its exact counterpart is
       D_j = |y - c_j|² - |y|². Scaling by -2 is exact. A dot product of K
       terms, in any summation order, with or without FMA, lies within
       γ_K·Σ_k|y_k·2c_jk| <= 2γ_K|y||c_j| of its exact value, fl(|c_j|²)
       within γ_K|c_j|², and the last sum adds one rounding, so
       |g_j - D_j| <= γ_{K+1}(2|y||c_j| + |c_j|²) (Higham, Accuracy and
       Stability of Numerical Algorithms, 2nd ed., §3.1). In a zero column
       (c_j = 0, -0.0 parts included) every product of a finite y is ±0,
       their sum is ±0 and fl(|c_j|²) = +0, so g_j = +0.0 exactly.
    2. Computed |w|² and Δ_m². fl(|w|²) rounds K squares and K - 1 sums of
       non-negative terms, so it is at least (1 - γ_{K+2})·|w|². Likewise
       fl(Δ_m²) <= (1 + γ_{K+2})·Δ_m² and fl(R²) >= (1 - γ_K)·R². With the
       roundings of T, of t_m and of s·fl(R²), a certified row has
       |w| <= (1 - s')·Δ_m/2 with s' >= s - ε, ε = 2γ_{K+2} + 4u, and
       Δ_m² >= s·(1 - 3γ_{K+2})·R².
    3. Received row. Each part of y is (c_mk + w_k)(1 + δ_k), |δ_k| <= u, so
       r = |y - c_m| <= (1 + u)|w| + u·R, and by 2, u·R < 1.12e-13·Δ_m.
       Hence r <= (1 - s'')·Δ_m/2 with s'' >= s' - u - 2.3e-13
       > (1 - 4e-7)·s, since ε < 1.6e-13 for K <= 690.
    4. Margin. Every j with c_j ≠ c_m has |c_j - c_m| >= Δ_m > 0, so
       |y - c_j|² - r² >= (Δ_m - r)² - r² = Δ_m(Δ_m - 2r) >= s''·Δ_m²
       >= s·s''·(1 - 3γ_{K+2})·R² > (1 - 1e-6)·s²·R².
    5. Comparison. |y| <= |c_m| + r <= R + Δ_m/2 <= 2R, so by 1,
       |g_j - D_j| + |g_m - D_m| <= 10γ_{K+1}R², and by 4 and
       s² > 13·γ_{K+1}, g_j - g_m > ((1 - 1e-6)·13 - 10)·γ_{K+1}R²
       > 2.9·γ_{K+1}R² > 0.
    6. Guards. The bounds above hold without overflow or underflow. With
       fl(R²) <= 2^1020 every term the decoder forms for a certified row is
       at most 5(1 + γ_{K+1})R² < 2^1023, and every distance term here at
       most 4R², so none overflows; an overflowing |w|² is inf and is never
       certified. Gradual underflow adds at most 2^-1075 per product, under
       (K + 1)·2^-1074 per reference value and per computed |w|² or Δ_m²;
       with fl(R²) >= 2^-900 that is below 2^-100 times the
       2.9·γ_{K+1}R² of 5, and below 2^-100 of any positive t_m. A sum
       whose result is subnormal is exact, so the bound of 3 holds there.

    Δ_m² is computed in row blocks of at most ``_DIST_BLOCK`` distance
    terms, so memory stays bounded at large M·n.
    """
    c = _to_real(cw)
    m, k = c.shape
    t = np.zeros(m)
    r_sq = float(np.max(np.sum(c * c, axis=1), initial=0.0))
    if m < 2 or not _R2_LO <= r_sq <= _R2_HI or _MARGIN * _MARGIN <= 13.0 * _gamma(k + 1):
        return t
    zero = ~np.any(c, axis=1)
    scale = (1.0 - _MARGIN) ** 2 / 4.0
    rows = max(1, _DIST_BLOCK // (m * k))
    for lo in range(0, m, rows):
        d = c[lo:lo + rows, None, :] - c[None, :, :]
        d_sq = np.sum(d * d, axis=2)
        d_sq[np.arange(len(d_sq)), np.arange(lo, lo + len(d_sq))] = math.inf
        d_sq[np.ix_(zero[lo:lo + rows], zero)] = math.inf   # zeros tie exactly: z wins
        delta_sq = d_sq.min(axis=1)
        t[lo:lo + rows] = np.where(delta_sq >= _MARGIN * r_sq, scale * delta_sq, 0.0)
    return t


def error_counter(entries):
    """``(msg, w) -> errors``: for every entry (``cw``, ``decide``,
    ``labels``, ``t``), the errors of ``decide`` on its received rows
    ``cw[msg] + w``, one count per column of ``labels`` (M, S), which holds
    the right decision per codeword; every entry's counts in one int array.
    ``t`` is a certified squared radius per codeword (:func:`_certified_sq_radii`
    for :func:`ml_decoder`, zeros for a learned decoder). A row with
    fl(|w|²) < t_msg is decided without a decode, as msg or, sent as a
    repeated zero, as the first zero codeword (``known``), so its errors are
    ``labels[known] != labels``. |w|² is computed once per block for all
    entries, and y only for the rows that are not certified.

    Those rows are decoded as a row subset of the block. They decide as in
    the whole block, though not always from the same bits: on OpenBLAS
    0.3.31 a subset's rows past its last multiple of 12 (M = 276, 300), and
    every row of a short subset at 2n >= 32, round apart (the ``certified``
    properties check the counts there). NumPy computes a one-row product by
    gemv, whose sums may round differently from gemm's, so a lone row of a
    longer block is decoded twice over.
    """
    plans = []
    for cw, decide, labels, t in entries:
        zero = ~np.any(cw, axis=1)   # -0.0 parts included
        # a certified row sent as a repeated zero is decided as the first zero
        known = np.where(zero, np.argmax(zero), np.arange(len(cw)))
        wrong = labels.take(known, axis=0) != labels
        plans.append((cw, decide, labels, t, wrong if wrong.any() else None))

    def count(msg: np.ndarray, w: np.ndarray) -> np.ndarray:
        w_sq = np.zeros(len(w))
        with np.errstate(over="ignore"):   # an overflowing |w|² is inf: decoded
            for col in _to_real(w).T:
                w_sq += col ** 2
        out = []
        for cw, decide, labels, t, wrong in plans:
            rows = np.flatnonzero(~(w_sq < t.take(msg)))
            sent = msg.take(rows)
            errors = np.zeros(labels.shape[1], dtype=np.int64)
            if rows.size:
                picked = rows.repeat(2) if rows.size == 1 < len(w) else rows
                y = cw.take(msg.take(picked), axis=0) + w.take(picked, axis=0)
                est = decide(y)[:rows.size].reshape(rows.size, -1)
                errors += np.count_nonzero(est != labels.take(sent, axis=0), axis=0)
            if wrong is not None:   # certified rows sent as a later repeated zero
                errors += np.count_nonzero(wrong[msg], axis=0)
                errors -= np.count_nonzero(wrong[sent], axis=0)
            out.append(errors)
        return np.concatenate(out)

    return count


def binomial_ci(ser: float, trials: int) -> float:
    return 3.0 * math.sqrt(max(ser * (1.0 - ser), 0.0) / trials)


def _ser_results(cws: list[np.ndarray], spec: ChannelSpec, trials: int) -> list[SerResult]:
    """SER of every codeword matrix from one shared pass of the sampler. A
    fully degenerate matrix (all codewords identical) is not decoded: it
    reports the expected error rate (M-1)/M.

    One statistic, :func:`error_counter`, counts the errors of every
    matrix: rows provably decided by :func:`ml_decoder` (the lemma of
    :func:`_certified_sq_radii`) are not decoded, and the rest are decoded
    as a row subset of their block, so each count equals that of
    ``ml_decoder`` on every row.
    """
    shapes = {cw.shape for cw in cws}
    if len(shapes) != 1:
        raise ValueError(f"codeword matrices of one pass must share a shape, got {shapes}")
    degenerate = [cw.shape[0] >= 2 and bool(np.all(cw == cw[0])) for cw in cws]
    live = [cw for cw, d in zip(cws, degenerate) if not d]
    entries = [(cw, ml_decoder(cw), np.arange(len(cw))[:, None], _certified_sq_radii(cw))
               for cw in live]   # one decision column: the codeword index
    counts = iter(monte_carlo(shapes.pop(), spec, trials, error_counter(entries)) if live else [])
    out = []
    for cw, d in zip(cws, degenerate):
        m = cw.shape[0]
        if d:
            ser = (m - 1) / m
            errors = int(round(ser * trials))
        else:
            errors = int(next(counts))
            ser = errors / trials
        out.append(SerResult(ser, binomial_ci(ser, trials), trials, errors, d))
    return out


def ser_mc(design, spec: ChannelSpec, trials: int) -> SerResult:
    """Symbol (message) error rate by Monte Carlo.

    Uniform messages, AWGN, minimum-distance decoding (ML under AWGN). A
    fully degenerate design (all codewords identical) is not decoded: it
    reports the expected error rate.
    Minimum-distance decoding skips the rows whose decision it proves: those
    with noise below (1 - 1e-6)·Δ_m/2, Δ_m the distance from their codeword
    c_m to the nearest other codeword (the nearest nonzero one from a zero
    codeword), under the guards of
    :func:`_certified_sq_radii`; the count is that of decoding every row.
    """
    return _ser_results([design_codewords(design)], spec, trials)[0]


def delivered_power_mc(design, spec: ChannelSpec, harvester, trials: int) -> float:
    """Mean harvested power per symbol over AWGN trials: the Monte Carlo
    reference for :func:`delivered_power`."""
    cw = design_codewords(design)
    power = lambda msg, w: float(np.sum(np.asarray(
        harvester.evaluate(np.abs(cw.take(msg, axis=0) + w) ** 2))))
    return monte_carlo(cw.shape, spec, trials, power) / (trials * cw.shape[1])


def delivered_power_noiseless(design, harvester) -> float:
    """Exact enumeration of the per-symbol mean harvested power."""
    cw = design_codewords(design)
    return float(np.mean(np.asarray(harvester.evaluate(np.abs(cw) ** 2))))


_PD_GRID = 4001      # quadrature nodes per amplitude, over +-12 noise deviations
_PD_BLOCK = 8        # amplitudes per harvester and Bessel call: a cache size, not a setting

# Chebyshev coefficients of exp(-x)·I0(x) on [0, 8] in x/2 - 2, and of
# exp(-x)·sqrt(x)·I0(x) on (8, inf] in 32/x - 2: Cephes i0.c (S. L. Moshier)
_I0E_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


def _chbevl(y: np.ndarray, coef) -> np.ndarray:
    """Cephes' chbevl: from b0 = coef[0] and b1 = 0, the Clenshaw recurrence
    b0 = y·b1 - b2 + c over the other coefficients, then 0.5·(b0 - b2), in
    that operation order, for at least three coefficients. Each step's b0 is
    one new array updated in place: three temporaries per step cost twice."""
    b1, b0 = coef[0], y * coef[0] + coef[1]   # y·c0 - 0 is y·c0, -0.0 included
    for c in coef[2:]:
        b2, b1 = b1, b0
        b0 = y * b1
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def _i0e(x) -> np.ndarray:
    """exp(-|x|)·I0(x), the exponentially scaled modified Bessel function of
    order 0, bit for bit as ``scipy.special.i0e`` computes it (Cephes):
    chbevl(|x|/2 - 2, A) for |x| <= 8, chbevl(32/|x| - 2, B)/sqrt(|x|) above
    (so 0 at inf, NaN at NaN). :func:`delivered_power` calls it on one
    quadrature block at a time, so it needs no blocks of its own."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty(x.shape)
    low = x <= 8.0
    out[low] = _chbevl(x[low] / 2.0 - 2.0, _I0E_A)
    high = x[~low]
    out[~low] = _chbevl(32.0 / high - 2.0, _I0E_B) / np.sqrt(high)
    return out


def delivered_power(design, spec: ChannelSpec, harvester) -> float:
    """Mean harvested power per symbol under AWGN, by quadrature.

    For each distinct |c|, |c + w| with w ~ CN(0, sigma^2) has the Rician
    density 2r/s exp(-(r - |c|)^2/s) i0e(2r|c|/s) (s = sigma^2, i0e by
    :func:`_i0e`); f(r^2) is integrated against it by the trapezoid rule on
    a fixed grid over |c| +- 12 sigma, then averaged over messages and
    symbols. The grid is evaluated in blocks of ``_PD_BLOCK`` amplitudes by
    ``_PD_GRID`` nodes, each one call of the harvester and of the Bessel
    kernel. Noiseless, it is :func:`delivered_power_noiseless`. ValueError
    names an SNR so small that the grid's largest input power
    (max |c| + 12 sigma)^2 overflows.
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
    t = np.linspace(0.0, 1.0, _PD_GRID)
    e = np.empty(amp.size)
    for k in range(0, amp.size, _PD_BLOCK):
        a = amp[k:k + _PD_BLOCK, None]
        lo = np.maximum(a - half, 0.0)
        r = lo + (a + half - lo) * t
        g = np.asarray(harvester.evaluate(r * r)) * (2.0 * r / s) \
            * np.exp(-(r - a) ** 2 / s) * _i0e(2.0 * a * r / s)
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
                    trials: int, seed: int, header_comment: str) -> None:
    """Sweep CSV: control,ser,ci,pd_uw,snr_db,trials,seed."""
    write_csv(path, ["control", "ser", "ci", "pd_uw", "snr_db", "trials", "seed"],
              ([repr(p.control), repr(p.ser), repr(p.ci_halfwidth), repr(p.pd_uw),
                repr(snr_db), trials, seed] for p in points), header_comment)
