"""Coded modulation for block length n >= 1: greedy minimum-distance codebook
construction and position-coded On-Off blocks. Both return the one design type
:class:`~swiptkit.constellation.Codebook` (JSON in the codeword format for
n > 1, the point format at n = 1), which derives their minimum distance and
rescales them to P_a. :func:`swipt_codebook` is a second name for
:func:`~swiptkit.constellation.swipt_transform`, the whole On-Off
deformation of any rho = 0 design, the greedy codebooks included.

The greedy search bisects its distance threshold inside a bracket whose ends
are proven, not probed, so it always returns exactly M codewords after a
bounded number of passes (see :func:`build_info_codebook`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# codebook_min_dist is unused here, but perfbench/tracer.py wraps it under this
# module's name, so the name must resolve
from .constellation import (Codebook, check_pa, codebook_min_dist,  # noqa: F401
                            layout_info, m_on_count, swipt_transform)

# a second name for the one deformation: perfbench/tracer.py wraps both names
swipt_codebook = swipt_transform


@dataclass
class GreedyConfig:
    """Knobs for the greedy search: the candidate count it draws from and the
    seed of that draw. The search holds its candidates' symbol indices, 8n
    bytes each, and its passes peak at about 57 bytes per candidate at
    n = 3 (57 MB at the default cap of 1M); drawing a sampled set peaks
    higher, at about 82 MB there."""

    candidate_cap: int = 1_000_000
    seed: int = 0


_PACK_ROWS = 32_768   # drawn rows keyed per slice: a cache size, not a setting


def _permutations(mn: int, n: int) -> np.ndarray:
    """Every ordered n-permutation of range(mn) as int64 rows, in the
    lexicographic order of ``itertools.permutations(range(mn), n)``.

    Filled in place a column at a time: column k of the rows that share a
    k-symbol prefix runs through the symbols that prefix does not use, in
    increasing order. Besides the result, a column holds a mask byte per
    prefix and symbol and an int64 per prefix and free symbol, so memory
    stays within about (1 + 1/n) times the result.
    """
    rows = np.empty((math.perm(mn, n), n), dtype=np.int64)
    for k in range(n):
        prefixes = math.perm(mn, k)
        grid = rows.reshape(prefixes, mn - k, -1, n)
        free = np.ones((prefixes, mn), dtype=bool)
        free[np.arange(prefixes)[:, None], grid[:, 0, 0, :k]] = False
        grid[:, :, :, k] = np.broadcast_to(np.arange(mn), free.shape)[free].reshape(
            prefixes, mn - k, 1)
    return rows


def _sample_permutations(mn: int, n: int, count: int, rng) -> np.ndarray:
    """``count`` distinct ordered n-permutations of range(mn), seeded, in the
    order they were first drawn (a uniform sample, not the smallest rows).

    Each round draws 2*count rows in one call and keeps one key per row whose
    symbols are distinct: the row packed in base mn when mn**n fits in int64,
    else the row itself as a record compared field by field, so distinct
    rows never share a key. The draw is then freed. One stable argsort of the
    keys found so far and the new ones marks the first row of each run of
    equal keys; the first ``count`` of those, in draw order, are the
    candidates. So a round holds the draw (16n bytes per candidate) and then
    a few arrays of one key per drawn row, and the result holds 8n bytes per
    candidate.
    """
    packed = mn ** n <= 2 ** 63
    key_type = np.dtype(np.int64) if packed else np.dtype([("", np.int64)] * n)
    weights = mn ** np.arange(n - 1, -1, -1, dtype=np.int64) if packed else None
    seen = np.empty(0, dtype=key_type)
    while len(seen) < count:
        batch = rng.integers(0, mn, size=(2 * count, n), dtype=np.int64)
        keys = np.empty(len(seen) + len(batch), dtype=key_type)
        keys[:len(seen)] = seen
        end = len(seen)
        for lo in range(0, len(batch), _PACK_ROWS):
            part = batch[lo:lo + _PACK_ROWS]
            distinct = np.ones(len(part), dtype=bool)
            for a in range(n):
                for b in range(a + 1, n):
                    distinct &= part[:, a] != part[:, b]
            part = part[distinct]
            keys[end:end + len(part)] = part @ weights if packed else part.view(key_type)[:, 0]
            end += len(part)
        del batch, part
        keys = keys[:end]
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.ones(end, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        del ranked
        # the seen keys come first and are distinct, so they are the first
        # len(seen) first occurrences
        seen = keys[np.sort(order[first])[:count]]
    if not packed:
        return seen.view(np.int64).reshape(count, n)
    rows = np.empty((count, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        seen, rows[:, j] = np.divmod(seen, mn)
    return rows


_CHUNK_ROWS = 8192   # distance rows per chunk: a cache size, not a setting


def _einsum_lanes(width: int) -> tuple[list[int], list[int]]:
    """The order in which ``np.einsum("ij,ij->i", x, x)`` sums each row's
    ``width`` squares, as two lanes of column indices: even columns in lane
    0, odd in lane 1. Each whole block of 8 columns enters its lanes last to
    first, then the other columns left to right; a lane adds its columns in
    that order, and the row's sum is lane 0 + lane 1.

    That is NumPy's two-lane contiguous sum of products (``einsum_sumprod``,
    unrolled 4 vectors deep), on builds whose einsum does not fuse its
    multiply-adds; the tests' ``einsum_order`` property checks it against the
    installed NumPy.
    """
    whole = width - width % 8
    order = [c for b in range(0, whole, 8) for c in range(b + 7, b - 1, -1)]
    order += range(whole, width)
    return [c for c in order if c % 2 == 0], [c for c in order if c % 2 == 1]


def _greedy_pass(cols: np.ndarray, points: np.ndarray, d_min: float, start: int,
                 max_select: int) -> list[int]:
    """One greedy selection pass: filter survivors at squared distance
    >= d_min from the last pick, then take the closest survivor.

    ``cols`` is (n, N) intp: row k holds symbol k of every candidate, an
    index into the complex ``points``. At each pick v the pass builds 2n
    tables of len(points) entries, (re p - re p[v_k])^2 and
    (im p - im p[v_k])^2, and a candidate's squared distance is the sum of
    its 2n table entries. So the pass holds the index columns and no point
    coordinates.

    Each step sums the distances to the last pick in chunks of
    ``_CHUNK_ROWS`` rows, gathered into reused buffers. Filtered rows are
    marked dead in a mask and get distance inf; the active columns are
    compacted only once fewer than half of their rows survive.

    The picks are exact: every distance has the bits of the row-wise
    ``np.einsum("ij,ij->i")`` over the same interleaved re/im differences,
    since the same subtractions and squares are added in einsum's order
    (:func:`_einsum_lanes`), and masks keep row order, so argmin breaks
    ties on the same candidate as a pass that compacts every step.
    """
    # at even width both lanes visit the symbols in one order: re parts in
    # lane 0, im parts in lane 1
    order = [c // 2 for c in _einsum_lanes(2 * len(cols))[0]]
    coords = np.stack([points.real, points.imag])   # (2, len(points))
    active = cols
    active_idx = np.arange(cols.shape[1])
    alive = np.ones(len(active_idx), dtype=bool)
    d = np.empty(len(active_idx))
    chunk = min(_CHUNK_ROWS, len(active_idx))
    lane_im, entry = np.empty(chunk), np.empty(chunk)
    selected = [start]
    v = cols[:, start]
    while len(selected) < max_select:
        tables = np.square(coords[:, None, :] - coords[:, v, None])   # (2, n, len(points))
        for lo in range(0, len(active_idx), chunk):
            hi = min(lo + chunk, len(active_idx))
            lane_sums = d[lo:hi], lane_im[:hi - lo]
            # mode="clip" writes straight into out (the default mode buffers
            # it); every index is in range
            for total, table in zip(lane_sums, tables):
                np.take(table[order[0]], active[order[0], lo:hi], out=total, mode="clip")
                for k in order[1:]:
                    total += np.take(table[k], active[k, lo:hi], out=entry[:hi - lo], mode="clip")
            np.add(*lane_sums, out=lane_sums[0])
            alive[lo:hi] &= lane_sums[0] >= d_min
        n_alive = np.count_nonzero(alive)
        if n_alive == 0:
            break
        np.copyto(d, np.inf, where=~alive)
        pick = int(np.argmin(d))
        if d[pick] == np.inf:   # every survivor's distance overflowed
            pick = int(np.argmax(alive))
        selected.append(int(active_idx[pick]))
        v = active[:, pick]
        if 2 * n_alive < len(active_idx):
            active, active_idx = active[:, alive], active_idx[alive]
            alive = np.ones(n_alive, dtype=bool)
            d = np.empty(n_alive)
    return selected


def build_info_codebook(m: int, n: int, p_a_uw: float,
                        cfg: GreedyConfig | None = None) -> Codebook:
    """Greedy minimum-distance codebook over the Mn-point layout; at n = 1,
    the layout itself (the search would pick all M candidates).

    Candidates are the n-permutations of the Mn base points (exhaustive when
    they fit under ``candidate_cap``, else seeded random distinct samples),
    held as n index columns through every pass: 8n bytes each, and no
    copy of their points.
    The distance threshold is bisected down to epsilon = 0.05*t^2 inside
    [lo, hi] = [t^2/2, 2*M*E_max/(M - 1)], with E_max = n*max|base point|^2:
    layout points lie at least t apart, so distinct candidates differ by at
    least t^2 and a pass at lo drops none; and M codewords pairwise at least
    d apart have d*M(M - 1)/2 <= sum_{i<j} |c_i - c_j|^2 <= M^2*E_max, so no
    pass above hi picks M. A probe that picks exactly M ends the search;
    otherwise the first M picks of the largest probe yielding >= M win, or,
    if none does, those of one pass at lo. That is at most
    ceil(log2((hi - lo)/epsilon)) + 1 passes, and always M codewords. At
    M = 1 the one codeword is n distinct base points drawn by the seeded
    generator, with no candidate set.
    :meth:`Codebook.scale_to_power` then enforces the average-power equality.
    """
    if m < 1 or n < 1:
        raise ValueError("M and n must be >= 1")
    mn = m * n
    base = layout_info(mn, p_a_uw)
    if n == 1:
        # the search would pick every candidate: the design is the layout itself
        return base
    cfg = cfg or GreedyConfig()
    rng = np.random.default_rng(cfg.seed)

    t_sq = base.t ** 2
    eps = 0.05 * t_sq
    if eps <= 0:   # t^2 underflowed
        raise ValueError("epsilon must be positive")
    if cfg.candidate_cap < m:
        raise ValueError("candidate_cap must be >= M")

    if m == 1:
        # the search would return its random start row alone: draw that row
        # directly, since a random row has distinct symbols with chance n!/n**n
        idx = rng.permutation(mn)[None, :n]
    else:
        if math.perm(mn, n) <= cfg.candidate_cap:
            cand_idx = _permutations(mn, n)
        else:
            cand_idx = _sample_permutations(mn, n, cfg.candidate_cap, rng)
        # one contiguous index column per symbol, the only copy the passes hold
        cols = np.ascontiguousarray(cand_idx.T, dtype=np.intp)
        del cand_idx

        start = int(rng.integers(cols.shape[1]))
        sel = []
        lo = t_sq / 2.0
        r_max = float(np.max(np.abs(base.base_points)))
        # capped: an overflowed bound would make every midpoint inf
        hi = min(2.0 * m * n * r_max * r_max / (m - 1), np.finfo(float).max)
        while hi - lo > eps:
            d = lo + (hi - lo) / 2.0
            probe = _greedy_pass(cols, base.base_points, d, start, max_select=m + 1)
            if len(probe) < m:
                hi = d
                continue
            lo, sel = d, probe[:m]
            if len(probe) == m:
                break
        sel = sel or _greedy_pass(cols, base.base_points, lo, start, max_select=m)
        idx = np.ascontiguousarray(cols[:, sel].T)

    cb = Codebook(base_points=base.base_points.copy(), codeword_indices=idx,
                  m=m, n=n, p_a_uw=p_a_uw, rho=0.0)
    cb.scale_to_power()
    return cb


# ---------------------------------------------------------------------------
# On-Off position block codes
# ---------------------------------------------------------------------------

def onoff_block_code(n: int, p_a_uw: float, p_star: float, m_req: int) -> Codebook:
    """Build the position code: N_on = ``m_on_count(n, p_star)``, r_on
    carries the whole block power, and the first m_req supports are taken in
    colexicographic order. It is the rho = 1 codebook over base points
    (0, r_on) whose codeword k indexes r_on on its support, 0 elsewhere.

    The all-on support is a single set and carries one message, so for
    m_req >= 2 (and n >= 2) N_on is capped at n - 1, the best match among
    {1..n-1}/n. ValueError ("exceeds") is raised when N_on has fewer than
    m_req supports, which includes n = 1 with m_req >= 2.
    """
    if n < 1 or m_req < 1:
        raise ValueError("n and m_req must be >= 1")
    check_pa(p_a_uw)
    n_on = min(m_on_count(n, p_star), n - 1 if m_req >= 2 and n >= 2 else n)
    bound = math.comb(n, n_on)
    if m_req > bound:
        raise ValueError(f"m_req={m_req} exceeds C({n},{n_on})={bound}")
    supports = sorted(itertools.combinations(range(n), n_on),
                      key=lambda c: c[::-1])[:m_req]
    r_on = math.sqrt(n * p_a_uw / n_on)
    idx = np.zeros((m_req, n), dtype=int)
    for k, sup in enumerate(supports):
        idx[k, list(sup)] = 1
    return Codebook(base_points=[0.0, r_on], codeword_indices=idx, m=m_req, n=n,
                    p_a_uw=p_a_uw, rho=1.0)


def decode_onoff_block_many(ys: np.ndarray, code: Codebook) -> np.ndarray:
    """Per row of ``ys`` (B, n), the message index of the On-Off block code
    with maximal received energy on its support set (the positions indexing
    r_on).

    Subsumes exact position matching: a noiseless codeword's own support is
    the unique energy maximizer; ties (e.g. all-zero input) go to the
    smallest index.
    """
    e = np.abs(np.asarray(ys, dtype=complex)) ** 2
    sup = np.nonzero(code.codeword_indices)[1].reshape(code.m, -1)   # (M, n_on)
    overlap = e[:, sup].sum(axis=2)                        # (B, M)
    return np.argmax(overlap, axis=1)
