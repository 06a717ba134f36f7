"""Coded modulation for block length n >= 1: greedy minimum-distance codebook
construction and position-coded On-Off blocks. Both return the one design type
:class:`~swiptkit.constellation.Codebook` (JSON in the codeword format for
n > 1, the point format at n = 1), and :func:`swipt_codebook` is the one
deformation :func:`~swiptkit.constellation.swipt_transform`, whose final
common rescale runs unless every base point is referenced exactly once.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constellation import (Codebook, codebook_min_dist, layout_info, m_on_count,
                            swipt_transform)

# a second name for the one deformation: perfbench/tracer.py wraps both names
swipt_codebook = swipt_transform


@dataclass
class GreedyConfig:
    """Knobs for the greedy search: the threshold passes it may run, the
    candidate count it draws from, and the seed of that draw."""

    max_rounds: int = 40
    candidate_cap: int = 1_000_000
    seed: int = 0


def _sample_permutations(mn: int, n: int, count: int, rng) -> np.ndarray:
    """``count`` distinct ordered n-permutations of range(mn), seeded."""
    packed_seen = np.empty(0, dtype=np.int64)
    rows = []
    weights = mn ** np.arange(n - 1, -1, -1, dtype=np.int64)
    while sum(len(r) for r in rows) < count:
        batch = rng.integers(0, mn, size=(2 * count, n), dtype=np.int64)
        distinct = np.ones(len(batch), dtype=bool)
        for a in range(n):
            for b in range(a + 1, n):
                distinct &= batch[:, a] != batch[:, b]
        batch = batch[distinct]
        packed = batch @ weights
        packed, first = np.unique(packed, return_index=True)
        keep = ~np.isin(packed, packed_seen)
        batch = batch[first[keep]]
        packed_seen = np.concatenate([packed_seen, packed[keep]])
        rows.append(batch)
    allrows = np.concatenate(rows)[:count]
    return allrows


_CHUNK_ROWS = 8192   # distance rows per chunk: a cache size, not a setting


def _greedy_pass(cand_real: np.ndarray, d_min: float, start: int,
                 max_select: int) -> list[int]:
    """One greedy selection pass: filter survivors at squared distance
    >= d_min from the last pick, then take the closest survivor.

    ``cand_real`` packs each candidate's symbols as interleaved re/im, so
    the squared Euclidean distance is a plain row dot product.

    Each step computes the distances to the last pick in chunks of
    ``_CHUNK_ROWS`` rows through one reused buffer, so no full-size
    difference matrix is formed. Filtered rows are marked dead in a mask
    and get distance inf; the active set is compacted only once fewer than
    half of its rows survive.

    The picks are exact: every row's distance is the same row-wise einsum
    over the same values as a pass that compacts every step, and masks
    keep row order, so argmin breaks ties on the same candidate.
    """
    active = cand_real
    active_idx = np.arange(len(cand_real))
    alive = np.ones(len(active), dtype=bool)
    d = np.empty(len(active))
    width = active.shape[1]
    chunk = min(_CHUNK_ROWS, len(active))
    diff = np.empty((chunk, width))
    selected = [start]
    v = cand_real[start]
    while len(selected) < max_select:
        v_tiled = np.tile(v, chunk)
        for lo in range(0, len(active), chunk):
            rows = min(chunk, len(active) - lo)
            part = diff[:rows]
            np.subtract(active[lo:lo + rows].reshape(-1), v_tiled[:rows * width],
                        out=part.reshape(-1))
            d_part = np.einsum("ij,ij->i", part, part, out=d[lo:lo + rows])
            alive[lo:lo + rows] &= d_part >= d_min
        n_alive = np.count_nonzero(alive)
        if n_alive == 0:
            break
        np.copyto(d, np.inf, where=~alive)
        pick = int(np.argmin(d))
        if d[pick] == np.inf:   # every survivor's distance overflowed
            pick = int(np.argmax(alive))
        selected.append(int(active_idx[pick]))
        v = active[pick]
        if 2 * n_alive < len(active):
            active, active_idx = active[alive], active_idx[alive]
            alive = np.ones(n_alive, dtype=bool)
            d = np.empty(n_alive)
    return selected


def build_info_codebook(m: int, n: int, p_a_uw: float,
                        cfg: GreedyConfig | None = None) -> Codebook:
    """Greedy minimum-distance codebook over the Mn-point layout; at n = 1,
    the layout itself (the search would pick all M candidates).

    Candidates are the n-permutations of the Mn base points (exhaustive when
    they fit under ``candidate_cap``, else seeded random distinct samples).
    The distance threshold starts at t^2 of the Mn-point layout and walks
    to a resolution of epsilon = 0.05*t^2 until a pass exhausts with exactly
    M picks; otherwise the largest threshold yielding >= M wins and
    the first M picks are kept. A final common rescale enforces the
    average-power equality.
    """
    if m < 1 or n < 1:
        raise ValueError("M and n must be >= 1")
    mn = m * n
    base = layout_info(mn, p_a_uw)
    if n == 1:
        # the search would pick every candidate: the design is the layout itself
        if m >= 2:
            base.achieved_dmin_sq = codebook_min_dist(base)
        return base
    cfg = cfg or GreedyConfig()
    rng = np.random.default_rng(cfg.seed)

    t_sq = base.t ** 2 if base.t else p_a_uw
    eps = 0.05 * t_sq
    if eps <= 0:   # t^2 underflowed
        raise ValueError("epsilon must be positive")
    if cfg.candidate_cap < m:
        raise ValueError("candidate_cap must be >= M")

    total_perms = math.perm(mn, n)
    if total_perms <= cfg.candidate_cap:
        cand_idx = np.array(list(itertools.permutations(range(mn), n)), dtype=np.int64)
    else:
        cand_idx = _sample_permutations(mn, n, cfg.candidate_cap, rng)
    if len(cand_idx) < m:
        raise ValueError(f"candidate set ({len(cand_idx)}) smaller than M ({m})")
    cvals = base.base_points[cand_idx]
    cand_real = np.empty((len(cand_idx), 2 * n))
    cand_real[:, 0::2] = cvals.real
    cand_real[:, 1::2] = cvals.imag

    start = int(rng.integers(len(cand_idx)))
    if m == 1:
        chosen = cand_idx[[start]]
        converged = True
    else:
        # bracket the largest threshold still yielding >= M picks by
        # exponential probing, then bisect down to resolution eps
        lo: float | None = None   # pass yields >= M here
        hi: float | None = None   # pass yields < M here
        best_d: float | None = None
        best_sel: list[int] | None = None
        d = t_sq
        for _ in range(cfg.max_rounds):
            sel = _greedy_pass(cand_real, d, start, max_select=m + 1)
            count = len(sel)
            if count >= m and (best_d is None or d > best_d):
                best_d, best_sel = d, sel[:m]
            if count == m:
                break
            if count > m:
                lo = d
                d = (d + hi) / 2.0 if hi is not None else max(2.0 * d, d + eps)
            else:
                hi = d
                d = (d + lo) / 2.0 if lo is not None else d / 2.0
            if lo is not None and hi is not None and hi - lo <= eps:
                break
        converged = best_sel is not None
        if converged:
            chosen = cand_idx[best_sel]
        else:
            # best effort at the most permissive threshold visited
            sel = _greedy_pass(cand_real, d, start, max_select=m)
            chosen = cand_idx[sel]
            warnings.warn("greedy search did not reach M codewords; "
                          f"returning {len(sel)} (max_rounds={cfg.max_rounds})")

    cb = Codebook(base_points=base.base_points.copy(), codeword_indices=chosen,
                  m=len(chosen), n=n, p_a_uw=p_a_uw, rho=0.0, converged=converged)
    # common rescale for the average-power equality over codeword symbols
    tot = float(np.sum(np.abs(cb.codewords) ** 2))
    g = math.sqrt(len(chosen) * n * p_a_uw / tot)
    cb.base_points *= g
    if cb.m >= 2:
        cb.achieved_dmin_sq = codebook_min_dist(cb)
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
    if not 0 < p_a_uw < math.inf:
        raise ValueError("P_a must be finite and positive")
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
