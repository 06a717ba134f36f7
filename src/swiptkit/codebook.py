"""Coded modulation for block length n >= 1: greedy minimum-distance codebook
construction and position-coded On-Off blocks. Both return the one design type
:class:`~swiptkit.constellation.Codebook` (JSON in the codeword format for
n > 1, the point format at n = 1), which derives their minimum distance and
rescales them to P_a; :func:`swipt_codebook` is the one deformation
:func:`~swiptkit.constellation.swipt_transform`.

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
from .constellation import (Codebook, codebook_min_dist, layout_info, m_on_count,  # noqa: F401
                            swipt_transform)

# a second name for the one deformation: perfbench/tracer.py wraps both names
swipt_codebook = swipt_transform


@dataclass
class GreedyConfig:
    """Knobs for the greedy search: the candidate count it draws from and the
    seed of that draw."""

    candidate_cap: int = 1_000_000
    seed: int = 0


def _sample_permutations(mn: int, n: int, count: int, rng) -> np.ndarray:
    """``count`` distinct ordered n-permutations of range(mn), seeded, in the
    order they were first drawn (a uniform sample, not the smallest rows)."""
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
        batch = batch[np.sort(first[keep])]
        packed_seen = np.concatenate([packed_seen, packed[keep]])
        rows.append(batch)
    return np.concatenate(rows)[:count]


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
    The distance threshold is bisected down to epsilon = 0.05*t^2 inside
    [lo, hi] = [t^2/2, 2*M*E_max/(M - 1)], with E_max = n*max|base point|^2:
    layout points lie at least t apart, so distinct candidates differ by at
    least t^2 and a pass at lo drops none; and M codewords pairwise at least
    d apart have d*M(M - 1)/2 <= sum_{i<j} |c_i - c_j|^2 <= M^2*E_max, so no
    pass above hi picks M. A probe that picks exactly M ends the search;
    otherwise the first M picks of the largest probe yielding >= M win, or,
    if none does, those of one pass at lo. That is at most
    ceil(log2((hi - lo)/epsilon)) + 1 passes, and always M codewords.
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

    if math.perm(mn, n) <= cfg.candidate_cap:
        cand_idx = np.array(list(itertools.permutations(range(mn), n)), dtype=np.int64)
    else:
        cand_idx = _sample_permutations(mn, n, cfg.candidate_cap, rng)
    # each candidate's symbols as interleaved re/im (a fresh C-contiguous array)
    cand_real = base.base_points[cand_idx].view(float)

    start = int(rng.integers(len(cand_idx)))
    sel = [start]
    if m > 1:
        sel = []
        lo = t_sq / 2.0
        r_max = float(np.max(np.abs(base.base_points)))
        # capped: an overflowed bound would make every midpoint inf
        hi = min(2.0 * m * n * r_max * r_max / (m - 1), np.finfo(float).max)
        while hi - lo > eps:
            d = lo + (hi - lo) / 2.0
            probe = _greedy_pass(cand_real, d, start, max_select=m + 1)
            if len(probe) < m:
                hi = d
                continue
            lo, sel = d, probe[:m]
            if len(probe) == m:
                break
        sel = sel or _greedy_pass(cand_real, lo, start, max_select=m)

    cb = Codebook(base_points=base.base_points.copy(), codeword_indices=cand_idx[sel],
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
