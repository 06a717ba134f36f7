"""Coded modulation for block length n > 1: greedy minimum-distance codebook
construction, its On-Off deformation, and position-coded On-Off blocks.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constellation import layout_info, transform_points


@dataclass
class GreedyConfig:
    """Knobs for the greedy search. ``dmin_init`` and ``epsilon`` default to
    t^2 and 0.05*t^2 of the underlying Mn-point layout when left None.
    """

    dmin_init: float | None = None
    epsilon: float | None = None
    max_rounds: int = 40
    candidate_cap: int = 1_000_000
    seed: int = 0


@dataclass
class Codebook:
    """M codewords of n complex symbols drawn from an Mn-point base
    constellation; codewords are index tuples into ``base_points`` so a base
    point that moves under the SWIPT deformation moves consistently in every
    codeword referencing it.
    """

    base_points: np.ndarray        # (M*n,) complex
    codeword_indices: np.ndarray   # (M, n) int
    m: int
    n: int
    p_a_uw: float
    rho: float | str = 0.0
    achieved_dmin_sq: float = math.inf
    converged: bool = True

    @property
    def codewords(self) -> np.ndarray:
        return self.base_points[self.codeword_indices]

    def avg_power(self) -> float:
        return float(np.mean(np.abs(self.codewords) ** 2))

    def to_json(self) -> dict:
        rho = self.rho if isinstance(self.rho, str) else float(self.rho)
        cw = self.codewords
        return {
            "m": self.m,
            "n": self.n,
            "p_a_uw": self.p_a_uw,
            "rho": rho,
            "dmin_sq": None if math.isinf(self.achieved_dmin_sq) else self.achieved_dmin_sq,
            "converged": self.converged,
            "base_points": [[float(p.real), float(p.imag)] for p in self.base_points],
            "codewords": [
                {
                    "indices": [int(i) for i in row],
                    "symbols": [[float(s.real), float(s.imag)] for s in cw[k]],
                }
                for k, row in enumerate(self.codeword_indices)
            ],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Codebook":
        base = np.array([complex(re, im) for re, im in d["base_points"]])
        idx = np.array([cw["indices"] for cw in d["codewords"]], dtype=int)
        dmin = d.get("dmin_sq")
        return cls(base_points=base, codeword_indices=idx, m=int(d["m"]),
                   n=int(d["n"]), p_a_uw=float(d["p_a_uw"]), rho=d["rho"],
                   achieved_dmin_sq=math.inf if dmin is None else float(dmin),
                   converged=bool(d.get("converged", True)))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1) + "\n")

    @classmethod
    def load(cls, path) -> "Codebook":
        return cls.from_json(json.loads(Path(path).read_text()))


def codebook_min_dist(cb: Codebook) -> float:
    """Exact minimum squared Euclidean distance over all codeword pairs."""
    if cb.m < 2:
        raise ValueError("need at least two codewords")
    cw = cb.codewords
    d = np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2)
    iu = np.triu_indices(cb.m, k=1)
    return float(d[iu].min())


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
    """Greedy minimum-distance codebook over the Mn-point layout.

    Candidates are the n-permutations of the Mn base points (exhaustive when
    they fit under ``candidate_cap``, else seeded random distinct samples).
    The distance threshold walks by +-epsilon until a pass exhausts with
    exactly M picks; otherwise the largest threshold yielding >= M wins and
    the first M picks are kept. A final common rescale enforces the
    average-power equality.
    """
    if m < 1 or n < 1:
        raise ValueError("M and n must be >= 1")
    cfg = cfg or GreedyConfig()
    rng = np.random.default_rng(cfg.seed)

    mn = m * n
    base = layout_info(mn, p_a_uw)
    t_sq = base.t ** 2 if base.t else p_a_uw
    d_init = cfg.dmin_init if cfg.dmin_init is not None else t_sq
    eps = cfg.epsilon if cfg.epsilon is not None else 0.05 * t_sq
    if eps <= 0:
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
    cvals = base.points[cand_idx]
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
        d = d_init
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

    cb = Codebook(base_points=base.points.copy(), codeword_indices=np.asarray(chosen),
                  m=len(chosen), n=n, p_a_uw=p_a_uw, rho=0.0, converged=converged)
    # common rescale for the average-power equality over codeword symbols
    tot = float(np.sum(np.abs(cb.codewords) ** 2))
    g = math.sqrt(len(chosen) * n * p_a_uw / tot)
    cb.base_points *= g
    if cb.m >= 2:
        cb.achieved_dmin_sq = codebook_min_dist(cb)
    return cb


def swipt_codebook(cb: Codebook, rho: float, p_star: float) -> Codebook:
    """On-Off deformation of a codebook through its base points.

    The Mn base points transform exactly like a constellation (target
    modulus sqrt(Mn*P_a/M_on^c)); perturbed points propagate into every
    codeword referencing them, and a final common rescale keeps the
    average-power equality over the M*n codeword symbols. Equal-modulus
    ties prefer base points the codebook actually references.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must be in [0, 1]")
    if cb.rho != 0.0:
        raise ValueError("codebook must be built at rho = 0")
    mn = cb.base_points.size
    m_on_c = int(np.argmin(np.abs(p_star - np.arange(1, mn + 1) / mn))) + 1

    # equal-modulus ties: singly-referenced points first (exact On-Off
    # bookkeeping), then low multiplicity; unreferenced points would make the
    # rho=1 codebook deliver nothing, so they go last
    refcount = np.bincount(cb.codeword_indices.ravel(), minlength=mn)
    tie_rank = np.where(refcount == 0, float(mn), np.abs(refcount - 1.0))
    new_base, _ = transform_points(cb.base_points, rho, m_on_c, cb.p_a_uw,
                                   tie_rank=tie_rank)
    out = Codebook(base_points=new_base, codeword_indices=cb.codeword_indices.copy(),
                   m=cb.m, n=cb.n, p_a_uw=cb.p_a_uw, rho=float(rho),
                   converged=cb.converged)
    if rho == 0.0:
        out.achieved_dmin_sq = cb.achieved_dmin_sq
        return out
    tot = float(np.sum(np.abs(out.codewords) ** 2))
    if tot == 0.0:
        raise ValueError("transform collapsed every referenced base point")
    out.base_points *= math.sqrt(cb.m * cb.n * cb.p_a_uw / tot)
    out.achieved_dmin_sq = codebook_min_dist(out) if out.m >= 2 else math.inf
    return out


# ---------------------------------------------------------------------------
# On-Off position block codes
# ---------------------------------------------------------------------------

@dataclass
class OnOffBlockCode:
    """Block code whose codewords place N_on symbols of amplitude r_on on
    distinct position sets (0-based) of a length-n block, the rest zero.
    """

    n: int
    n_on: int
    r_on: float
    m: int
    support_sets: tuple[tuple[int, ...], ...]
    p_a_uw: float

    def codewords(self) -> np.ndarray:
        cw = np.zeros((self.m, self.n), dtype=complex)
        for k, sup in enumerate(self.support_sets):
            cw[k, list(sup)] = self.r_on
        return cw

    def avg_power(self) -> float:
        return self.n_on * self.r_on ** 2 / self.n


def onoff_block_code(n: int, p_a_uw: float, p_star: float,
                     m_req: int) -> OnOffBlockCode:
    """Build the position code: N_on best matches p_star among {1..n}/n,
    r_on carries the whole block power, and the first m_req supports are
    taken in colexicographic order.

    The all-on support is a single set and carries one message, so for
    m_req >= 2 (and n >= 2) N_on = n is excluded and the match runs over
    {1..n-1}/n. ValueError ("exceeds") is raised when the matched N_on has
    fewer than m_req supports, which includes n = 1 with m_req >= 2.
    """
    if n < 1 or m_req < 1:
        raise ValueError("n and m_req must be >= 1")
    if not p_a_uw > 0:
        raise ValueError("P_a must be positive")
    cand = np.arange(1, n if m_req >= 2 and n >= 2 else n + 1)
    n_on = int(cand[np.argmin(np.abs(p_star - cand / n))])
    bound = math.comb(n, n_on)
    if m_req > bound:
        raise ValueError(f"m_req={m_req} exceeds C({n},{n_on})={bound}")
    supports = sorted(itertools.combinations(range(n), n_on),
                      key=lambda c: c[::-1])[:m_req]
    r_on = math.sqrt(n * p_a_uw / n_on)
    return OnOffBlockCode(n=n, n_on=n_on, r_on=r_on, m=m_req,
                          support_sets=tuple(supports), p_a_uw=p_a_uw)


def decode_onoff_block_many(ys: np.ndarray, code: OnOffBlockCode) -> np.ndarray:
    """Per row of ``ys`` (B, n), the message index with maximal received
    energy on its support set.

    Subsumes exact position matching: a noiseless codeword's own support is
    the unique energy maximizer; ties (e.g. all-zero input) go to the
    smallest index.
    """
    e = np.abs(np.asarray(ys, dtype=complex)) ** 2
    sup = np.array([list(s) for s in code.support_sets])   # (M, n_on)
    overlap = e[:, sup].sum(axis=2)                        # (B, M)
    return np.argmax(overlap, axis=1)
