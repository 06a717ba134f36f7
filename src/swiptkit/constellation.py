"""The one design type and its one deformation toward On-Off signalling.

Every design, algorithmic or learned, is a :class:`Codebook`: M codewords of
n complex symbols at average power P_a, each an index tuple into a set of
base points; the type checks P_a, derives the minimum distance and holds the
one rescale to P_a. The concentric-circle information constellation
(:func:`layout_info`) is its block-length-1 case; greedy codebooks and On-Off
position codes (``codebook``) and QAM references (``channel``) are built as
the same type, and saved in one of two JSON formats: the point format at
n = 1, the codeword format otherwise. :func:`swipt_transform` deforms the base
points of any rho = 0 design; its final rescale is skipped when every base
point is referenced exactly once, where it could only add rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# guards the exact-boundary case (m=1 lands on 5.999...) without touching
# the interior values
_FLOOR_EPS = 1e-9


def circle_capacity(m: int) -> int:
    """Maximum number of points with pairwise distance >= t on the circle of
    radius m*t; the zero-radius circle holds a single point by convention.
    """
    if m < 0:
        raise ValueError("circle index must be >= 0")
    if m == 0:
        return 1
    return math.floor(math.pi / math.asin(1.0 / (2.0 * m)) + _FLOOR_EPS)


@dataclass
class Codebook:
    """M codewords of n complex symbols (sqrt(uW)) under average power P_a
    with uniform message probabilities: the one design type.

    Codeword k sends ``base_points[codeword_indices[k]]``, so a base point that
    moves under the SWIPT deformation moves consistently in every codeword
    referencing it. A ring layout (:func:`layout_info`) is the n = 1 case with
    one base point per message (indices ``arange(M)[:, None]``) and carries
    its ring metadata ``c``, ``t``; ``m_on`` and ``on_indices`` (base-point
    indices) record a deformation. ``rho`` is 0 for an information design,
    1 at the On-Off extreme, or the sentinel string "learned" for extracted
    autoencoder designs. ``achieved_dmin_sq`` is the minimum squared codeword
    distance, derived on each read (inf at M = 1).

    JSON has two formats: at n = 1 the point format (``points`` in message
    order, plus the ring metadata under ``meta``), otherwise the codeword
    format (``base_points``, and ``indices`` and ``symbols`` per codeword).
    Both load, and an n = 1 file in the codeword format loads to the same
    codewords; a ``dmin_sq`` read from a file is ignored, since it is derived,
    and so is the ``converged`` key that older files carry.
    """

    base_points: np.ndarray        # (B,) complex
    codeword_indices: np.ndarray   # (M, n) int
    m: int
    n: int
    p_a_uw: float
    rho: float | str = 0.0
    c: int | None = None
    t: float | None = None
    m_on: int | None = None
    on_indices: list[int] | None = None

    def __post_init__(self):
        self.base_points = np.asarray(self.base_points, dtype=complex).reshape(-1)
        idx = self.codeword_indices = np.asarray(self.codeword_indices, dtype=np.intp)
        if self.m < 1 or self.n < 1 or idx.shape != (self.m, self.n):
            raise ValueError(f"codewords: need M = {self.m} index tuples of length "
                             f"n = {self.n}, got shape {idx.shape}")
        if idx.min() < 0 or idx.max() >= self.base_points.size:
            raise ValueError(f"codewords: index outside the {self.base_points.size} "
                             "base points")
        if not 0 < self.p_a_uw < math.inf:
            raise ValueError("P_a must be finite and positive")

    @property
    def codewords(self) -> np.ndarray:
        return self.base_points[self.codeword_indices]

    @property
    def achieved_dmin_sq(self) -> float:
        return codebook_min_dist(self) if self.m >= 2 else math.inf

    def avg_power(self) -> float:
        return float(np.mean(np.abs(self.codewords) ** 2))

    def scale_to_power(self) -> None:
        """Rescale the base points in place by one common factor so the M*n
        codeword symbols average P_a; ValueError when they carry no power, or
        more than a float holds."""
        tot = float(np.sum(np.abs(self.codewords) ** 2))
        if not 0.0 < tot < math.inf:
            raise ValueError("codeword power is zero or overflows: no rescale reaches P_a")
        self.base_points *= math.sqrt(self.m * self.n * self.p_a_uw / tot)

    def to_json(self) -> dict:
        rho = self.rho if isinstance(self.rho, str) else float(self.rho)
        cw = self.codewords
        if self.n == 1:
            return {
                "m": self.m,
                "p_a_uw": self.p_a_uw,
                "rho": rho,
                "points": [[float(p.real), float(p.imag)] for p in cw[:, 0]],
                "meta": {
                    "c": self.c,
                    "t": self.t,
                    "m_on": self.m_on,
                    "on_indices": self.on_indices,
                },
            }
        dmin = self.achieved_dmin_sq
        return {
            "m": self.m,
            "n": self.n,
            "p_a_uw": self.p_a_uw,
            "rho": rho,
            "dmin_sq": None if math.isinf(dmin) else dmin,
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
        """Read either format; ValueError names a missing or malformed field."""
        points = lambda v: np.array([complex(re, im) for re, im in v], dtype=complex)
        if isinstance(d, dict) and "codewords" in d:
            base = json_field(d, "base_points", points)
            idx = json_field(d, "codewords",
                             lambda v: np.array([cw["indices"] for cw in v], dtype=int))
            n = json_field(d, "n", int)
        else:
            base = json_field(d, "points", points)
            idx, n = np.arange(base.size)[:, None], 1
        meta = json_field(d, "meta", dict) if "meta" in d else {}
        return cls(base_points=base, codeword_indices=idx, m=json_field(d, "m", int), n=n,
                   p_a_uw=json_field(d, "p_a_uw", float),
                   rho=json_field(d, "rho", lambda r: r if isinstance(r, str) else float(r)),
                   c=meta.get("c"), t=meta.get("t"), m_on=meta.get("m_on"),
                   on_indices=meta.get("on_indices"))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1, allow_nan=False) + "\n")

    @classmethod
    def load(cls, path) -> "Codebook":
        return cls.from_json(json.loads(Path(path).read_text()))


def json_field(d, key: str, parse=None):
    """``parse(d[key])`` (or ``d[key]``) of a JSON object read from a file,
    with a ValueError naming ``key`` when the object, the field or its value
    is malformed.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"missing field {key!r}")
    try:
        return d[key] if parse is None else parse(d[key])
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise ValueError(f"bad field {key!r}: {err}") from None


_DIST_BLOCK = 1 << 20   # codeword-pair symbols per distance block: bounds memory


def codebook_min_dist(cb: Codebook) -> float:
    """Exact minimum squared Euclidean distance over all codeword pairs,
    computed in row blocks so memory stays bounded at large M."""
    if cb.m < 2:
        raise ValueError("need at least two codewords")
    cw = cb.codewords
    rows = max(1, _DIST_BLOCK // (cb.m * cb.n))
    best = math.inf
    for lo in range(0, cb.m - 1, rows):
        block = cw[lo:lo + rows]
        d = np.sum(np.abs(block[:, None, :] - cw[None, lo:, :]) ** 2, axis=2)
        best = min(best, float(d[np.triu_indices(len(block), 1, cb.m - lo)].min()))
    return best


def _circle_counts(m_total: int) -> list[int]:
    """Points per circle: fill circles 0..C-1 to capacity, remainder on C."""
    counts = []
    remaining = m_total
    idx = 0
    while remaining > 0:
        cap = circle_capacity(idx)
        counts.append(min(cap, remaining))
        remaining -= counts[-1]
        idx += 1
    return counts


def layout_info(m: int, p_a_uw: float) -> Codebook:
    """Arrange M points on concentric circles with radii {0, t, 2t, ...} so the
    average power equals P_a exactly; circles alternate a half-slot phase
    stagger to help inter-circle spacing. The design is the n = 1 codebook
    sending point k for message k. A single point sits on the first circle,
    t = sqrt(P_a), since at the origin it would carry no power.
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    if not 0 < p_a_uw < math.inf:
        raise ValueError("P_a must be finite and positive")
    if m == 1:
        t = math.sqrt(p_a_uw)
        return Codebook(base_points=np.array([complex(t)]), codeword_indices=[[0]],
                        m=1, n=1, p_a_uw=p_a_uw, rho=0.0, c=1, t=t)

    counts = _circle_counts(m)
    c = len(counts) - 1
    denom = sum(k * (ring * ring) for ring, k in enumerate(counts))
    t = math.sqrt(m * p_a_uw / denom)

    pts = []
    for ring, k in enumerate(counts):
        if ring == 0:
            pts.append(0j)
            continue
        phi0 = 0.0 if ring % 2 == 0 else math.pi / k
        ang = phi0 + 2.0 * math.pi * np.arange(k) / k
        pts.extend(ring * t * np.exp(1j * ang))
    return Codebook(base_points=np.array(pts), codeword_indices=np.arange(m)[:, None],
                    m=m, n=1, p_a_uw=p_a_uw, rho=0.0, c=c, t=t)


def m_on_count(m: int, p_star: float) -> int:
    """Number of points to migrate outward: the count in {1..M} whose
    fraction m/M best matches the target On probability (ties to smaller).
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    if not (0.0 < p_star <= 1.0):
        raise ValueError("p_star must be in (0, 1]")
    cand = np.arange(1, m + 1)
    return int(cand[np.argmin(np.abs(p_star - cand / m))])


def _phase_02pi(pts: np.ndarray) -> np.ndarray:
    return np.mod(np.angle(pts), 2.0 * math.pi)


def select_on_points(points: np.ndarray, m_on: int,
                     tie_rank: np.ndarray | None = None) -> np.ndarray:
    """Indices of the m_on largest-modulus points, ordered by ascending phase.

    Modulus ties break by ``tie_rank`` (smaller first) when given, then by
    ascending phase, then by index; the returned on-set is phase-sorted so it
    can be matched one-to-one with the equally spaced target phases.
    """
    mod = np.abs(points)
    ph = _phase_02pi(points)
    n = points.size
    rank = np.zeros(n) if tie_rank is None else np.asarray(tie_rank, dtype=float)
    order = sorted(range(n), key=lambda i: (-mod[i], rank[i], ph[i], i))
    chosen = order[:m_on]
    chosen.sort(key=lambda i: (ph[i], i))
    return np.array(chosen, dtype=int)


def transform_points(points: np.ndarray, rho: float, m_on: int,
                     p_a_uw: float, tie_rank: np.ndarray | None = None):
    """On-Off deformation of a point set at average power P_a.

    The m_on selected points move along amplitude/phase interpolants toward
    the circle of radius sqrt(M*P_a/m_on) with equally spaced phases; the
    rest rescale by the common factor restoring the average-power equality.
    When the off points carry no power (or none exist) a global rescale
    enforces the equality instead; that factor is exactly 1 at rho in {0,1}.

    Returns (new_points, on_indices).
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must be in [0, 1]")
    pts = np.asarray(points, dtype=complex).copy()
    m = pts.size
    total = m * p_a_uw
    r_target = math.sqrt(total / m_on)

    on_idx = select_on_points(pts, m_on, tie_rank)
    if rho == 0.0:
        # amplitude and phase shifts vanish and the off rescale is exactly 1
        return pts, on_idx
    mod = np.abs(pts[on_idx])
    ph = _phase_02pi(pts[on_idx])
    target_ph = 2.0 * math.pi * np.arange(m_on) / m_on
    # interpolated form of |c|+alpha and angle(c)+beta; exact at both endpoints
    new_mod = (1.0 - rho) * mod + rho * r_target
    new_ph = (1.0 - rho) * ph + rho * target_ph
    pts[on_idx] = new_mod * np.exp(1j * new_ph)

    off_mask = np.ones(m, dtype=bool)
    off_mask[on_idx] = False
    on_power = float(np.sum(np.abs(pts[on_idx]) ** 2))
    off_power = float(np.sum(np.abs(pts[off_mask]) ** 2))
    if off_power > 0.0:
        # s vanishes exactly at the On-Off endpoint
        s = 0.0 if rho == 1.0 else math.sqrt(max(0.0, total - on_power) / off_power)
        pts[off_mask] *= s
    elif on_power > 0.0:
        pts *= math.sqrt(total / on_power)
    return pts, on_idx


def swipt_transform(design: Codebook, rho: float, p_star: float) -> Codebook:
    """Deform a rho = 0 design toward the On-Off extreme through its base points.

    m_on = m_on_count(M*n, p_star) base points move as in
    :func:`transform_points` (target modulus sqrt(B*P_a/m_on) over B base
    points), and every codeword referencing a moved point moves with it.
    Equal-modulus ties prefer singly-referenced base points (exact On-Off
    bookkeeping), then low multiplicity; unreferenced points go last, since
    the rho = 1 design would deliver nothing through them.

    When every base point is referenced exactly once (a ring layout), the
    codeword symbols are the base points and ``transform_points`` already
    holds the average power: nothing more is done, since a rescale could only
    add rounding. Otherwise :meth:`Codebook.scale_to_power` restores the
    average power over the M*n codeword symbols. At rho = 0 the base points
    are returned unchanged; a ring at rho = 1 has exactly m_on points equally
    phased on the radius-sqrt(M*P_a/m_on) circle and the rest at the origin.
    """
    if design.rho != 0.0:
        raise ValueError("base design must have rho = 0")
    m, n, n_base = design.m, design.n, design.base_points.size
    m_on = m_on_count(m * n, p_star)
    refcount = np.bincount(design.codeword_indices.ravel(), minlength=n_base)
    tie_rank = np.where(refcount == 0, float(n_base), np.abs(refcount - 1.0))
    pts, on_idx = transform_points(design.base_points, rho, m_on, design.p_a_uw, tie_rank)
    out = Codebook(base_points=pts, codeword_indices=design.codeword_indices.copy(), m=m, n=n,
                   p_a_uw=design.p_a_uw, rho=float(rho), c=design.c, t=design.t, m_on=m_on,
                   on_indices=[int(i) for i in on_idx])
    if rho != 0.0 and np.any(refcount != 1):
        out.scale_to_power()
    return out
