"""The one design type and its one deformation toward On-Off signalling.

Every design, algorithmic or learned, is a :class:`Codebook`: M codewords of
n complex symbols at average power P_a, each an index tuple into a set of
base points; the type checks P_a and that its points are finite, derives
the minimum distance and holds the one rescale to P_a. The concentric-circle
information constellation (:func:`layout_info`) is its block-length-1 case;
greedy codebooks and On-Off position codes (``codebook``) and QAM references
(``channel``) are built as the same type, and saved in one of two JSON
formats: the point format at n = 1, the codeword format otherwise, by the
one JSON writer (:func:`write_json`) that every JSON artifact goes through;
every CSV artifact goes through the one CSV writer (:func:`write_csv`).
:func:`swipt_transform` is the whole deformation of any rho = 0 design: it
picks the On set among the base points, moves it along amplitude/phase
interpolants, rescales the rest, and restores P_a over the codeword symbols
unless every base point is referenced exactly once, where a rescale could
only add rounding.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# guards the exact-boundary case (m=1 lands on 5.999...) without touching
# the interior values
_FLOOR_EPS = 1e-9


def check_pa(p_a_uw: float) -> None:
    """The one P_a rule of every design, link and On-Off analysis: ValueError
    unless P_a is finite and positive."""
    if not 0 < p_a_uw < math.inf:
        raise ValueError("P_a must be finite and positive")


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
        check_pa(self.p_a_uw)
        if not np.all(np.isfinite(self.base_points)):
            raise ValueError("base points must be finite")
        with np.errstate(over="ignore"):
            power = float(np.sum(np.abs(self.codewords) ** 2))
        if not math.isfinite(power):
            raise ValueError("base points too large: the codeword power overflows")

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

    @classmethod
    def load(cls, path) -> "Codebook":
        return cls.from_json(json.loads(Path(path).read_text()))


def json_field(d, key: str, parse):
    """``parse(d[key])`` of a JSON object read from a file, with a
    ValueError naming ``key`` when the object, the field or its value is
    malformed.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"missing field {key!r}")
    try:
        return parse(d[key])
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise ValueError(f"bad field {key!r}: {err}") from None


def write_json(path, payload: dict) -> None:
    """The one JSON artifact format: one-space indent, no NaN or inf, and a
    trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")


def write_csv(path, header: list[str], rows, comment: str | None = None) -> None:
    """The one CSV artifact format: a ``# comment`` line when given, the
    header, then the rows, each line ending in a bare newline."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


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
    check_pa(p_a_uw)
    if m == 1:
        t = math.sqrt(p_a_uw)
        return Codebook(base_points=np.array([complex(t)]), codeword_indices=[[0]],
                        m=1, n=1, p_a_uw=p_a_uw, rho=0.0, c=1, t=t)

    if not math.isfinite(m * p_a_uw):
        raise ValueError(f"P_a {p_a_uw!r} is too large: the total power "
                         f"{m}·P_a of a {m}-point layout overflows")
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


def swipt_transform(design: Codebook, rho: float, p_star: float) -> Codebook:
    """Deform a rho = 0 design toward the On-Off extreme through its base points.

    The On set is m_on = m_on_count(M*n, p_star) of the B base points: the
    largest moduli, with equal-modulus ties to singly-referenced points (exact
    On-Off bookkeeping), then low multiplicity, unreferenced points last (the
    rho = 1 design would deliver nothing through them), then phase, then
    index. In phase order, it moves along amplitude/phase interpolants toward
    equally spaced phases on the radius-sqrt(B*P_a/m_on) circle, and every
    codeword referencing a moved point moves with it. The other base points
    rescale by the common factor restoring B*P_a, exactly 0 at rho = 1; when
    they carry no power, a global rescale restores it instead.

    When every base point is referenced exactly once (a ring layout), the
    codeword symbols are the base points and hold P_a already: a rescale
    could only add rounding. Otherwise :meth:`Codebook.scale_to_power`
    restores P_a over the M*n codeword symbols. At rho = 0 the base points
    are returned unchanged; a ring at rho = 1 has exactly m_on points equally
    phased on the radius-sqrt(M*P_a/m_on) circle and the rest at the origin.
    """
    if design.rho != 0.0:
        raise ValueError("base design must have rho = 0")
    if not 0.0 <= rho <= 1.0:   # also NaN
        raise ValueError("rho must be in [0, 1]")
    m, n, n_base = design.m, design.n, design.base_points.size
    m_on = m_on_count(m * n, p_star)
    pts = design.base_points.copy()
    refcount = np.bincount(design.codeword_indices.ravel(), minlength=n_base)
    tie_rank = np.where(refcount == 0, float(n_base), np.abs(refcount - 1.0))
    mod, ph = np.abs(pts), np.mod(np.angle(pts), 2.0 * math.pi)
    order = sorted(range(n_base), key=lambda i: (-mod[i], tie_rank[i], ph[i], i))
    on_idx = np.array(sorted(order[:m_on], key=lambda i: (ph[i], i)), dtype=int)
    if rho != 0.0:   # at rho = 0 every shift vanishes and the off rescale is 1
        total = n_base * design.p_a_uw
        on_mod = np.abs(pts[on_idx])
        on_ph = np.mod(np.angle(pts[on_idx]), 2.0 * math.pi)
        target_ph = 2.0 * math.pi * np.arange(m_on) / m_on
        # interpolated form of |c|+alpha and angle(c)+beta; exact at both endpoints
        new_mod = (1.0 - rho) * on_mod + rho * math.sqrt(total / m_on)
        new_ph = (1.0 - rho) * on_ph + rho * target_ph
        pts[on_idx] = new_mod * np.exp(1j * new_ph)

        off_mask = np.ones(n_base, dtype=bool)
        off_mask[on_idx] = False
        on_power = float(np.sum(np.abs(pts[on_idx]) ** 2))
        off_power = float(np.sum(np.abs(pts[off_mask]) ** 2))
        if off_power > 0.0:
            s = 0.0 if rho == 1.0 else math.sqrt(max(0.0, total - on_power) / off_power)
            pts[off_mask] *= s
        elif on_power > 0.0:
            pts *= math.sqrt(total / on_power)
    out = Codebook(base_points=pts, codeword_indices=design.codeword_indices.copy(), m=m, n=n,
                   p_a_uw=design.p_a_uw, rho=float(rho), c=design.c, t=design.t, m_on=m_on,
                   on_indices=[int(i) for i in on_idx])
    if rho != 0.0 and np.any(refcount != 1):
        out.scale_to_power()
    return out
