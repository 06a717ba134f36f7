"""The one design type against reference copies of the paths it replaced.

Ring constellations, greedy codebooks and On-Off block codes were three
classes with two On-Off deformations over a shared points-level layer. The
copies below are those former paths: ``Constellation.to_json``, the n = 1
``swipt_transform``, ``swipt_codebook``, the points-level
``transform_points`` and ``select_on_points`` they both called, and the
codeword-format ``Codebook.to_json``. The one
:class:`swiptkit.Codebook` and its one deformation must write the same JSON,
byte for byte.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptkit as sk


def _phase_02pi(pts: np.ndarray) -> np.ndarray:
    return np.mod(np.angle(pts), 2.0 * math.pi)


def _select_on_points(points: np.ndarray, m_on: int,
                      tie_rank: np.ndarray | None = None) -> np.ndarray:
    """Former ``constellation.select_on_points``."""
    mod = np.abs(points)
    ph = _phase_02pi(points)
    n = points.size
    rank = np.zeros(n) if tie_rank is None else np.asarray(tie_rank, dtype=float)
    order = sorted(range(n), key=lambda i: (-mod[i], rank[i], ph[i], i))
    chosen = order[:m_on]
    chosen.sort(key=lambda i: (ph[i], i))
    return np.array(chosen, dtype=int)


def _transform_points(points: np.ndarray, rho: float, m_on: int,
                      p_a_uw: float, tie_rank: np.ndarray | None = None):
    """Former ``constellation.transform_points``: (new_points, on_indices)."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must be in [0, 1]")
    pts = np.asarray(points, dtype=complex).copy()
    m = pts.size
    total = m * p_a_uw
    r_target = math.sqrt(total / m_on)

    on_idx = _select_on_points(pts, m_on, tie_rank)
    if rho == 0.0:
        return pts, on_idx
    mod = np.abs(pts[on_idx])
    ph = _phase_02pi(pts[on_idx])
    target_ph = 2.0 * math.pi * np.arange(m_on) / m_on
    new_mod = (1.0 - rho) * mod + rho * r_target
    new_ph = (1.0 - rho) * ph + rho * target_ph
    pts[on_idx] = new_mod * np.exp(1j * new_ph)

    off_mask = np.ones(m, dtype=bool)
    off_mask[on_idx] = False
    on_power = float(np.sum(np.abs(pts[on_idx]) ** 2))
    off_power = float(np.sum(np.abs(pts[off_mask]) ** 2))
    if off_power > 0.0:
        s = 0.0 if rho == 1.0 else math.sqrt(max(0.0, total - on_power) / off_power)
        pts[off_mask] *= s
    elif on_power > 0.0:
        pts *= math.sqrt(total / on_power)
    return pts, on_idx


def _dump(d: dict) -> str:
    return json.dumps(d, indent=1)


def _min_dist_reference(cw: np.ndarray) -> float:
    d = np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2)
    return float(d[np.triu_indices(len(cw), k=1)].min())


def _points_json_reference(points, m, p_a_uw, rho, c=None, t=None, m_on=None,
                           on_indices=None) -> dict:
    """Former ``Constellation.to_json``."""
    return {"m": m, "p_a_uw": p_a_uw, "rho": rho if isinstance(rho, str) else float(rho),
            "points": [[float(p.real), float(p.imag)] for p in points],
            "meta": {"c": c, "t": t, "m_on": m_on, "on_indices": on_indices}}


def _codewords_json_reference(base_points, indices, m, n, p_a_uw, rho,
                              dmin_sq=math.inf) -> dict:
    """Former ``Codebook.to_json``."""
    cw = base_points[indices]
    return {"m": m, "n": n, "p_a_uw": p_a_uw,
            "rho": rho if isinstance(rho, str) else float(rho),
            "dmin_sq": None if math.isinf(dmin_sq) else dmin_sq,
            "base_points": [[float(p.real), float(p.imag)] for p in base_points],
            "codewords": [{"indices": [int(i) for i in row],
                           "symbols": [[float(s.real), float(s.imag)] for s in cw[k]]}
                          for k, row in enumerate(indices)]}


def _swipt_transform_reference(ring, rho: float, p_star: float) -> dict:
    """Former n = 1 ``swipt_transform``: m_on from M, no tie rank, no final
    rescale."""
    m_on = sk.m_on_count(ring.m, p_star)
    pts, on_idx = _transform_points(ring.base_points, rho, m_on, ring.p_a_uw)
    return _points_json_reference(pts, ring.m, ring.p_a_uw, rho, ring.c, ring.t, m_on,
                                  [int(i) for i in on_idx])


def _swipt_codebook_reference(cb, rho: float, p_star: float) -> dict:
    """Former ``swipt_codebook``: m_on inline, tie rank from reference
    counts, and a final common rescale over the codeword symbols."""
    mn = cb.base_points.size
    m_on_c = int(np.argmin(np.abs(p_star - np.arange(1, mn + 1) / mn))) + 1
    refcount = np.bincount(cb.codeword_indices.ravel(), minlength=mn)
    tie_rank = np.where(refcount == 0, float(mn), np.abs(refcount - 1.0))
    base, _ = _transform_points(cb.base_points, rho, m_on_c, cb.p_a_uw, tie_rank=tie_rank)
    dmin = cb.achieved_dmin_sq
    if rho != 0.0:
        tot = float(np.sum(np.abs(base[cb.codeword_indices]) ** 2))
        base *= math.sqrt(cb.m * cb.n * cb.p_a_uw / tot)
        dmin = _min_dist_reference(base[cb.codeword_indices]) if cb.m >= 2 else math.inf
    return _codewords_json_reference(base, cb.codeword_indices, cb.m, cb.n, cb.p_a_uw, rho,
                                     dmin)


@settings(max_examples=300)
@given(m=st.integers(1, 64), pa=st.sampled_from([0.37, 5.0, 40.0, 100.0]),
       p_star=st.sampled_from([0.01, 0.05, 0.3, 0.5, 1.0]),
       rho=st.sampled_from([float(r) for r in np.linspace(0.0, 1.0, 11)]))
def test_ring_is_the_former_constellation(m, pa, p_star, rho):
    ring = sk.layout_info(m, pa)
    assert _dump(ring.to_json()) == _dump(
        _points_json_reference(ring.base_points, m, pa, 0.0, ring.c, ring.t))
    assert _dump(sk.build_info_codebook(m, 1, pa).to_json()) == _dump(ring.to_json())
    assert _dump(sk.swipt_transform(ring, rho, p_star).to_json()) == _dump(
        _swipt_transform_reference(ring, rho, p_star))


@pytest.fixture(scope="module")
def greedy_cases():
    """The greedy builds of criteria 10 and 11."""
    cases = [(4, 1, sk.GreedyConfig(seed=1)), (16, 2, sk.GreedyConfig(seed=1)),
             (64, 3, sk.GreedyConfig(seed=2, candidate_cap=200_000))]
    return [sk.build_info_codebook(m, n, 5.0, cfg) for m, n, cfg in cases]


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_greedy_deformation_is_the_former_path(greedy_cases, rho):
    p_star = sk.pon_approx(5.0)
    for cb in greedy_cases:
        want = (_swipt_transform_reference(cb, rho, p_star) if cb.n == 1
                else _swipt_codebook_reference(cb, rho, p_star))
        assert _dump(sk.swipt_transform(cb, rho, p_star).to_json()) == _dump(want)


@pytest.mark.parametrize("n", [1, 2])
def test_extract_design_is_the_former_package(n):
    topo = sk.Topology(kind="mac", m_list=[8, 4], snrs=[50.0], p_a_uw=3.0)
    sysm = sk.build_system(topo, sk.TrainConfig(n=n, seed=4), hidden=(8,))
    designs = sk.extract_design(sysm)
    assert len(designs) == 2
    for tx, des in enumerate(designs):
        xc, rows = sk.encode_all(sysm, tx), topo.m_list[tx]
        if n == 1:
            want = _points_json_reference(xc[:, 0], rows, 3.0, "learned")
        else:
            want = _codewords_json_reference(xc.ravel(), np.arange(rows * n).reshape(rows, n),
                                             rows, n, 3.0, "learned", _min_dist_reference(xc))
        assert _dump(des.to_json()) == _dump(want)


def test_both_formats_load_to_the_same_codewords(tmp_path):
    ring = sk.swipt_transform(sk.layout_info(8, 5.0), 0.4, 0.3)
    points_file = _points_json_reference(ring.base_points, 8, 5.0, 0.4, ring.c, ring.t,
                                         ring.m_on, ring.on_indices)
    # an n = 1 file in the codeword format, its base points in another order
    perm = np.array([3, 0, 7, 1, 6, 2, 5, 4])
    codeword_file = _codewords_json_reference(ring.base_points[perm],
                                              np.argsort(perm)[:, None], 8, 1, 5.0, 0.4)
    cb = sk.swipt_transform(sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1)),
                            0.6, 0.3)
    n2_file = _codewords_json_reference(cb.base_points, cb.codeword_indices, 16, 2, 5.0, 0.6,
                                        cb.achieved_dmin_sq)
    for d, want in ((points_file, ring), (codeword_file, ring), (n2_file, cb)):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(d))
        back = sk.Codebook.load(path)
        assert back.codewords.tobytes() == want.codewords.tobytes()
        assert back.m == want.m and back.n == want.n and back.rho == want.rho
    # n = 1 writes the point format, n > 1 the codeword format
    assert _dump(sk.Codebook.from_json(points_file).to_json()) == _dump(points_file)
    assert _dump(sk.Codebook.from_json(n2_file).to_json()) == _dump(n2_file)


def test_single_message_ring_is_one_point_at_p_a():
    cb = sk.build_info_codebook(1, 1, 5.0)
    assert cb.m == cb.n == 1 and cb.codewords.tolist() == [[complex(math.sqrt(5.0))]]
    assert math.isinf(cb.achieved_dmin_sq)


@pytest.mark.parametrize("n, pa, p_star, m_req", [
    (4, 5.0, 0.25, 4), (4, 1.0, 0.5, 6), (5, 3.0, 0.4, 10),
    (6, 74.81083269649324, 0.9625265947082049, 2), (3, 2.0, 1.0, 1), (1, 2.0, 0.5, 1),
])
def test_onoff_block_code_is_the_former_matrix(n, pa, p_star, m_req):
    cand = np.arange(1, n if m_req >= 2 and n >= 2 else n + 1)
    n_on = int(cand[np.argmin(np.abs(p_star - cand / n))])
    supports = sorted(itertools.combinations(range(n), n_on), key=lambda c: c[::-1])[:m_req]
    want = np.zeros((m_req, n), dtype=complex)
    for k, sup in enumerate(supports):
        want[k, list(sup)] = math.sqrt(n * pa / n_on)
    assert sk.onoff_block_code(n, pa, p_star, m_req).codewords.tobytes() == want.tobytes()


@settings(max_examples=300)
@given(m=st.sampled_from([4, 16, 64]),
       pa=st.floats(5e-324, 1e306) | st.sampled_from([5e-324, 1e-200, 1e300, 1e306]))
def test_qam_is_the_former_rescale(m, pa):
    """Former ``qam_reference``: the square grid times sqrt(P_a / mean |c|^2).
    Same bytes wherever M*P_a is finite: M is a power of two and the grid's
    power sum an integer, so both quotients round the same real number."""
    side = math.isqrt(m)
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    pts = pts * math.sqrt(pa / float(np.mean(np.abs(pts) ** 2)))
    assert sk.qam_reference(m, pa).base_points.tobytes() == pts.tobytes()
