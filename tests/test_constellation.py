import math

import numpy as np
import pytest

import swiptkit as sk


def chord_ok(k: int, radius: float, t: float) -> bool:
    """Can k equidistant points on this circle keep pairwise distance >= t?"""
    if k <= 1:
        return True
    return 2.0 * radius * math.sin(math.pi / k) >= t * (1.0 - 1e-9)


def test_circle_capacity_values():
    assert [sk.circle_capacity(m) for m in range(6)] == [1, 6, 12, 18, 25, 31]


def test_circle_capacity_geometric_bruteforce():
    for m in range(1, 9):
        k = sk.circle_capacity(m)
        assert chord_ok(k, m * 1.0, 1.0)
        assert not chord_ok(k + 1, m * 1.0, 1.0)


def test_circle_capacity_rejects_negative():
    with pytest.raises(ValueError):
        sk.circle_capacity(-1)


def test_layout_16_and_64_shapes():
    c = sk.layout_info(16, 1.0)
    assert (c.c, c.m) == (2, 16)
    assert c.t == pytest.approx(math.sqrt(16.0 / 42.0), rel=1e-12)
    c64 = sk.layout_info(64, 2.0)
    assert c64.c == 5
    # remainder on the outermost circle
    outer = np.isclose(np.abs(c64.base_points), 5 * c64.t)
    assert outer.sum() == 2


def test_layout_power_and_min_distance():
    for m in range(2, 65):
        c = sk.layout_info(m, 3.7)
        assert c.avg_power() == pytest.approx(3.7, rel=1e-9)
        assert math.sqrt(sk.codebook_min_dist(c)) >= c.t * (1.0 - 1e-9)


def test_layout_degenerate_single_point():
    c = sk.layout_info(1, 5.0)
    assert c.m == 1 and c.base_points[0] == 0 and c.t == 0.0


def test_layout_rejects_zero():
    with pytest.raises(ValueError):
        sk.layout_info(0, 1.0)


def test_m_on_count_fingerprints():
    assert sk.m_on_count(32, 5.0 / 317.0) == 1
    assert sk.m_on_count(32, 120.0 / 317.0) == 12
    assert sk.m_on_count(8, 1.0) == 8


def test_m_on_count_tie_prefers_smaller():
    # p=3/16 is equidistant from m=1 and m=2 at M=8
    assert sk.m_on_count(8, 3.0 / 16.0) == 1


def test_m_on_count_tracks_p():
    for m in (4, 16, 31):
        for p in np.linspace(1.0 / m, 1.0, 23):
            assert abs(sk.m_on_count(m, p) / m - p) <= 1.0 / (2 * m) + 1e-12


def test_swipt_rho0_is_identity():
    base = sk.layout_info(16, 5.0)
    out = sk.swipt_transform(base, 0.0, 0.3)
    assert np.array_equal(out.base_points, base.base_points)
    assert out.m_on == sk.m_on_count(16, 0.3)


def test_swipt_rho1_exact_onoff_geometry():
    m, pa = 32, 5.0
    p_star = sk.pon_approx(pa)
    out = sk.swipt_transform(sk.layout_info(m, pa), 1.0, p_star)
    mods = np.abs(out.base_points)
    target = math.sqrt(m * pa / out.m_on)
    on = mods > target / 2
    assert on.sum() == out.m_on == 1
    assert mods[on][0] == pytest.approx(target, rel=1e-14)
    assert np.all(mods[~on] == 0.0)


def test_swipt_rho1_phases_equally_spaced():
    m, pa = 32, 120.0
    out = sk.swipt_transform(sk.layout_info(m, pa), 1.0, sk.pon_approx(pa))
    assert out.m_on == 12
    target = math.sqrt(m * pa / 12)
    pts = out.base_points[out.on_indices]
    for i, p in enumerate(pts):
        want = target * np.exp(1j * 2 * math.pi * i / 12)
        assert abs(p - want) <= 1e-12 * target


def test_swipt_all_on_limit():
    out = sk.swipt_transform(sk.layout_info(8, 2.0), 1.0, 1.0)
    mods = np.abs(out.base_points)
    assert np.allclose(mods, math.sqrt(2.0), rtol=1e-14)
    ph = np.sort(np.mod(np.angle(out.base_points), 2 * math.pi))
    assert np.allclose(np.diff(ph), 2 * math.pi / 8, atol=1e-12)


def test_swipt_power_equality_randomized():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(2, 65))
        pa = float(rng.uniform(0.5, 300.0))
        rho = float(rng.uniform(0.0, 1.0))
        p_star = float(rng.uniform(1e-3, 1.0))
        out = sk.swipt_transform(sk.layout_info(m, pa), rho, p_star)
        assert out.avg_power() == pytest.approx(pa, rel=1e-9)


def test_swipt_continuity_in_rho():
    # interior steps obey the stated band; the final step into rho=1 follows
    # the sqrt(1-rho) law of the off-point rescale, bounded at twice the band
    for m, pa in ((16, 5.0), (16, 120.0), (32, 120.0)):
        base = sk.layout_info(m, pa)
        p_star = sk.pon_approx(pa)
        band = 1e-2 * math.sqrt(m * pa)
        rhos = np.linspace(0.0, 1.0, 1001)
        prev = sk.swipt_transform(base, 0.0, p_star).base_points
        for r in rhos[1:]:
            cur = sk.swipt_transform(base, float(r), p_star).base_points
            step = float(np.max(np.abs(cur - prev)))
            assert step <= (band if r < 1.0 else 2.0 * band)
            prev = cur


def test_swipt_rejects_bad_rho():
    base = sk.layout_info(8, 1.0)
    with pytest.raises(ValueError):
        sk.swipt_transform(base, 1.5, 0.5)
    with pytest.raises(ValueError):
        sk.swipt_transform(base, -0.1, 0.5)


def test_swipt_requires_unperturbed_base():
    once = sk.swipt_transform(sk.layout_info(8, 1.0), 0.5, 0.5)
    with pytest.raises(ValueError):
        sk.swipt_transform(once, 0.5, 0.5)


def test_selection_tie_break_by_phase():
    from swiptkit.constellation import select_on_points
    pts = np.array([1.0 + 0j, 0.0 + 1.0j, -1.0 + 0j, 0.5 + 0j])
    idx = select_on_points(pts, 2)
    # equal moduli 1.0: ascending phase picks 0 (phase 0) then 1 (phase pi/2)
    assert list(idx) == [0, 1]


def test_constellation_json_roundtrip(tmp_path):
    c = sk.swipt_transform(sk.layout_info(16, 5.0), 0.7, 0.2)
    path = tmp_path / "c.json"
    c.save(path)
    back = sk.Codebook.load(path)
    assert np.array_equal(back.base_points, c.base_points)
    assert back.m_on == c.m_on and back.rho == c.rho
    assert back.on_indices == c.on_indices
