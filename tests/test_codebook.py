import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import i0e

import swiptkit as sk
from swiptkit import codebook
from swiptkit.codebook import _greedy_pass, decode_onoff_block_many


def test_build_m2_n1_example():
    cb = sk.build_info_codebook(2, 1, 1.0, sk.GreedyConfig(seed=3))
    mods = np.sort(np.abs(cb.base_points))
    assert mods[0] == pytest.approx(0.0, abs=1e-12)
    assert mods[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert cb.achieved_dmin_sq == pytest.approx(2.0, rel=1e-9)
    assert cb.m == 2 and cb.n == 1


def test_build_m1_sentinel():
    cb = sk.build_info_codebook(1, 2, 5.0, sk.GreedyConfig(seed=0))
    assert cb.m == 1
    assert math.isinf(cb.achieved_dmin_sq)
    assert cb.avg_power() == pytest.approx(5.0, rel=1e-9)


def test_build_deterministic():
    cfg = sk.GreedyConfig(seed=1)
    a = sk.build_info_codebook(16, 2, 5.0, cfg)
    b = sk.build_info_codebook(16, 2, 5.0, cfg)
    assert np.array_equal(a.codeword_indices, b.codeword_indices)
    assert np.array_equal(a.base_points, b.base_points)


def test_build_contract_properties():
    for m, n in ((4, 1), (16, 2)):
        cb = sk.build_info_codebook(m, n, 5.0, sk.GreedyConfig(seed=1))
        assert cb.m == m
        # permutation property: distinct base points inside each codeword
        assert all(len(set(row)) == n for row in cb.codeword_indices.tolist())
        assert cb.avg_power() == pytest.approx(5.0, rel=1e-9)
        if m >= 2:
            assert sk.codebook_min_dist(cb) >= cb.achieved_dmin_sq * (1 - 1e-12)


def test_sampled_candidates_keep_the_draw_order():
    # np.unique sorts the packed draws: keeping its first rows would confine
    # every first index to the low end of range(Mn)
    for seed in range(3):
        a, b = (codebook._sample_permutations(192, 3, 200_000, np.random.default_rng(seed))
                for _ in range(2))
        assert np.array_equal(a, b) and a.shape == (200_000, 3)
        assert a[:, 0].max() == 191
        assert len(np.unique(a, axis=0)) == len(a)
        assert np.all((a[:, 0] != a[:, 1]) & (a[:, 0] != a[:, 2]) & (a[:, 1] != a[:, 2]))


def test_build_rejects_small_candidate_cap():
    with pytest.raises(ValueError):
        sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=0, candidate_cap=8))


def test_min_dist_duplicates_and_errors():
    cb = sk.build_info_codebook(2, 1, 1.0, sk.GreedyConfig(seed=3))
    dup = sk.Codebook(base_points=cb.base_points.copy(),
                      codeword_indices=np.array([[0], [0]]), m=2, n=1, p_a_uw=1.0)
    assert sk.codebook_min_dist(dup) == 0.0
    single = sk.Codebook(base_points=cb.base_points.copy(),
                         codeword_indices=np.array([[0]]), m=1, n=1, p_a_uw=1.0)
    with pytest.raises(ValueError):
        sk.codebook_min_dist(single)


def test_swipt_codebook_rho0_identity():
    cb = sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1))
    out = sk.swipt_codebook(cb, 0.0, sk.pon_approx(5.0))
    assert np.array_equal(out.codewords, cb.codewords)


def test_swipt_codebook_rho1_geometry():
    cb = sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1))
    out = sk.swipt_codebook(cb, 1.0, sk.pon_approx(5.0))
    mods = np.abs(out.base_points)
    big = mods > 1e-9
    assert big.sum() == 1
    # the perturbed point is one the codebook references, so power flows
    ref = np.bincount(cb.codeword_indices.ravel(), minlength=32)
    assert ref[int(np.argmax(mods))] >= 1
    assert out.avg_power() == pytest.approx(5.0, rel=1e-9)


def test_swipt_codebook_power_equality_randomized():
    rng = np.random.default_rng(5)
    cb = sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1))
    for _ in range(25):
        rho = float(rng.uniform(0, 1))
        p_star = float(rng.uniform(1e-3, 1.0))
        out = sk.swipt_codebook(cb, rho, p_star)
        assert out.avg_power() == pytest.approx(5.0, rel=1e-9)


def test_swipt_codebook_rejects_bad_inputs():
    cb = sk.build_info_codebook(4, 1, 1.0, sk.GreedyConfig(seed=0))
    with pytest.raises(ValueError):
        sk.swipt_codebook(cb, 2.0, 0.5)
    once = sk.swipt_codebook(cb, 0.5, 0.5)
    with pytest.raises(ValueError):
        sk.swipt_codebook(once, 0.5, 0.5)


def test_codebook_json_roundtrip(tmp_path):
    cb = sk.swipt_codebook(sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1)),
                           0.6, 0.3)
    path = tmp_path / "cb.json"
    cb.save(path)
    back = sk.Codebook.load(path)
    assert np.array_equal(back.codeword_indices, cb.codeword_indices)
    assert np.allclose(back.base_points, cb.base_points, rtol=0, atol=0)
    assert back.achieved_dmin_sq == pytest.approx(cb.achieved_dmin_sq)


def test_dmin_is_derived_and_a_loaded_value_is_ignored():
    cb = sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1))
    assert "achieved_dmin_sq" not in {f.name for f in dataclasses.fields(sk.Codebook)}
    d = cb.to_json()
    assert d["dmin_sq"] == sk.codebook_min_dist(cb) == cb.achieved_dmin_sq
    d["dmin_sq"] = "stale"
    back = sk.Codebook.from_json(d)
    assert back.achieved_dmin_sq == cb.achieved_dmin_sq
    assert back.to_json() == cb.to_json()


def test_scale_to_power_and_the_p_a_check():
    kw = dict(codeword_indices=[[0, 1], [1, 0]], m=2, n=2)
    cb = sk.Codebook(base_points=[0.0, 0.0], p_a_uw=5.0, **kw)
    with pytest.raises(ValueError, match="zero"):
        cb.scale_to_power()
    cb.base_points[:] = [1e154, 1e154]   # 4e308: the power sum overflows
    with pytest.raises(ValueError, match="overflows"), np.errstate(over="ignore"):
        cb.scale_to_power()
    cb.base_points[:] = [1.0, 3.0]
    cb.scale_to_power()
    assert cb.avg_power() == pytest.approx(5.0, rel=1e-15)
    for pa in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="P_a must be finite and positive"):
            sk.Codebook(base_points=[1.0, 3.0], p_a_uw=pa, **kw)


# ---------------------------------------------------------------------------
# greedy pass against a reference that compacts every step
# ---------------------------------------------------------------------------

def _greedy_pass_reference(cand_real, d_min, start, max_select):
    """Straightforward pass: full difference matrix and a compacted copy of
    the survivors at every step.
    """
    active = cand_real
    active_idx = np.arange(len(cand_real))
    selected = [start]
    v = cand_real[start]
    while len(selected) < max_select:
        diff = active - v
        d = np.einsum("ij,ij->i", diff, diff)
        keep = d >= d_min
        active = active[keep]
        active_idx = active_idx[keep]
        if active_idx.size == 0:
            break
        pick = int(np.argmin(d[keep]))
        selected.append(int(active_idx[pick]))
        v = active[pick]
    return selected


SMALL_CHUNK = 16   # chunk boundaries at a size hypothesis can draw cheaply


@st.composite
def greedy_cases(draw):
    """Candidate sets, thresholds and pass lengths for the greedy pass.

    Rows come from a pool of distinct rows, so small pools repeat rows and
    make ties; integer rows make exact distance ties between distinct rows.
    The threshold filters nothing, everything, or a quantile of the first
    step's distances, which makes compaction start mid-pass.
    """
    c = SMALL_CHUNK
    rows = draw(st.sampled_from([1, 2, 3, c - 1, c, c + 1, 2 * c - 1, 2 * c,
                                 2 * c + 1, 7 * c + 5]))
    width = draw(st.sampled_from([2, 4, 6]))
    pool = draw(st.integers(1, 2 * rows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(-2, 3, size=(pool, width)).astype(float)
    else:
        points = rng.standard_normal((pool, width))
    cand = points[rng.integers(pool, size=rows)]
    start = draw(st.integers(0, rows - 1))
    first = np.sum((cand - cand[start]) ** 2, axis=1)
    kind = draw(st.sampled_from(["nothing", "everything", "quantile"]))
    if kind == "nothing":
        d_min = 0.0
    elif kind == "everything":
        d_min = float(first.max()) + 1.0
    else:
        d_min = float(np.quantile(first, draw(st.floats(0.05, 0.95))))
    max_select = draw(st.sampled_from([1, 2, 17, 65]))
    return cand, d_min, start, max_select


@given(greedy_cases())
def test_greedy_pass_matches_reference(case):
    with mock.patch.object(codebook, "_CHUNK_ROWS", SMALL_CHUNK):
        assert _greedy_pass(*case) == _greedy_pass_reference(*case)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 2])
def test_greedy_pass_matches_reference_at_chunk_length(chunks, offset):
    # half as many distinct rows as candidates, so duplicates tie
    rows = chunks * codebook._CHUNK_ROWS + offset
    rng = np.random.default_rng(rows)
    cand = rng.standard_normal((rows // 2, 6))[rng.integers(rows // 2, size=rows)]
    first = np.sum((cand - cand[0]) ** 2, axis=1)
    d_min = float(np.quantile(first, 0.05))
    assert _greedy_pass(cand, d_min, 0, 65) == _greedy_pass_reference(cand, d_min, 0, 65)


def test_greedy_pass_overflowed_distances_match_reference():
    # every distance between distinct rows overflows to inf; both passes
    # then take the first survivor
    rng = np.random.default_rng(9)
    cand = 1e200 * rng.integers(-2, 3, size=(40, 4)).astype(float)
    with np.errstate(over="ignore"):
        for d_min in (0.0, 1.0, np.inf):
            assert (_greedy_pass(cand, d_min, 3, 10)
                    == _greedy_pass_reference(cand, d_min, 3, 10))


@pytest.mark.parametrize("d_min", [0.5, 3.0, 8.0])
def test_greedy_pass_memory_is_bounded(d_min):
    cand = np.random.default_rng(0).standard_normal((200_000, 6))
    tracemalloc.start()
    try:
        _greedy_pass(cand, d_min, 0, max_select=65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full (N, 6) difference matrix alone is 1.0x cand.nbytes
    assert peak < 1.5 * cand.nbytes


# ---------------------------------------------------------------------------
# On-Off position block codes
# ---------------------------------------------------------------------------

def n_on(code):
    """On symbols per codeword, read from the codewords."""
    return int(np.count_nonzero(code.codewords[0]))


def r_on(code):
    return float(np.abs(code.codewords).max())


def support_sets(code):
    return tuple(tuple(int(i) for i in np.flatnonzero(row)) for row in code.codewords)


def test_block_code_quarter_rate():
    code = sk.onoff_block_code(4, 1.0, 0.25, 4)
    assert n_on(code) == 1
    assert r_on(code) == pytest.approx(2.0, rel=1e-12)
    assert support_sets(code) == ((0,), (1,), (2,), (3,))


def test_block_code_all_on():
    code = sk.onoff_block_code(3, 2.0, 1.0, 1)
    assert n_on(code) == 3 and code.m == 1
    assert r_on(code) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_block_code_r_on_arithmetic():
    code = sk.onoff_block_code(2, 5.0, 0.5, 2)
    assert n_on(code) == 1
    assert r_on(code) == pytest.approx(math.sqrt(10.0), rel=1e-12)


def test_block_code_capacity_error():
    with pytest.raises(ValueError, match="exceeds"):
        sk.onoff_block_code(4, 1.0, 0.25, 5)


def test_block_code_multi_message_excludes_all_on():
    pa = 74.81083269649324
    code = sk.onoff_block_code(6, pa, 0.9625265947082049, 2)
    assert n_on(code) == 5 and code.m == 2
    assert code.avg_power() == pytest.approx(pa, rel=1e-12)
    for n in range(2, 9):
        assert n_on(sk.onoff_block_code(n, 1.0, 1.0, 2)) == n - 1


@pytest.mark.parametrize("p_star", [0.0, -0.25, 1.5, float("nan")])
def test_block_code_rejects_p_star_outside_unit_interval(p_star):
    # N_on comes from m_on_count, and so does the check
    with pytest.raises(ValueError, match=r"p_star must be in \(0, 1\]"):
        sk.onoff_block_code(4, 1.0, p_star, 2)


def test_block_code_single_position_capacity_error():
    with pytest.raises(ValueError, match="exceeds"):
        sk.onoff_block_code(1, 1.0, 0.5, 2)


def test_block_code_colex_order():
    code = sk.onoff_block_code(4, 1.0, 0.5, 6)
    assert n_on(code) == 2
    assert support_sets(code) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def test_block_code_power_bookkeeping():
    code = sk.onoff_block_code(5, 3.0, 0.4, 10)
    assert n_on(code) * r_on(code) ** 2 == pytest.approx(5 * 3.0, rel=1e-12)
    assert code.avg_power() == pytest.approx(3.0, rel=1e-12)


def test_decode_noiseless_and_ties():
    code = sk.onoff_block_code(4, 5.0, 0.25, 4)
    cw = code.codewords
    assert decode_onoff_block_many(cw, code).tolist() == [0, 1, 2, 3]
    assert decode_onoff_block_many(np.zeros((1, 4), dtype=complex), code).tolist() == [0]


def _block_ser_oracle(code, sigma_sq):
    """Order statistics for n_on=1: the on sample is Rice, the n-1 noise
    magnitudes must all stay below it.
    """
    s2 = sigma_sq / 2.0
    nu = r_on(code)
    r = np.linspace(0.0, nu + 12.0 * math.sqrt(s2), 200001)
    pdf = (r / s2) * np.exp(-((r - nu) ** 2) / (2 * s2)) * i0e(r * nu / s2)
    p_correct = (1.0 - np.exp(-r ** 2 / sigma_sq)) ** (code.n - 1)
    return 1.0 - np.trapezoid(pdf * p_correct, r)


def test_decode_mc_matches_order_statistics():
    code = sk.onoff_block_code(4, 5.0, sk.pon_approx(5.0), 4)
    spec = sk.ChannelSpec(snr=2.0, p_a_uw=5.0, seed=33)
    trials = 200_000
    res = sk.ser_mc(code, spec, trials, decoder=lambda y: decode_onoff_block_many(y, code))
    oracle = _block_ser_oracle(code, spec.sigma_sq)
    assert abs(res.ser - oracle) <= 3.0 * math.sqrt(oracle * (1 - oracle) / trials)


def test_decode_low_noise_error_free():
    code = sk.onoff_block_code(4, 5.0, sk.pon_approx(5.0), 4)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0, seed=34)
    res = sk.ser_mc(code, spec, 100_000,
                    decoder=lambda y: decode_onoff_block_many(y, code))
    assert res.ser < 1e-3


def test_codebook_json_with_converged_key_still_loads():
    # the search always reaches M codewords, so files no longer carry the flag
    cb = sk.build_info_codebook(4, 2, 1.0, sk.GreedyConfig(seed=1))
    assert "converged" not in cb.to_json()
    for flag in (True, False):
        back = sk.Codebook.from_json({**cb.to_json(), "converged": flag})
        assert back.to_json() == cb.to_json()
