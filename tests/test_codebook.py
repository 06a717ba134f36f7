import math

import numpy as np
import pytest
from scipy.special import i0e

import swiptkit as sk
from swiptkit.codebook import decode_onoff_block_many


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
        assert cb.m == m and cb.converged
        # permutation property: distinct base points inside each codeword
        assert all(len(set(row)) == n for row in cb.codeword_indices.tolist())
        assert cb.avg_power() == pytest.approx(5.0, rel=1e-9)
        if m >= 2:
            assert sk.codebook_min_dist(cb) >= cb.achieved_dmin_sq * (1 - 1e-12)


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


# ---------------------------------------------------------------------------
# On-Off position block codes
# ---------------------------------------------------------------------------

def test_block_code_quarter_rate():
    code = sk.onoff_block_code(4, 1.0, 0.25, 4)
    assert code.n_on == 1
    assert code.r_on == pytest.approx(2.0, rel=1e-12)
    assert code.support_sets == ((0,), (1,), (2,), (3,))


def test_block_code_all_on():
    code = sk.onoff_block_code(3, 2.0, 1.0, 1)
    assert code.n_on == 3 and code.m == 1
    assert code.r_on == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_block_code_r_on_arithmetic():
    code = sk.onoff_block_code(2, 5.0, 0.5, 2)
    assert code.n_on == 1
    assert code.r_on == pytest.approx(math.sqrt(10.0), rel=1e-12)


def test_block_code_capacity_error():
    with pytest.raises(ValueError, match="exceeds"):
        sk.onoff_block_code(4, 1.0, 0.25, 5)


def test_block_code_multi_message_excludes_all_on():
    pa = 74.81083269649324
    code = sk.onoff_block_code(6, pa, 0.9625265947082049, 2)
    assert code.n_on == 5 and code.m == 2
    assert code.avg_power() == pytest.approx(pa, rel=1e-12)
    for n in range(2, 9):
        assert sk.onoff_block_code(n, 1.0, 1.0, 2).n_on == n - 1


def test_block_code_single_position_capacity_error():
    with pytest.raises(ValueError, match="exceeds"):
        sk.onoff_block_code(1, 1.0, 0.5, 2)


def test_block_code_colex_order():
    code = sk.onoff_block_code(4, 1.0, 0.5, 6)
    assert code.n_on == 2
    assert code.support_sets == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def test_block_code_power_bookkeeping():
    code = sk.onoff_block_code(5, 3.0, 0.4, 10)
    assert code.n_on * code.r_on ** 2 == pytest.approx(5 * 3.0, rel=1e-12)
    assert code.avg_power() == pytest.approx(3.0, rel=1e-12)


def test_decode_noiseless_and_ties():
    code = sk.onoff_block_code(4, 5.0, 0.25, 4)
    cw = code.codewords()
    for i in range(4):
        assert sk.decode_onoff_block(cw[i], code) == i
    assert sk.decode_onoff_block(np.zeros(4, dtype=complex), code) == 0


def _block_ser_oracle(code, sigma_sq):
    """Order statistics for n_on=1: the on sample is Rice, the n-1 noise
    magnitudes must all stay below it.
    """
    s2 = sigma_sq / 2.0
    nu = code.r_on
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


def test_codebook_json_keeps_converged(tmp_path):
    cb = sk.build_info_codebook(4, 2, 1.0, sk.GreedyConfig(seed=1))
    assert cb.to_json()["converged"] is True
    cb.converged = False
    path = tmp_path / "cb.json"
    cb.save(path)
    assert sk.Codebook.load(path).converged is False
    legacy = cb.to_json()
    del legacy["converged"]
    assert sk.Codebook.from_json(legacy).converged is True
