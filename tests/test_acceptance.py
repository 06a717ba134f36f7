"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Monte Carlo criteria pin
their RNG seeds; paired comparisons share noise streams (common random
numbers).
"""

import math

import numpy as np
import pytest

import swiptkit as sk
from swiptkit.codebook import decode_onoff_block_many
from conftest import decision_ser


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def chord(k: int, radius: float) -> float:
    return 2.0 * radius * math.sin(math.pi / k)


def test_criterion_01_circle_capacities():
    want = {1: 6, 2: 12, 3: 18, 4: 25, 5: 31}
    ok = True
    for m, expect in want.items():
        k = sk.circle_capacity(m)
        geom = (chord(k, float(m)) >= 1.0 - 1e-9) and (chord(k + 1, float(m)) < 1.0)
        ok &= (k == expect) and geom
    report(1, "circle capacities", ok, f"caps={[sk.circle_capacity(m) for m in range(1, 6)]}")


def test_criterion_02_pon_knee(canon):
    errs = {pa: abs(sk.optimal_pon(pa, canon) - sk.pon_approx(pa))
            for pa in (5.0, 50.0, 120.0, 300.0, 400.0)}
    ok = all(e <= 0.05 for e in errs.values())
    report(2, "Eq.13 knee reproduction", ok,
           "max dev %.4f" % max(errs.values()))


def test_criterion_03_m_on_fingerprints():
    a = sk.m_on_count(32, sk.pon_approx(5.0))
    b = sk.m_on_count(32, sk.pon_approx(120.0))
    ok = (a == 1) and (b == 12)
    report(3, "M_on fingerprints", ok, f"M_on(5uW)={a} M_on(120uW)={b}")


def test_criterion_04_power_equality_everywhere():
    rng = np.random.default_rng(2024)
    rel_errs = []

    def rel_err(avg, pa):
        return abs(avg - pa) / pa

    # algorithmic constellations and their On-Off deformations (40 cases)
    for _ in range(40):
        m = int(rng.integers(2, 65))
        pa = float(rng.uniform(0.5, 400.0))
        rho = float(rng.uniform(0, 1))
        p_star = float(rng.uniform(1e-3, 1.0))
        des = sk.swipt_transform(sk.layout_info(m, pa), rho, p_star)
        rel_errs.append(rel_err(des.avg_power(), pa))
    # coded designs over two prebuilt codebooks (30 cases)
    cbs = [sk.build_info_codebook(16, 2, 5.0, sk.GreedyConfig(seed=1)),
           sk.build_info_codebook(8, 2, 50.0, sk.GreedyConfig(seed=2))]
    for _ in range(30):
        cb = cbs[int(rng.integers(len(cbs)))]
        out = sk.swipt_codebook(cb, float(rng.uniform(0, 1)),
                                float(rng.uniform(1e-3, 1.0)))
        rel_errs.append(rel_err(out.avg_power(), cb.p_a_uw))
    # On-Off block codes (15 cases)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        pa = float(rng.uniform(0.5, 100.0))
        code = sk.onoff_block_code(n, pa, float(rng.uniform(1e-3, 1.0)), 2)
        rel_errs.append(rel_err(code.avg_power(), pa))
    # learned designs at random parameters (15 cases)
    for _ in range(15):
        topo = sk.Topology(kind="p2p", m_list=[int(rng.integers(2, 33))],
                           snrs=[50.0], p_a_uw=float(rng.uniform(0.5, 200.0)))
        cfg = sk.TrainConfig(lambda_=0.0, n=int(rng.integers(1, 4)),
                             seed=int(rng.integers(1 << 30)))
        des = sk.extract_design(sk.build_system(topo, cfg, hidden=(8,)))[0]
        rel_errs.append(rel_err(des.avg_power(), topo.p_a_uw))

    ok = len(rel_errs) == 100 and max(rel_errs) <= 1e-9
    report(4, "power-constraint equality", ok,
           f"{len(rel_errs)} cases, worst rel err {max(rel_errs):.2e}")


def test_criterion_05_info_modulation_vs_qam():
    trials, seed = 1_000_000, 0
    detail = []
    ok = True
    for m in (16, 64):
        ring = sk.layout_info(m, 1.0)
        qam = sk.qam_reference(m, 1.0)
        for snr_db in (5, 10, 15, 20):
            spec = sk.ChannelSpec(snr=10 ** (snr_db / 10), p_a_uw=1.0, seed=seed)
            r = sk.ser_mc(ring, spec, trials)
            q = sk.ser_mc(qam, spec, trials)
            ok &= r.ser <= 1.15 * q.ser
            detail.append(f"M{m}@{snr_db}dB {r.ser / max(q.ser, 1e-12):.2f}x")
    report(5, "designed layouts vs QAM", ok, " ".join(detail))


def test_criterion_06_analytic_channel_oracles():
    trials = 1_000_000
    pa = 2.0
    bpsk = np.array([math.sqrt(pa), -math.sqrt(pa)])
    spec = sk.ChannelSpec(snr=4.0, p_a_uw=pa, seed=11)
    res_b = sk.ser_mc(bpsk, spec, trials)
    oracle_b = float(sk.qfunc(math.sqrt(2 * 4.0)))
    ok_b = abs(res_b.ser - oracle_b) <= 3 * math.sqrt(oracle_b * (1 - oracle_b) / trials)

    q4 = sk.qam_reference(4, 5.0)
    spec_q = sk.ChannelSpec(snr=10.0, p_a_uw=5.0, seed=12)
    res_q = sk.ser_mc(q4, spec_q, trials)
    qq = float(sk.qfunc(math.sqrt(10.0)))
    oracle_q = 1 - (1 - qq) ** 2
    ok_q = abs(res_q.ser - oracle_q) <= 3 * math.sqrt(oracle_q * (1 - oracle_q) / trials)

    report(6, "analytic channel oracles", ok_b and ok_q,
           f"bpsk {res_b.ser:.5f} vs {oracle_b:.5f}; 4qam {res_q.ser:.5f} vs {oracle_q:.5f}")


def test_criterion_07_gradient_checks():
    cases = [
        ("p2p", [4], [50.0], None),
        ("bc", [4, 2], [100.0, 50.0], None),
        ("mac", [4, 4], [50.0], None),
        ("ic", [4, 4], [50.0, 50.0], np.array([[1.0, 0.5], [0.5, 1.0]])),
    ]
    harvester = sk.ModelC(a=0.02, b=100.0, ls=40.0)
    worst = 0.0
    for kind, m_list, snrs, gains in cases:
        topo = sk.Topology(kind=kind, m_list=m_list, snrs=snrs, p_a_uw=60.0,
                           gains=gains)
        for lam in (0.0, 1.0):
            cfg = sk.TrainConfig(lambda_=lam, n=1, seed=5)
            sysm = sk.build_system(topo, cfg,
                                   harvester=harvester if lam > 0 else None,
                                   hidden=(6,))
            worst = max(worst, sk.gradient_check(sysm)["max_rel_err"])
    ok = worst < 1e-4
    report(7, "composite-loss gradients", ok, f"max rel err {worst:.2e}")


def test_criterion_08_learned_vs_algorithmic(canonical_fit, canon):
    pa, snr = 110.0, 50.0
    topo = sk.Topology(kind="p2p", m_list=[16], snrs=[snr], p_a_uw=pa)

    # information parity at lambda = 0, best of three seeds
    alg = sk.layout_info(16, pa)
    alg_ser = sk.ser_mc(alg, sk.ChannelSpec(snr=snr, p_a_uw=pa, seed=77), 200_000).ser
    sers = []
    for seed in (0, 1, 2):
        cfg = sk.TrainConfig(lambda_=0.0, n=1, learning_rate=2e-3,
                             batch_size=512, iterations=6000, seed=seed)
        st, _ = sk.train(sk.build_system(topo, cfg))
        sers.append(float(sk.evaluate_ser([st], 200_000, seed=42)[0][0]))
    ok_ser = min(sers) <= 2.0 * alg_ser

    # power parity at the lambda-sweep endpoint
    p_star = sk.pon_approx(pa)
    alg_onoff = sk.swipt_transform(sk.layout_info(16, pa), 1.0, p_star)
    alg_pd = sk.delivered_power_noiseless(alg_onoff, canon)
    cfg = sk.TrainConfig(lambda_=10.0, n=1, learning_rate=1e-3, batch_size=128,
                         iterations=5000, seed=0, pd_floor=0.5)
    st, _ = sk.train(sk.build_system(topo, cfg, harvester=canonical_fit))
    learned_pd = sk.delivered_power_noiseless(sk.extract_design(st)[0], canon)
    ok_pd = learned_pd >= 0.9 * alg_pd

    report(8, "learned vs algorithmic parity", ok_ser and ok_pd,
           f"ser best {min(sers):.5f} vs 2x{alg_ser:.5f}; "
           f"pd {learned_pd:.3f} vs 0.9x{alg_pd:.3f} uW")


def test_criterion_09_onoff_extreme_geometry():
    ok = True
    detail = []
    for m, pa in ((32, 5.0), (32, 120.0), (16, 40.0)):
        p_star = sk.pon_approx(pa)
        out = sk.swipt_transform(sk.layout_info(m, pa), 1.0, p_star)
        target = math.sqrt(m * pa / out.m_on)
        pts = out.base_points[out.on_indices]
        on_ok = all(abs(p - target * np.exp(2j * math.pi * i / out.m_on))
                    <= 1e-12 * target for i, p in enumerate(pts))
        off = np.delete(out.base_points, out.on_indices)
        ok &= on_ok and bool(np.all(off == 0.0))
        detail.append(f"M{m}/{pa:g}uW m_on={out.m_on}")
    report(9, "On-Off extreme geometry", ok, " ".join(detail))


def test_criterion_10_coded_region_enlargement(canon):
    pa, snr, trials = 5.0, 50.0, 100_000
    p_star = sk.pon_approx(pa)
    rhos = list(np.linspace(0, 1, 11))
    spec = sk.ChannelSpec(snr=snr, p_a_uw=pa, seed=2024)

    base1 = sk.layout_info(4, pa)
    sweep1 = sk.rp_sweep(lambda r: sk.swipt_transform(base1, r, p_star),
                         rhos, spec, canon, trials)
    cb = sk.build_info_codebook(16, 2, pa, sk.GreedyConfig(seed=1))
    sweep2 = sk.rp_sweep(lambda r: sk.swipt_codebook(cb, r, p_star),
                         rhos, spec, canon, trials)

    def best_at(points, pd_level):
        cand = [p for p in points if p.pd_uw >= pd_level]
        return min(cand, key=lambda p: p.ser) if cand else None

    ok = True
    worst = 0.0
    for row in sweep1:
        a1 = best_at(sweep1, row.pd_uw)
        a2 = best_at(sweep2, row.pd_uw)
        if a2 is None:
            ok = False
            continue
        tol = 3 * math.sqrt(
            (a1.ser * (1 - a1.ser) + a2.ser * (1 - a2.ser)) / trials)
        ok &= a2.ser <= a1.ser + tol
        worst = max(worst, a2.ser - a1.ser)
    report(10, "coded region enlargement", ok,
           f"max(ser2-ser1)={worst:.5f} over {len(sweep1)} grid points")


def test_criterion_11_greedy_codebook_contract():
    ok = True
    detail = []
    cases = [
        (4, 1, sk.GreedyConfig(seed=1)),
        (16, 2, sk.GreedyConfig(seed=1)),
        (64, 3, sk.GreedyConfig(seed=2, candidate_cap=200_000)),
    ]
    for m, n, cfg in cases:
        a = sk.build_info_codebook(m, n, 5.0, cfg)
        b = sk.build_info_codebook(m, n, 5.0, cfg)
        same = (np.array_equal(a.codeword_indices, b.codeword_indices)
                and np.array_equal(a.base_points, b.base_points))
        perm = all(len(set(row)) == n for row in a.codeword_indices.tolist())
        dist_ok = (m < 2) or sk.codebook_min_dist(a) >= a.achieved_dmin_sq * (1 - 1e-12)
        ok &= (a.m == m) and perm and dist_ok and same
        detail.append(f"({n},{int(math.log2(m))}) dmin={a.achieved_dmin_sq:.3f}")
    report(11, "greedy codebook contract", ok, " ".join(detail))


def test_criterion_12_eh_fit_quality(canonical_fit):
    ok_clean = canonical_fit.rmse < 0.02 * 40.0
    noisy = sk.fit_eh(sk.synth_dataset(2000, noise_rel=0.05, seed=7))
    ok_noisy = noisy.rmse < 0.06 * 40.0
    report(12, "EH fit quality", ok_clean and ok_noisy,
           f"clean rmse {canonical_fit.rmse:.3f} uW, noisy {noisy.rmse:.3f} uW")


def test_criterion_13_onoff_block_decoding():
    code = sk.onoff_block_code(4, 5.0, sk.pon_approx(5.0), 4)
    cw = code.codewords
    noiseless_ok = decode_onoff_block_many(cw, code).tolist() == [0, 1, 2, 3]
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0, seed=13)
    ser = decision_ser(code, spec, 1_000_000, lambda y: decode_onoff_block_many(y, code))
    ok = noiseless_ok and (np.count_nonzero(cw[0]) == 1) and (ser < 1e-3)
    report(13, "On-Off block decoding", ok,
           f"noiseless exact, ser={ser:.2e} at snr=50")
