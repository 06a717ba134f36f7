import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import swiptkit as sk
from swiptkit import channel
from swiptkit._blas import _thread_functions
from swiptkit.channel import ml_decoder, monte_carlo, sample_channel


def test_awgn_zero_noise_identity():
    x = np.array([1 + 2j, -3j])
    spec = sk.ChannelSpec(snr=np.inf, p_a_uw=1.0)
    out = sk.awgn(x, spec, np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_awgn_variance():
    spec = sk.ChannelSpec(snr=2.0, p_a_uw=4.0)
    rng = np.random.default_rng(3)
    y = sk.awgn(np.zeros(1_000_000, dtype=complex), spec, rng)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(2.0, rel=0.01)


def test_awgn_reproducible():
    spec = sk.ChannelSpec(snr=5.0, p_a_uw=1.0)
    a = sk.awgn(np.zeros(64, dtype=complex), spec, np.random.default_rng(9))
    b = sk.awgn(np.zeros(64, dtype=complex), spec, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_channel_spec_invariant():
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0)
    assert spec.sigma_sq * spec.snr == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ValueError):
        sk.ChannelSpec(snr=0.0, p_a_uw=1.0)
    # a positive SNR whose noise variance P_a/SNR overflows, numpy's too
    for snr in (1e-310, np.float64(1e-310)):
        with pytest.raises(ValueError, match="too small"):
            sk.ChannelSpec(snr=snr, p_a_uw=100.0)
        with pytest.raises(ValueError, match="too small"):
            sk.Topology(kind="p2p", m_list=[4], snrs=[snr], p_a_uw=100.0)


def test_ser_bpsk_matches_q_function():
    pa = 2.0
    design = np.array([math.sqrt(pa), -math.sqrt(pa)])
    spec = sk.ChannelSpec(snr=4.0, p_a_uw=pa, seed=11)
    res = sk.ser_mc(design, spec, 200_000)
    oracle = float(sk.qfunc(math.sqrt(8.0)))
    assert abs(res.ser - oracle) <= 3 * math.sqrt(oracle * (1 - oracle) / res.trials)


def test_ser_4qam_high_snr_example():
    q4 = sk.qam_reference(4, 5.0)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0, seed=12)
    res = sk.ser_mc(q4, spec, 100_000)
    q = float(sk.qfunc(math.sqrt(50.0)))
    oracle = 1 - (1 - q) ** 2
    # oracle ~1.5e-12: zero observed errors is the consistent outcome
    assert abs(res.ser - oracle) <= 3 * math.sqrt(oracle / res.trials) + 1e-9


def test_ser_distinct_codewords_zero_at_huge_snr():
    c = sk.layout_info(8, 1.0)
    res = sk.ser_mc(c, sk.ChannelSpec(snr=1e9, p_a_uw=1.0, seed=4), 10_000)
    assert res.ser == 0.0


def test_ser_degenerate_flag():
    design = np.zeros((4, 1), dtype=complex)
    res = sk.ser_mc(design, sk.ChannelSpec(snr=10.0, p_a_uw=1.0), 1000)
    assert res.degenerate and res.ser == pytest.approx(0.75)


def test_ser_requires_min_trials():
    with pytest.raises(ValueError):
        sk.ser_mc(sk.qam_reference(4, 1.0), sk.ChannelSpec(snr=1.0, p_a_uw=1.0), 10)


def test_ser_deterministic_per_seed():
    q = sk.qam_reference(16, 1.0)
    s1 = sk.ser_mc(q, sk.ChannelSpec(snr=8.0, p_a_uw=1.0, seed=5), 50_000)
    s2 = sk.ser_mc(q, sk.ChannelSpec(snr=8.0, p_a_uw=1.0, seed=5), 50_000)
    assert s1.ser == s2.ser and s1.errors == s2.errors


def _ml_ser_by_integration(points: np.ndarray, sigma_sq: float) -> float:
    """Riemann integration of the Gaussian over min-distance decision cells."""
    span = float(np.max(np.abs(points))) + 6.0 * math.sqrt(sigma_sq / 2.0)
    axis = np.linspace(-span, span, 901)
    da = (axis[1] - axis[0]) ** 2
    grid = axis[:, None] + 1j * axis[None, :]
    d = np.abs(grid[..., None] - points[None, None, :]) ** 2
    cell = np.argmin(d, axis=2)
    p_correct = 0.0
    for s, x in enumerate(points):
        pdf = np.exp(-np.abs(grid - x) ** 2 / sigma_sq) / (math.pi * sigma_sq)
        p_correct += float(np.sum(pdf[cell == s])) * da
    return 1.0 - p_correct / len(points)


@pytest.mark.parametrize("design_fn", [
    lambda: sk.qam_reference(4, 2.0).base_points,
    lambda: sk.layout_info(4, 2.0).base_points,
    lambda: np.array([math.sqrt(2.0), -math.sqrt(2.0)]),
])
def test_ml_decoding_matches_integration(design_fn):
    pts = design_fn()
    spec = sk.ChannelSpec(snr=4.0, p_a_uw=2.0, seed=21)
    trials = 200_000
    res = sk.ser_mc(pts, spec, trials)
    oracle = _ml_ser_by_integration(np.asarray(pts, dtype=complex), spec.sigma_sq)
    assert abs(res.ser - oracle) <= 3 * math.sqrt(oracle * (1 - oracle) / trials)


def test_ci_bookkeeping():
    res = sk.ser_mc(sk.qam_reference(16, 1.0),
                    sk.ChannelSpec(snr=5.0, p_a_uw=1.0, seed=2), 10_000)
    assert res.ci_halfwidth == pytest.approx(
        3 * math.sqrt(res.ser * (1 - res.ser) / 10_000), rel=1e-12)


def test_delivered_power_noiseless_cases(canon):
    # all points of one modulus: exactly f(P_a)
    c8 = sk.swipt_transform(sk.layout_info(8, 320.0), 1.0, 1.0)
    assert sk.delivered_power_noiseless(c8, canon) == pytest.approx(
        canon.evaluate(320.0), rel=1e-12)
    # identity harvester: the power constraint itself
    c16 = sk.layout_info(16, 7.0)
    identity = SimpleNamespace(evaluate=lambda p: p)
    assert sk.delivered_power_noiseless(c16, identity) == pytest.approx(7.0, rel=1e-9)


def test_delivered_power_mc_matches_enumeration(canon):
    pa = 120.0
    design = sk.swipt_transform(sk.layout_info(32, pa), 1.0, sk.pon_approx(pa))
    exact = sk.delivered_power_noiseless(design, canon)
    spec = sk.ChannelSpec(snr=np.inf, p_a_uw=pa, seed=6)
    mc = sk.delivered_power_mc(design, spec, canon, 1_000_000)
    assert mc == pytest.approx(exact, rel=0.005)


def test_delivered_power_mc_deterministic(canon):
    design = sk.layout_info(8, 120.0)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=120.0, seed=8)
    a = sk.delivered_power_mc(design, spec, canon, 10_000)
    b = sk.delivered_power_mc(design, spec, canon, 10_000)
    assert a == b


def test_rp_sweep_endpoints_and_monotone(canon):
    pa = 120.0
    base = sk.layout_info(32, pa)
    p_star = sk.pon_approx(pa)
    designer = lambda rho: sk.swipt_transform(base, rho, p_star)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=pa, seed=13)
    pts = sk.rp_sweep(designer, [0.0, 1.0], spec, canon, 2000)
    assert len(pts) == 2
    assert pts[1].pd_uw >= pts[0].pd_uw
    # monotone nondecreasing delivered power along the control grid
    grid = list(np.linspace(0, 1, 6))
    rows = sk.rp_sweep(designer, grid, spec, canon, 20_000)
    pd = [r.pd_uw for r in rows]
    for a, b in zip(pd, pd[1:]):
        assert b >= a - 0.02 * max(pd)


def test_rp_sweep_reproducible(canon):
    base = sk.layout_info(8, 5.0)
    designer = lambda rho: sk.swipt_transform(base, rho, 0.2)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0, seed=14)
    a = sk.rp_sweep(designer, [0.0, 0.5, 1.0], spec, canon, 1000)
    b = sk.rp_sweep(designer, [0.0, 0.5, 1.0], spec, canon, 1000)
    assert [(p.ser, p.pd_uw) for p in a] == [(p.ser, p.pd_uw) for p in b]


def test_rp_sweep_rejects_empty(canon):
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0)
    with pytest.raises(ValueError):
        sk.rp_sweep(lambda r: sk.layout_info(4, 5.0), [], spec, canon, 1000)


def test_qam_reference_values():
    q4 = sk.qam_reference(4, 6.0)
    want = {(s1 * math.sqrt(3.0), s2 * math.sqrt(3.0))
            for s1 in (-1, 1) for s2 in (-1, 1)}
    got = {(round(p.real, 12), round(p.imag, 12)) for p in q4.base_points}
    assert {(round(a, 12), round(b, 12)) for a, b in want} == got
    q16 = sk.qam_reference(16, 1.0)
    assert q16.avg_power() == pytest.approx(1.0, rel=1e-12)
    assert math.sqrt(sk.codebook_min_dist(q16)) == pytest.approx(2 * math.sqrt(0.1), rel=1e-12)
    q64 = sk.qam_reference(64, 2.0)
    assert q64.avg_power() == pytest.approx(2.0, rel=1e-12)


def test_qam_reference_rejects_unsupported():
    with pytest.raises(ValueError):
        sk.qam_reference(8, 1.0)


def test_sweep_csv_format(tmp_path, canon):
    base = sk.layout_info(4, 5.0)
    designer = lambda rho: sk.swipt_transform(base, rho, 0.5)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0, seed=1)
    rows = sk.rp_sweep(designer, [0.0, 1.0], spec, canon, 1000)
    path = tmp_path / "sweep.csv"
    sk.write_sweep_csv(path, rows, 16.99, 1000, 1, "meta=1")
    lines = path.read_text().splitlines()
    assert lines[0] == "# meta=1"
    assert lines[1] == "control,ser,ci,pd_uw,snr_db,trials,seed"
    assert len(lines) == 4


def test_ser_mc_reports_pd_of_the_same_samples(canon):
    # the SER pass counts errors only; the Monte Carlo P_d reference sums the
    # harvester over the very samples ser_mc decodes, from one pass
    design = sk.swipt_transform(sk.layout_info(16, 120.0), 0.5, sk.pon_approx(120.0))
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=120.0, seed=17)
    cw = design.base_points.reshape(-1, 1)
    errors, power = monte_carlo(
        [cw, cw], spec, 150_000,
        [lambda msg, y: int(np.count_nonzero(ml_decoder(cw)(y) != msg)),
         lambda msg, y: float(np.sum(canon.evaluate(np.abs(y) ** 2)))])
    assert errors == sk.ser_mc(design, spec, 150_000).errors
    assert power / 150_000 == sk.delivered_power_mc(design, spec, canon, 150_000)


def test_ser_mc_decoder_memory_is_bounded():
    import tracemalloc

    rng = np.random.default_rng(3)
    cw = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    tracemalloc.start()
    try:
        sk.ser_mc(cw, sk.ChannelSpec(snr=10.0, p_a_uw=2.0, seed=1), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (100000, 64, 4) complex distance tensor alone would be 410 MB
    assert peak < 150e6


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "eh_fitted.json"


@pytest.fixture(scope="module")
def clipped():
    """A fitted harvester with a clip: exactly 0 below its turn-on (~254 uW)."""
    return sk.EhModel.load(FIXTURE)


def _pd_cases(h):
    pa = 100.0
    p_on = sk.optimal_pon(pa, h)
    cb = sk.build_info_codebook(16, 2, pa, sk.GreedyConfig(seed=1))
    return [sk.swipt_transform(sk.layout_info(16, pa), 0.5, p_on),
            sk.swipt_transform(sk.layout_info(16, pa), 1.0, p_on),
            sk.swipt_codebook(cb, 0.5, p_on)]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["ring-rho0.5", "onoff-rho1", "greedy16x2"])
def test_delivered_power_matches_monte_carlo(clipped, case):
    design = _pd_cases(clipped)[case]
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=100.0, seed=40 + case)
    trials = 2_000_000
    exact = sk.delivered_power(design, spec, clipped)
    mc = sk.delivered_power_mc(design, spec, clipped, trials)
    # per-trial variance is at most the pooled per-symbol variance of f
    squared = SimpleNamespace(evaluate=lambda p: np.asarray(clipped.evaluate(p)) ** 2)
    second = sk.delivered_power_mc(design, spec, squared, trials)
    se = math.sqrt(max(second - mc * mc, 0.0) / trials)
    assert exact > 0.0
    assert abs(exact - mc) <= 4.0 * se


def test_delivered_power_is_zero_below_turn_on(clipped):
    pa = 5.0
    cb = sk.build_info_codebook(16, 2, pa, sk.GreedyConfig(seed=1))
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=pa)
    for design in (sk.layout_info(16, pa), sk.swipt_codebook(cb, 0.5, 0.5)):
        assert sk.delivered_power(design, spec, clipped) == 0.0
    assert sk.delivered_power(sk.layout_info(16, 100.0),
                              sk.ChannelSpec(snr=50.0, p_a_uw=100.0), clipped) > 0.0


def test_delivered_power_noiseless_limit(clipped, canon):
    spec = sk.ChannelSpec(snr=np.inf, p_a_uw=100.0)
    for design in _pd_cases(clipped):
        for h in (clipped, canon):
            assert sk.delivered_power(design, spec, h) == sk.delivered_power_noiseless(design, h)


def test_rp_sweep_rows_equal_single_design_runs(clipped):
    pa, trials = 100.0, 30_000
    base = sk.layout_info(8, pa)
    flat_design = np.full(8, math.sqrt(pa), dtype=complex)   # degenerate: all codewords equal

    def designer(rho):
        return flat_design if rho == 1.0 else sk.swipt_transform(base, rho, 0.4)

    spec = sk.ChannelSpec(snr=10.0, p_a_uw=pa, seed=23)
    controls = [0.0, 0.3, 0.6, 1.0, 0.9]
    rows = sk.rp_sweep(designer, controls, spec, clipped, trials)
    for row, c in zip(rows, controls):
        res = sk.ser_mc(designer(c), spec, trials)
        assert row.control == c
        assert (row.ser, row.ci_halfwidth) == (res.ser, res.ci_halfwidth)
        assert row.pd_uw == sk.delivered_power(designer(c), spec, clipped)
    assert rows[3].ser == 7 / 8 and rows[0].ser > 0.0


def test_rp_sweep_rejects_mixed_shapes(canon):
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=5.0)
    with pytest.raises(ValueError):
        sk.rp_sweep(lambda m: sk.layout_info(int(m), 5.0), [4, 8], spec, canon, 1000)


def test_rp_sweep_memory_is_one_chunk(clipped):
    import tracemalloc

    pa = 100.0
    base = sk.layout_info(16, pa)
    designer = lambda rho: sk.swipt_transform(base, rho, 0.3)
    spec = sk.ChannelSpec(snr=50.0, p_a_uw=pa, seed=5)
    tracemalloc.start()
    try:
        sk.rp_sweep(designer, list(np.linspace(0, 1, 11)), spec, clipped, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1M trials of noise alone are 16 MB, and their (1M, 16) decoder distances 128 MB
    assert peak < 40e6


def _whole_chunk_totals(cws, spec, trials, stats):
    """The unblocked pass: every chunk decoded as one block on this thread."""
    totals = [0] * len(cws)
    for msg, w in sample_channel(*cws[0].shape, spec, trials):
        for p, (cw, stat) in enumerate(zip(cws, stats)):
            if stat is not None:
                totals[p] += stat(msg, cw[msg] + w)
    return totals


def test_monte_carlo_blocks_give_the_whole_chunk_counts(monkeypatch, two_workers):
    # a block size that divides neither chunk, over two chunks of trials
    monkeypatch.setattr(channel, "_BLOCK", 777)
    trials = channel._CHUNK + 5000
    spec = sk.ChannelSpec(snr=8.0, p_a_uw=60.0, seed=12)
    ring = sk.swipt_transform(sk.layout_info(16, 60.0), 0.5, 0.3).codewords
    flat = np.full((16, 1), math.sqrt(60.0), dtype=complex)   # degenerate
    mac = sk.build_system(sk.Topology(kind="mac", m_list=[4, 4], snrs=[8.0], p_a_uw=60.0),
                          sk.TrainConfig(seed=3), hidden=(64,))
    (received,) = sk.received_codebooks(mac)
    decide = sk.make_decoder(mac, 0, stream=None)

    def ml_errors(cw):
        decide_ml = ml_decoder(cw)
        return lambda msg, y: int(np.count_nonzero(decide_ml(y) != msg))

    def mac_errors(msg, y):
        truth = np.stack(np.unravel_index(msg, (4, 4)), axis=1)
        return np.count_nonzero(decide(y) != truth, axis=0)

    cws = [ring, flat, received, ring]
    stats = [ml_errors(ring), ml_errors(flat), mac_errors, None]
    reference = [np.asarray(t).tolist() for t in _whole_chunk_totals(cws, spec, trials, stats)]
    assert reference[1] > 0 and min(reference[2]) > 0 and reference[3] == 0
    for pool in (None, two_workers):
        monkeypatch.setattr(channel, "_decode_pool", lambda pool=pool: pool)
        totals = monte_carlo(cws, spec, trials, stats)
        assert [np.asarray(t).tolist() for t in totals] == reference


@pytest.mark.skipif(_thread_functions() is None, reason="numpy's OpenBLAS not found")
def test_monte_carlo_decodes_on_one_blas_thread_and_restores_the_count():
    get, set_ = _thread_functions()
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=1.0, seed=2)
    cw = sk.layout_info(8, 1.0).codewords
    seen = []

    def record(msg, y):
        seen.append(get())
        return 0

    def fail(msg, y):
        raise KeyError(len(y))

    caller = get()
    try:
        set_(2)
        monte_carlo([cw], spec, 30_000, [record])
        assert set(seen) == {1}
        assert get() == 2
        with pytest.raises(KeyError):
            monte_carlo([cw], spec, 30_000, [fail])
        assert get() == 2
    finally:
        set_(caller)


def _ring_errors(seed):
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=100.0, seed=seed)
    return sk.ser_mc(sk.layout_info(16, 100.0), spec, 30_000).errors


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_monte_carlo_runs_in_a_forked_child():
    import multiprocessing

    expected = _ring_errors(3)   # the parent's decode pool now has its threads
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_ring_errors, (3,)).get(timeout=30) == expected


def test_ser_mc_memory_is_blocks_not_a_chunk_of_distances(monkeypatch, two_workers):
    import tracemalloc

    monkeypatch.setattr(channel, "_decode_pool", lambda: two_workers)
    rng = np.random.default_rng(4)
    cw = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=2.0, seed=1)
    sk.ser_mc(cw, spec, 1000)   # the pool's threads exist before tracing starts
    tracemalloc.start()
    try:
        sk.ser_mc(cw, spec, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # decoding a whole chunk needs its (100000, 64) float distances, 51 MB
    # alone; blocked, the peak (about 21 MB) is one chunk's draws, about 15 MB
    # while the noise is drawn, plus one (12500, 64) block, 6.4 MB, per worker
    assert peak < 32e6
