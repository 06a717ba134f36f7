import math
import os
import subprocess
import sys
import warnings
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptkit as sk
from swiptkit import channel
from swiptkit._blas import _thread_functions
from swiptkit.channel import (_MARGIN, _certified_sq_radii, error_counter, ml_decoder,
                              monte_carlo, sample_channel)


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


def _awgn_reference(x, spec, rng):
    """The three-temporary form of ``awgn``: the byte reference of its in-place one."""
    x = np.asarray(x, dtype=complex)
    sd = math.sqrt(spec.sigma_sq / 2.0)
    return x + rng.normal(0.0, sd, x.shape) + 1j * rng.normal(0.0, sd, x.shape)


_SIGNED_ZEROS = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])


@pytest.mark.parametrize("snr", [np.inf, 50.0, 1e-3, 1e-300])   # sigma up to 7e149
@pytest.mark.parametrize("x", [
    np.zeros((6, 3)),
    _SIGNED_ZEROS,
    np.array(-0.0),
    np.random.default_rng(1).normal(size=(40, 2)) + 1j * np.random.default_rng(2).normal(size=(40, 2)),
    1e100 * np.random.default_rng(3).normal(size=17),
], ids=["zeros", "signed-zeros", "scalar", "random", "large"])
def test_awgn_is_byte_identical_to_the_reference(x, snr):
    spec = sk.ChannelSpec(snr=snr, p_a_uw=1.0)
    before = x.copy()
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    out, ref = sk.awgn(x, spec, rng), _awgn_reference(x, spec, ref_rng)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state   # same draws
    assert before.tobytes() == x.tobytes()   # the input is not written


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


def test_qfunc_matches_scipy_erfc():
    from scipy.special import erfc

    x = np.linspace(-10.0, 40.0, 5001)
    ref = 0.5 * erfc(x / math.sqrt(2.0))
    q = sk.qfunc(x)
    assert isinstance(q, np.ndarray) and q.shape == x.shape
    live = ref > 1e-300
    assert np.all(np.abs(q[live] - ref[live]) <= 1e-13 * ref[live])
    assert sk.qfunc(x.reshape(5001, 1)).shape == (5001, 1)
    assert type(sk.qfunc(1.5)) is float and sk.qfunc(1.5) == sk.qfunc(np.array([1.5]))[0]
    assert sk.qfunc(0.0) == 0.5


def test_qfunc_loads_no_scipy():
    code = ("import sys\n"
            "import numpy as np\n"
            "from swiptkit.channel import qfunc\n"
            "qfunc(2.0), qfunc(np.array([0.5, 3.0]))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        cw.shape, spec, 150_000,
        lambda msg, w: np.array([_ml_errors(cw, msg, cw[msg] + w),
                                 np.sum(canon.evaluate(np.abs(cw[msg] + w) ** 2))]))
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


# --- the Bessel kernel of the delivered-power quadrature --------------------

_I0E_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, np.nextafter(2.0 ** -1022, 0.0),
                       8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), -8.0, 1e308,
                       -1e308, np.finfo(float).max, np.inf, -np.inf])


def test_i0e_is_scipys_bit_for_bit():
    from scipy.special import i0e

    rng = np.random.default_rng(21)
    x = np.concatenate([rng.uniform(-16.0, 16.0, 400_000), rng.exponential(60.0, 400_000),
                        rng.choice([-1.0, 1.0], 300_000) * 10.0 ** rng.uniform(-320, 308, 300_000),
                        _I0E_EDGES])
    assert channel._i0e(x).tobytes() == i0e(x).tobytes()
    # shape kept, NaN propagated
    grid = x[:60_005].reshape(-1, 5)
    assert channel._i0e(grid).shape == grid.shape
    assert channel._i0e(grid).tobytes() == i0e(grid).tobytes()
    assert np.isnan(channel._i0e(np.array([np.nan, -np.nan]))).all()
    assert channel._i0e(np.zeros(0)).shape == (0,)


@given(st.lists(st.floats(allow_nan=False, allow_subnormal=True), min_size=1, max_size=40))
def test_i0e_property_equals_scipy(values):
    # under the randomized profile of CI, on new examples, each list a new mix
    # of the two Chebyshev branches
    from scipy.special import i0e

    x = np.array(values)
    assert channel._i0e(x).tobytes() == i0e(x).tobytes()


@settings(max_examples=max(25, settings.default.max_examples // 10))
@given(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=70, unique=True),
       st.sampled_from([np.inf, 1.0, 10.0, 50.0, 1000.0]), st.booleans(),
       st.integers(0, 2**16))
def test_delivered_power_quadrature_is_the_same_at_every_block(clipped, canon, amps, snr,
                                                               fitted, seed):
    # 1-70 distinct amplitudes, at u·sigma for u in [0, 30], so a grid's
    # x = 2ar/sigma^2 lies below 8 (u < 0.32), above it (u > 12.3) or on both
    # sides; the harvester is the fitted net or the canonical logistic
    spec = sk.ChannelSpec(snr=snr, p_a_uw=100.0)
    scale = math.sqrt(spec.sigma_sq) or 1.0
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(len(amps)))
    design = scale * np.array(amps) * phases
    h = clipped if fitted else canon
    results = []
    for block in (1, 3, 8, 64):
        with mock.patch.object(channel, "_PD_BLOCK", block):
            results.append(sk.delivered_power(design, spec, h))
    assert len(set(results)) == 1


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


def _whole_chunk_totals(shape, spec, trials, stat):
    """The unblocked pass: every chunk decoded as one block on this thread."""
    return sum(stat(msg, w) for msg, w in sample_channel(*shape, spec, trials))


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
    decide = sk.make_decoder(mac, 0)

    def ml_errors(cw):
        decide_ml = ml_decoder(cw)
        return lambda msg, w: int(np.count_nonzero(decide_ml(cw[msg] + w) != msg))

    def mac_errors(msg, w):
        truth = np.stack(np.unravel_index(msg, (4, 4)), axis=1)
        return np.count_nonzero(decide(received[msg] + w) != truth, axis=0)

    # one array-valued statistic over the same draws: the ring's, the flat
    # design's and the MAC codebook's minimum-distance errors, the MAC
    # decoder's two streams', then one error count of all four at once: three
    # certified minimum-distance entries and the learned one
    labels = np.stack(np.unravel_index(np.arange(16), (4, 4)), axis=1)
    counter = error_counter([*map(_ml_entry, (ring, flat, received)),
                             (received, decide, labels, np.zeros(16))])
    stats = [ml_errors(ring), ml_errors(flat), ml_errors(received), mac_errors, counter]
    counts = lambda msg, w: np.hstack([stat(msg, w) for stat in stats])
    reference = _whole_chunk_totals(ring.shape, spec, trials, counts).tolist()
    assert reference[1] > 0 and reference[2] > 0 and min(reference[3:5]) > 0
    assert reference[5:] == reference[:5]
    for pool in (None, two_workers):
        monkeypatch.setattr(channel, "_decode_pool", lambda pool=pool: pool)
        assert monte_carlo(ring.shape, spec, trials, counts).tolist() == reference


def test_a_one_row_tail_is_decoded_with_the_block_before_it():
    # 12,501 trials are one chunk of one full block and one row. NumPy decodes
    # a lone row by gemv, whose sums can round differently from the gemm of a
    # longer block, so a tail row on the bisector of two codewords could be
    # decided differently from the whole chunk's decision
    trials = channel._BLOCK + 1
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=1.0, seed=0)
    ((msg, w),) = sample_channel(2, 1, spec, trials)
    sent, noise = int(msg[-1]), w[-1, 0]
    rng = np.random.default_rng(1)
    for c in rng.normal(size=(16, 2)) @ np.array([1.0, 1j]):
        cw = np.empty((2, 1), dtype=complex)
        cw[sent, 0], cw[1 - sent, 0] = c, c + 2.0 * noise   # y = c + noise: the bisector
        reference = _whole_chunk_totals(cw.shape, spec, trials,
                                        lambda msg, w: _ml_errors(cw, msg, cw[msg] + w))
        assert sk.ser_mc(cw, spec, trials).errors == reference


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
        monte_carlo(cw.shape, spec, 30_000, record)
        assert set(seen) == {1}
        assert get() == 2
        with pytest.raises(KeyError):
            monte_carlo(cw.shape, spec, 30_000, fail)
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
    # alone; blocked, the peak is one chunk's draws, about 15 MB while the
    # noise is drawn, plus one block's rows and one (1008-2015, 64) slice of
    # distances, at most 1 MB, per worker
    assert peak < 32e6


def test_ser_mc_holds_one_chunk_of_draws_at_a_time(monkeypatch, two_workers):
    import tracemalloc

    monkeypatch.setattr(channel, "_decode_pool", lambda: two_workers)
    cw = sk.build_info_codebook(64, 3, 100.0, sk.GreedyConfig(seed=0, candidate_cap=20_000))
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=100.0, seed=3)
    sk.ser_mc(cw, spec, 1000)   # the pool's threads exist before tracing starts
    tracemalloc.start()
    try:
        sk.ser_mc(cw, spec, 300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # drawing a chunk of 100,000 (M = 64, n = 3) trials peaks at about 10 MB
    # (its messages, the float zeros, the complex noise and one normal draw);
    # a pass that still held the previous chunk's messages and noise, 5.6 MB,
    # while drawing the next peaked at about 15 MB
    assert peak < 12e6

# --- the certified fast path of the minimum-distance error count -----------

# the examples the loaded profile asks for: the certification properties
# draw at least that many (1,000 under the randomized profile of CI)
_PROFILE_EXAMPLES = settings.default.max_examples


def _unit_power(cw: np.ndarray) -> np.ndarray:
    cw = np.asarray(cw, dtype=complex)
    cw = cw.reshape(-1, 1) if cw.ndim == 1 else cw
    return cw / math.sqrt(float(np.mean(np.abs(cw) ** 2)))


@cache
def _greedy_codebook(m: int, n: int) -> sk.Codebook:
    return sk.build_info_codebook(m, n, 1.0, sk.GreedyConfig(candidate_cap=50_000, seed=1))


def _greedy(m: int, n: int) -> np.ndarray:
    return _unit_power(_greedy_codebook(m, n).codewords)


def _near_pair(m: int, n: int, seed: int, factor: float) -> np.ndarray:
    """Gaussian codewords, then c_0 at the origin and c_1 at squared distance
    factor·s·R² from it: just certified above factor 1, not below."""
    rng = np.random.default_rng(seed)
    cw = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    cw[0] = 0.0
    r_sq = float(np.max(np.sum(np.abs(cw[2:]) ** 2, axis=1)))
    direction = rng.normal(size=n) + 1j * rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    cw[1] = math.sqrt(factor * _MARGIN * r_sq) * direction
    return cw


def _zeros_and_a_repeat(m: int, n: int, seed: int) -> np.ndarray:
    """Gaussian codewords (m >= 8) with zero codewords at rows 2, 5 and
    m - 1, the last two with -0.0 parts, and row m - 2 repeating row 3."""
    rng = np.random.default_rng(seed)
    cw = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    cw[2] = 0.0
    cw.real[5], cw.imag[5] = -0.0, 0.0
    cw.real[m - 1], cw.imag[m - 1] = 0.0, -0.0
    cw[m - 2] = cw[3]
    return cw


_designs = st.one_of(
    st.builds(lambda m, rho: _unit_power(
        sk.swipt_transform(sk.layout_info(m, 1.0), rho, 0.3).codewords),
        st.sampled_from([2, 4, 8, 16, 32]),
        st.one_of(st.floats(0.0, 1.0), st.just(1.0))),   # ρ = 1: repeated zeros
    st.builds(_greedy, st.sampled_from([4, 8, 16]), st.sampled_from([2, 3])),
    st.builds(lambda m: _unit_power(sk.qam_reference(m, 1.0).codewords),
              st.sampled_from([4, 16, 64])),
    st.builds(lambda m, n, seed: _unit_power(
        np.random.default_rng(seed).normal(size=(m, n, 2)) @ np.array([1.0, 1j])),
        st.integers(2, 32), st.integers(1, 4), st.integers(0, 2**16)),
    st.builds(lambda m, n, seed, f: _unit_power(_near_pair(m, n, seed, f)),
              st.integers(3, 16), st.integers(1, 3), st.integers(0, 2**16),
              st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3])),
    st.builds(lambda m, n, seed: _unit_power(_zeros_and_a_repeat(m, n, seed)),
              st.integers(8, 16), st.integers(1, 3), st.integers(0, 2**16)),
)


def _adversarial_noise(cw: np.ndarray):
    """Per codeword m: noise at (1 ± 1e-9)·τ_m, τ_m² = t_m, toward the
    nearest codeword c_j of another value, and to the bisector of c_m and
    c_j."""
    t = _certified_sq_radii(cw)
    d_sq = np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2)
    d_sq[np.all(cw[:, None, :] == cw[None, :, :], axis=2)] = np.inf
    msg, noise = [], []
    for m, j in enumerate(np.argmin(d_sq, axis=1)):
        step = cw[j] - cw[m]
        unit = step / math.sqrt(d_sq[m, j])
        for f in (1.0 - 1e-9, 1.0 + 1e-9):
            msg.append(m)
            noise.append(f * math.sqrt(t[m]) * unit)
        msg.append(m)
        noise.append(0.5 * step)
    return np.array(msg), np.array(noise)


def _ml_errors(cw, msg, y) -> int:
    return int(np.count_nonzero(ml_decoder(cw)(y) != msg))


def _ml_entry(cw):
    """The minimum-distance entry of ``error_counter``, as ``_ser_results``
    builds it: one decision column, the codeword index, and the certified
    radii."""
    return cw, ml_decoder(cw), np.arange(len(cw))[:, None], _certified_sq_radii(cw)


@settings(max_examples=max(150, _PROFILE_EXAMPLES))
@given(_designs, st.floats(-300.0, 300.0),
       st.one_of(st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e), st.just(math.inf)),
       st.integers(0, 2**16))
def test_certified_count_equals_the_ml_count_on_whole_blocks(unit_cw, log_pa, snr, seed):
    pa = 10.0 ** log_pa
    cw = unit_cw * math.sqrt(pa)
    count = error_counter([_ml_entry(cw)])
    spec = sk.ChannelSpec(snr=snr, p_a_uw=pa, seed=seed)
    (msg, w), = sample_channel(*cw.shape, spec, 3000)
    adv_msg, adv_w = _adversarial_noise(cw)
    for m, noise in ((msg, w), (adv_msg, adv_w),
                     (np.concatenate([msg, adv_msg]), np.concatenate([w, adv_w]))):
        assert count(m, noise).tolist() == [_ml_errors(cw, m, cw[m] + noise)]
    # any two rows, and a lone row of a two-row block, decode as in their block
    for lo in range(0, 40, 2):
        for hi in (lo + 2, lo + 1):
            m, noise = msg[lo:hi], w[lo:hi]
            assert count(m, noise).tolist() == [_ml_errors(cw, m, cw[m] + noise)]


@settings(max_examples=max(40, _PROFILE_EXAMPLES))
@given(st.sampled_from([8, 16]), st.sampled_from([1, 2]),
       st.lists(st.one_of(st.floats(0.0, 1.0), st.just(1.0)), min_size=1, max_size=6),
       st.floats(-1.0, 4.0).map(lambda e: 10.0 ** e), st.integers(0, 2**16))
def test_certified_pass_counts_every_design_as_ml_decoder_does(m, n, rhos, snr, seed):
    # one pass scores every design from one |w|² per block: each count equals
    # ml_decoder's on every row of the chunk, and a degenerate design reports
    # (M - 1)/M without a decode
    base = sk.layout_info(m, 1.0) if n == 1 else _greedy_codebook(m, n)
    cws = [np.full((m, n), 1.0 + 0j),
           *(sk.swipt_transform(base, rho, 0.3).codewords for rho in rhos),
           _unit_power(_zeros_and_a_repeat(m, n, seed))]
    spec = sk.ChannelSpec(snr=snr, p_a_uw=1.0, seed=seed)
    trials = 3001
    reference = _whole_chunk_totals((m, n), spec, trials, lambda msg, w: np.array(
        [_ml_errors(cw, msg, cw[msg] + w) for cw in cws])).tolist()
    with mock.patch.object(channel, "_BLOCK", 500):
        results = channel._ser_results(cws, spec, trials)
    assert results[0].degenerate and results[0].errors == round((m - 1) / m * trials)
    assert [r.errors for r in results[1:]] == reference[1:]
    assert not any(r.degenerate for r in results[1:])


def _expected_radii(cw: np.ndarray) -> np.ndarray:
    """t_m by its definition: (1 - s)²/4 of the squared distance from c_m to
    its nearest other codeword, the nearest nonzero one from a zero codeword,
    where that is at least s·R², else 0."""
    d_sq = np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d_sq, np.inf)
    zero = np.all(cw == 0, axis=1)
    d_sq[np.ix_(zero, zero)] = np.inf
    delta_sq = d_sq.min(axis=1)
    r_sq = float(np.max(np.sum(np.abs(cw) ** 2, axis=1)))
    return np.where(delta_sq >= _MARGIN * r_sq, (1 - _MARGIN) ** 2 / 4 * delta_sq, 0.0)


def test_certified_radii_are_half_the_nearest_distance_inside_the_guards():
    onoff = _unit_power(sk.swipt_transform(sk.layout_info(16, 1.0), 1.0, 0.3).codewords)
    mixed = _unit_power(_zeros_and_a_repeat(12, 2, 3))
    for cw in (_unit_power(sk.layout_info(16, 1.0).codewords), _greedy(16, 2), onoff, mixed,
               _near_pair(8, 2, 3, 1.0 + 1e-3), _near_pair(8, 2, 3, 1.0 - 1e-3)):
        r_sq = float(np.max(np.sum(np.abs(cw) ** 2, axis=1)))
        assert np.allclose(_certified_sq_radii(cw), _expected_radii(cw), rtol=1e-12, atol=0.0)
        for scale in (1e-280, 2e307 / r_sq):   # max |c|² outside the guards: nothing certified
            assert not np.any(_certified_sq_radii(cw * math.sqrt(scale)))
    # repeated zeros take their radius from the nearest nonzero codeword,
    # whatever the signs of their zero parts
    t = _certified_sq_radii(onoff)
    zeros = np.flatnonzero(onoff[:, 0] == 0)
    nearest_sq = float(np.min(np.abs(onoff[onoff[:, 0] != 0, 0]) ** 2))
    assert zeros.size > 1
    assert np.allclose(t[zeros], (1 - _MARGIN) ** 2 / 4 * nearest_sq, rtol=1e-12, atol=0.0)
    signed = onoff.copy()
    signed.real[zeros[1::2]], signed.imag[zeros[::3]] = -0.0, -0.0
    assert np.signbit(signed.real[zeros[1]]) and _certified_sq_radii(signed).tolist() == t.tolist()
    # a repeated nonzero codeword is never certified; the zeros of the same design are
    t = _certified_sq_radii(mixed)
    assert t[3] == t[10] == 0.0 and t[[2, 5, 11]].all()
    assert _certified_sq_radii(_near_pair(8, 2, 3, 1.0 + 1e-3))[:2].all()
    assert not _certified_sq_radii(_near_pair(8, 2, 3, 1.0 - 1e-3))[:2].any()
    # past n = 345 the rounding bound no longer fits under the margin
    rng = np.random.default_rng(0)
    for n, certified in ((345, True), (346, False)):
        cw = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        assert _certified_sq_radii(cw).all() == certified


def test_ml_decoder_decides_the_first_zero_near_a_repeated_zero():
    # for a finite row every zero column's reference value is exactly +0.0
    # (±0 products, and |c|² = +0), so np.argmin takes the first zero index
    rng = np.random.default_rng(5)
    for n in (1, 3):
        cw = _zeros_and_a_repeat(12, n, 7)
        nearest = float(np.sqrt(np.min(np.sum(np.abs(cw[np.any(cw != 0, axis=1)]) ** 2,
                                               axis=1))))
        direction = rng.normal(size=(400, n)) + 1j * rng.normal(size=(400, n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        y = np.concatenate([direction * rng.uniform(0.0, 0.49, (400, 1)) * nearest,
                            np.zeros((1, n)), np.full((1, n), complex(-0.0, -0.0)),
                            np.full((1, n), complex(5e-324, -5e-324))])
        assert ml_decoder(cw)(y).tolist() == [2] * len(y)


def test_certified_count_skips_most_rows_and_keeps_the_tie_rule():
    (msg, w), = sample_channel(16, 1, sk.ChannelSpec(snr=50.0, p_a_uw=100.0, seed=2), 20_000)
    w_sq = np.abs(w[:, 0]) ** 2
    ring = sk.layout_info(16, 100.0)
    onoff = sk.swipt_transform(ring, 1.0, sk.pon_approx(100.0)).codewords
    assert np.count_nonzero(onoff == 0) > 1
    for cw in (ring.codewords, onoff):   # the On-Off zeros are certified too
        assert np.mean(w_sq < _certified_sq_radii(cw)[msg]) > 0.98
    # certified rows sent as a later repeated zero are errors: decided as the
    # first zero, without a decode
    zeros = np.flatnonzero(onoff[:, 0] == 0)
    sent = np.isin(msg, zeros) & (w_sq < _certified_sq_radii(onoff)[msg])
    assert error_counter([_ml_entry(onoff)])(msg[sent], w[sent]).tolist() \
        == [np.count_nonzero(msg[sent] != zeros[0])] == [_ml_errors(onoff, msg[sent],
                                                                    onoff[msg[sent]] + w[sent])]
    # on the exact bisector of ±a both reference values are equal: the lower
    # index wins, so the row sent as 1 is an error and the row sent as 0 is not
    bpsk = np.array([[-2.0 + 0j], [2.0 + 0j]])
    count = error_counter([_ml_entry(bpsk)])
    msg = np.array([1, 0])
    assert count(msg, -bpsk[msg]).tolist() == [1] == [_ml_errors(bpsk, msg, 0 * bpsk[msg])]
    # one uncertified row among certified ones: decoded as within its block
    msg, w = np.array([0, 1, 1, 0]), np.array([[0.0], [0.0], [-2.0], [0.0]], dtype=complex)
    assert count(msg, w).tolist() == [1] == [_ml_errors(bpsk, msg, bpsk[msg] + w)]


def test_a_lone_uncertified_row_decides_as_in_its_block():
    # near a bisector the last bit of a reference value decides; numpy takes
    # a one-row product through gemv, which may round apart from the block's
    # gemm, so the counter must not decode a lone row of a block by itself
    rng = np.random.default_rng(0)
    cw = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    count = error_counter([_ml_entry(cw)])
    step = cw[1] - cw[0]
    near = (cw[0] + cw[1]) / 2 + 1j * step * rng.uniform(-1.0, 1.0, (500, 1)) \
        + step * rng.normal(size=(500, 1)) * 1e-16
    for row in near:
        msg, w = np.array([2, 0]), np.array([[0.0], row - cw[0]])   # row 0 is certified
        assert count(msg, w).tolist() == [_ml_errors(cw, msg, cw[msg] + w)]


@settings(max_examples=max(30, _PROFILE_EXAMPLES // 10))
@given(st.sampled_from([276, 300]), st.sampled_from([1, 16]), st.integers(0, 10),
       st.integers(1, 11), st.integers(1, 200), st.integers(0, 2**16))
def test_certified_count_decides_a_short_uncertified_subset_as_in_its_block(
        m, n, panels, tail, certified, seed):
    # at these M the subset's rows past its last multiple of 12 (and at
    # 2n = 32 every row of a short subset) round apart from the same rows of
    # the block on OpenBLAS: the decisions, near ties too, are the block's
    rng = np.random.default_rng(seed)
    cw = rng.normal(size=(m, n, 2)) @ np.array([1.0, 1j])
    t = _certified_sq_radii(cw)
    uncertified = 12 * panels + tail
    # uncertified rows within 1e-9 of a bisector of c_a and another c_b
    a = rng.integers(0, m, uncertified)
    b = (a + rng.integers(1, m, uncertified)) % m
    step = cw[b] - cw[a]
    w_far = (0.5 + 1e-9 * rng.normal(size=(uncertified, 1))) * step \
        + 1e-9 * np.linalg.norm(step, axis=1, keepdims=True) \
        * (rng.normal(size=(uncertified, n, 2)) @ np.array([1.0, 1j]))
    # certified rows: noise of half their radius
    sent = rng.choice(np.flatnonzero(t > 0), certified)
    w_near = rng.normal(size=(certified, n, 2)) @ np.array([1.0, 1j])
    w_near *= 0.5 * np.sqrt(t[sent])[:, None] / np.linalg.norm(w_near, axis=1, keepdims=True)
    order = rng.permutation(uncertified + certified)
    msg, w = np.concatenate([a, sent])[order], np.concatenate([w_far, w_near])[order]
    assert np.count_nonzero(~(np.sum(np.abs(w) ** 2, axis=1) < t[msg])) == uncertified
    with channel.one_blas_thread():   # as the decode pool runs
        assert error_counter([_ml_entry(cw)])(msg, w).tolist() \
            == [_ml_errors(cw, msg, cw[msg] + w)]


@pytest.mark.parametrize("pa,snr", [(1e-300, 1e-3), (1e-300, math.inf), (1e300, 1e-3),
                                    (1e300, 1e-8), (1.0, 1e-308)])
def test_ser_mc_at_extreme_scales_warns_nothing(pa, snr):
    for design in (sk.layout_info(16, pa), sk.qam_reference(4, pa)):
        spec = sk.ChannelSpec(snr=snr, p_a_uw=pa, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sk.ser_mc(design, spec, 5000)
        (msg, w), = sample_channel(*design.codewords.shape, spec, 5000)
        assert res.errors == _ml_errors(design.codewords, msg, design.codewords[msg] + w)


# --- an oracle for the Monte Carlo SER: the closed-form bracket ------------

def _ser_bracket(cw: np.ndarray, sigma_sq: float) -> tuple[float, float]:
    """ML SER of distinct codewords under AWGN lies between the
    nearest-neighbour term (1/M)·Σ_i max_j Q(d_ij/sqrt(2σ²)) and the union
    bound (1/M)·Σ_i Σ_{j≠i} Q(d_ij/sqrt(2σ²))."""
    d = np.sqrt(np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2))
    q = sk.qfunc(d / math.sqrt(2.0 * sigma_sq))
    np.fill_diagonal(q, 0.0)
    return float(np.mean(q.max(axis=1))), float(np.mean(q.sum(axis=1)))


@cache
def _learned(m: int, n: int) -> sk.AeSystem:
    """A P2P system trained for 300 iterations at P_a = 100."""
    topo = sk.Topology(kind="p2p", m_list=[m], snrs=[20.0], p_a_uw=100.0)
    cfg = sk.TrainConfig(n=n, iterations=300, seed=m + n)
    return sk.train(sk.build_system(topo, cfg, hidden=(32,)))[0]


# (unit-power codewords, the learned system that sends them or None)
_oracle_designs = st.one_of(
    st.builds(lambda m, rho: (_unit_power(
        sk.swipt_transform(sk.layout_info(m, 1.0), rho, 0.3).codewords), None),
        st.sampled_from([4, 8, 16, 32]), st.floats(0.0, 0.9)),
    st.builds(lambda m, n: (_greedy(m, n), None),
              st.sampled_from([8, 16, 64]), st.sampled_from([2, 3])),
    st.builds(lambda m: (_unit_power(sk.qam_reference(m, 1.0).codewords), None),
              st.sampled_from([4, 16, 64])),
    st.builds(lambda m, n: (_unit_power(sk.extract_design(_learned(m, n))[0].codewords),
                            _learned(m, n)),
              st.sampled_from([4, 8]), st.sampled_from([1, 2])),
)


@settings(max_examples=40)
@given(_oracle_designs, st.sampled_from([0.5, 1.0, 1.5]), st.integers(0, 2**16))
def test_ser_mc_lies_in_the_closed_form_bracket(design, x, seed):
    # distinct codewords at P_a = 100; the SNR puts the nearest pair x noise
    # deviations from its bisector
    unit_cw, system = design
    cw = unit_cw * 10.0
    d_sq = np.sum(np.abs(cw[:, None, :] - cw[None, :, :]) ** 2, axis=2)
    dmin_sq = float(d_sq[~np.eye(len(cw), dtype=bool)].min())
    sigma_sq = dmin_sq / (2.0 * x * x)
    spec = sk.ChannelSpec(snr=100.0 / sigma_sq, p_a_uw=100.0, seed=seed)
    res = sk.ser_mc(cw, spec, 50_000)
    lower, upper = _ser_bracket(cw, spec.sigma_sq)
    assert lower - res.ci_halfwidth <= res.ser <= upper + res.ci_halfwidth
    if system is not None:
        # ML is the least-error decoder, so a learned one is no better than
        # the ML lower bound; the system sends the same codewords at P_a = 100
        ser = float(sk.evaluate_ser([system], 50_000, seed=seed, snr=spec.snr)[0][0])
        assert ser >= lower - channel.binomial_ci(ser, 50_000)


# --- decoders decide in row slices ------------------------------------------

@settings(max_examples=max(200, _PROFILE_EXAMPLES))
@given(st.lists(st.one_of(st.integers(1, 64), st.integers(1, 300_000)), min_size=1, max_size=4))
def test_slice_rows_fit_the_widest_product_and_fill_the_narrowest(widths):
    s = channel.slice_rows(widths)
    step = channel._SLICE_STEP
    assert s % step == 0 and s >= step
    # the largest multiple of the step within _SLICE values of the widest,
    # unless one step or _SLICE_FLOOR values of the narrowest need more
    fits = s * max(widths) <= channel._SLICE
    assert not fits or (s + step) * max(widths) > channel._SLICE
    assert s * min(widths) >= channel._SLICE_FLOOR
    assert fits or s == step or (s - step) * min(widths) < channel._SLICE_FLOOR


def _edge_row_counts(s: int) -> list[int]:
    """Row counts at every edge of the slicing rule, and one decode block."""
    return sorted({1, 2, s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1, channel._BLOCK})


@settings(max_examples=max(200, _PROFILE_EXAMPLES))
@given(st.lists(st.one_of(st.integers(1, 64), st.integers(1, 300_000)), min_size=1, max_size=4),
       st.data())
def test_row_slices_cover_every_row_once_in_order(widths, data):
    s = channel.slice_rows(widths)
    rows = data.draw(st.one_of(st.sampled_from([0, *_edge_row_counts(s)]),
                               st.integers(0, 50_000)))
    parts = channel.row_slices(rows, s)
    index = np.arange(rows)
    covered = np.concatenate([index[sl] for sl in parts])
    assert covered.tolist() == list(range(rows))
    assert parts[0].start == 0 and parts[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
    sizes = [sl.stop - sl.start for sl in parts]
    assert min(sizes) >= min(rows, s)   # never a short slice, so never a lone row
    assert max(sizes) < 2 * s   # so a slice holds under 2·s rows of the widest product
    assert all(sl.start % channel._SLICE_STEP == 0 for sl in parts)
    # sliced decides those parts in order, and returns a lone part's array uncopied
    seen = []
    out = channel.sliced(lambda y: seen.append(len(y)) or y, widths)(index)
    assert seen == sizes and out.tolist() == covered.tolist()
    assert not rows or np.shares_memory(out, index) == (len(parts) == 1)


def _bisector_rows(cw: np.ndarray, rows: int, seed: int) -> np.ndarray:
    """Received rows, every other one within 1e-9 of the bisector of two
    codewords, where a rounding difference would change the decision."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, len(cw), (2, rows))
    scale = np.where(np.arange(rows) % 2 == 0, 1e-9, 1.0)[:, None]
    noise = rng.normal(size=(rows, cw.shape[1], 2)) @ np.array([1.0, 1j])
    return 0.5 * (cw[a] + cw[b]) + scale * noise


@settings(max_examples=max(30, _PROFILE_EXAMPLES // 10))
@given(st.sampled_from([1, 3, 16, 32]),
       st.one_of(st.sampled_from([4, 16, 64, 276, 300, 700, 4096]), st.integers(4, 4096)),
       st.integers(0, 2**16))
def test_ml_decoder_in_row_slices_decides_as_one_product(n, m, seed):
    # K = 2n in {2, 6, 32, 64} and M from 4 to 4,096 (276, 300 and 700 put
    # rows 4 mod 12 at a slice start): the decisions of every slice equal
    # those of one product over all the rows
    rng = np.random.default_rng(seed)
    cw = rng.normal(size=(m, n, 2)) @ np.array([1.0, 1j])
    c = cw.view(float)   # the decoder's interleaved (re, im) reals
    decide = ml_decoder(cw)
    for rows in _edge_row_counts(channel.slice_rows([m])):
        if rows * m > 1 << 22:
            continue   # the one-product reference of 12,500 rows by M > 335 is over 32 MB
        y = _bisector_rows(cw, rows, seed + rows)
        with channel.one_blas_thread():   # as the decode pool runs
            d = y.view(float) @ (-2.0 * c.T)
            d += np.sum(c * c, axis=1)
            assert decide(y).tolist() == np.argmin(d, axis=1).tolist()


def test_ml_decoder_memory_is_bounded_at_large_m():
    import tracemalloc

    m = 100_000
    rng = np.random.default_rng(6)
    cw = rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1))
    y = cw[rng.integers(0, m, channel._BLOCK)] + 0.01 * rng.normal(size=(channel._BLOCK, 1))
    decide = ml_decoder(cw)
    tracemalloc.start()
    try:
        decide(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (12500, 100000) distance matrix is 10 GB; a slice of 24-47 rows is 19-38 MB
    assert peak < 64e6
