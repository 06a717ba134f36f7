import math

import numpy as np
import pytest

import swiptkit as sk
from swiptkit.autoencoder import (
    _batch_rows,
    compose_received,
    sample_messages,
    sample_noises,
    system_from_json,
    system_to_json,
)
from conftest import PlateauHarvester


def small_system(kind="p2p", m_list=(4,), snrs=(50.0,), gains=None, lam=0.0,
                 n=1, pa=60.0, harvester=None, seed=5, hidden=(6,)):
    topo = sk.Topology(kind=kind, m_list=list(m_list), snrs=list(snrs),
                       p_a_uw=pa, gains=gains)
    cfg = sk.TrainConfig(lambda_=lam, n=n, seed=seed)
    return sk.build_system(topo, cfg, harvester=harvester, hidden=hidden)


def test_topology_validation():
    with pytest.raises(ValueError):
        sk.Topology(kind="p2p", m_list=[4, 4], snrs=[50.0], p_a_uw=1.0)
    with pytest.raises(ValueError):
        sk.Topology(kind="bc", m_list=[4], snrs=[50.0], p_a_uw=1.0)
    with pytest.raises(ValueError):
        sk.Topology(kind="bc", m_list=[8, 4], snrs=[100.0], p_a_uw=1.0)
    with pytest.raises(ValueError):
        sk.Topology(kind="ic", m_list=[4, 4], snrs=[50.0, 50.0], p_a_uw=1.0,
                    gains=np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        sk.Topology(kind="mac", m_list=[4, 4], snrs=[-1.0], p_a_uw=1.0)


def test_encode_all_power_equality_random_params():
    rng = np.random.default_rng(1)
    for seed in rng.integers(0, 10_000, 10):
        sysm = small_system(seed=int(seed), pa=float(rng.uniform(0.5, 200.0)))
        x = sk.encode_all(sysm)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(sysm.topology.p_a_uw, rel=1e-9)


def test_encode_all_uniform_raw_moduli():
    sysm = small_system(m_list=(4,), pa=9.0)
    # force raw outputs of unit modulus: identical rows scale to sqrt(P_a)
    enc = sysm.encoders[0]
    for w in enc.weights:
        w[:] = 0.0
    for b in enc.biases:
        b[:] = 0.0
    enc.biases[-1][:] = np.array([1.0, 0.0])
    x = sk.encode_all(sysm)
    assert np.allclose(np.abs(x), 3.0, rtol=1e-12)


def test_encode_all_zero_raises():
    sysm = small_system()
    for net in sysm.encoders:
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        sk.encode_all(sysm)


def test_composite_loss_lambda_zero_is_pure_xent():
    sysm = small_system(lam=0.0)
    rng = np.random.default_rng(2)
    msgs = sample_messages(sysm.topology, rng, 16)
    noises = sample_noises(sysm.topology, rng, 16, 1)
    loss, _, _, parts = sk.composite_loss(sysm, msgs, noises)
    assert parts.power == 0.0
    assert loss == pytest.approx(parts.xent, rel=1e-15)


def test_uniform_decoder_gives_log_m():
    sysm = small_system(m_list=(8,))
    for w in sysm.decoders[0].weights:
        w[:] = 0.0
    for b in sysm.decoders[0].biases:
        b[:] = 0.0
    rng = np.random.default_rng(3)
    msgs = sample_messages(sysm.topology, rng, 32)
    noises = sample_noises(sysm.topology, rng, 32, 1)
    _, _, _, parts = sk.composite_loss(sysm, msgs, noises)
    assert parts.xent == pytest.approx(math.log(8), rel=1e-12)


def test_confident_decoder_zero_xent():
    # hand-built antipodal encoder plus a saturating sign decoder
    sysm = small_system(m_list=(2,), snrs=(1e9,), pa=1.0, hidden=(4,))
    enc = sysm.encoders[0]
    enc.weights[0][:] = 0.0
    enc.weights[0][0] = [5.0, -5.0]
    enc.biases[0][:] = 0.0
    enc.weights[1][:] = 0.0
    enc.weights[1][0, 0] = 1.0
    enc.biases[1][:] = 0.0
    dec = sysm.decoders[0]
    dec.weights[0][:] = 0.0
    dec.weights[0][0] = [5.0, 0.0]
    dec.biases[0][:] = 0.0
    dec.weights[1][:] = 0.0
    dec.weights[1][0, 0] = 60.0
    dec.weights[1][1, 0] = -60.0
    dec.biases[1][:] = 0.0
    rng = np.random.default_rng(4)
    msgs = sample_messages(sysm.topology, rng, 64)
    noises = sample_noises(sysm.topology, rng, 64, 1)
    _, _, _, parts = sk.composite_loss(sysm, msgs, noises)
    assert parts.xent < 1e-12


@pytest.mark.parametrize("kind,m_list,snrs,gains,lam", [
    ("p2p", (4,), (50.0,), None, 0.0),
    ("p2p", (4,), (50.0,), None, 1.0),
    ("bc", (4, 2), (100.0, 50.0), None, 1.0),
    ("mac", (4, 4), (50.0,), None, 1.0),
    ("ic", (4, 4), (50.0, 50.0), "cross", 1.0),
])
def test_gradient_check_topologies(kind, m_list, snrs, gains, lam):
    if gains == "cross":
        gains = np.array([[1.0, 0.5], [0.5, 1.0]])
    harvester = sk.ModelC(a=0.02, b=100.0, ls=40.0) if lam > 0 else None
    sysm = small_system(kind=kind, m_list=m_list, snrs=snrs, gains=gains,
                        lam=lam, harvester=harvester)
    report = sk.gradient_check(sysm, batch_size=5)
    assert report["max_rel_err"] < 1e-4


def test_gradient_check_through_fitted_harvester(canonical_fit):
    sysm = small_system(lam=1.0, pa=300.0, harvester=canonical_fit, seed=11)
    report = sk.gradient_check(sysm, batch_size=5)
    assert report["max_rel_err"] < 1e-4
    assert report["n_skipped"] < report["n_params"]


def test_gradient_check_skips_stencils_across_the_pd_floor():
    # put the first batch sample's P_d just above pd_floor, so a stencil that
    # lowers it crosses the floor's kink: those parameters are skipped, the
    # decoder's (which never move P_d) are still checked
    eh = sk.ModelC(a=0.02, b=100.0, ls=40.0)
    sysm = small_system(lam=1.0, pa=60.0, harvester=eh, seed=3)
    rng = np.random.default_rng(123)   # gradient_check's batch
    msgs = sample_messages(sysm.topology, rng, 5)
    noises = sample_noises(sysm.topology, rng, 5, 1)
    y = sk.encode_all(sysm)[msgs[:, 0]] + noises[0]
    sysm.config.pd_floor = float(eh.evaluate(np.abs(y[0]) ** 2).mean()) * (1 - 1e-9)
    report = sk.gradient_check(sysm, batch_size=5)
    assert 0 < report["n_skipped"] < report["n_params"]
    assert report["max_rel_err"] < 1e-4


def test_loss_deterministic_for_fixed_inputs():
    sysm = small_system()
    rng = np.random.default_rng(6)
    msgs = sample_messages(sysm.topology, rng, 8)
    noises = sample_noises(sysm.topology, rng, 8, 1)
    a, *_ = sk.composite_loss(sysm, msgs, noises)
    b, *_ = sk.composite_loss(sysm, msgs, noises)
    assert a - b == 0.0


def test_channel_composition_exact():
    gains = np.array([[1.0, 0.3], [0.7, 1.0]])
    topo = sk.Topology(kind="ic", m_list=[4, 4], snrs=[50.0, 50.0],
                       p_a_uw=1.0, gains=gains)
    rng = np.random.default_rng(7)
    x1 = rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
    x2 = rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
    w = [rng.normal(size=(5, 1)) + 0j, rng.normal(size=(5, 1)) + 0j]
    ys = compose_received(topo, [x1, x2], w)
    assert np.array_equal(ys[0], 1.0 * x1 + 0.7 * x2 + w[0])
    assert np.array_equal(ys[1], 0.3 * x1 + 1.0 * x2 + w[1])
    # MAC: plain sum at the single receiver
    mac = sk.Topology(kind="mac", m_list=[4, 4], snrs=[50.0], p_a_uw=1.0)
    ys = compose_received(mac, [x1, x2], [w[0]])
    assert np.array_equal(ys[0], x1 + x2 + w[0])


def test_train_deterministic():
    sysm = small_system(m_list=(4,), pa=1.0, hidden=(8,))
    sysm.config.iterations = 200
    _, tr1 = sk.train(sysm)
    _, tr2 = sk.train(sysm)
    assert np.array_equal(tr1, tr2)


def test_train_divergence_carries_iteration(monkeypatch):
    import swiptkit.autoencoder as ae
    sysm = small_system(m_list=(4,), pa=1.0)
    sysm.config.iterations = 10
    calls = {"n": 0}
    real = ae.composite_loss

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            loss, eg, dg, parts = real(*args, **kwargs)
            return float("nan"), eg, dg, parts
        return real(*args, **kwargs)

    monkeypatch.setattr(ae, "composite_loss", flaky)
    with pytest.raises(sk.TrainDivergedError) as err:
        ae.train(sysm)
    assert err.value.iteration == 2
    assert err.value.trace.shape == (2, 3)


def test_loss_trace_windows_non_increasing():
    topo = sk.Topology(kind="p2p", m_list=[4], snrs=[50.0], p_a_uw=1.0)
    cfg = sk.TrainConfig(lambda_=0.0, n=1, learning_rate=3e-3, batch_size=128,
                         iterations=2000, seed=7)
    _, trace = sk.train(sk.build_system(topo, cfg))
    windows = trace[:, 0].reshape(-1, 100).mean(axis=1)
    tail = windows[len(windows) // 2:]
    rises = sum(b > a * 1.02 for a, b in zip(tail, tail[1:]))
    assert rises / (len(tail) - 1) <= 0.05


def test_extract_design_shapes():
    sysm = small_system(m_list=(16,), pa=2.0)
    des = sk.extract_design(sysm)
    assert len(des) == 1 and isinstance(des[0], sk.Constellation)
    assert des[0].rho == "learned"
    assert des[0].avg_power() == pytest.approx(2.0, rel=1e-9)

    sys2 = small_system(m_list=(16,), n=2, pa=2.0)
    cb = sk.extract_design(sys2)[0]
    assert isinstance(cb, sk.Codebook) and cb.n == 2 and cb.m == 16

    bc = small_system(kind="bc", m_list=(8, 4), snrs=(100.0, 50.0), pa=2.0)
    shared = sk.extract_design(bc)
    assert len(shared) == 1 and shared[0].m == 32


def test_round_trip_ser_matches_channel_sim():
    topo = sk.Topology(kind="p2p", m_list=[4], snrs=[10.0], p_a_uw=1.0)
    cfg = sk.TrainConfig(lambda_=0.0, n=1, learning_rate=3e-3, batch_size=128,
                         iterations=800, seed=3)
    st, _ = sk.train(sk.build_system(topo, cfg))
    trials = 100_000
    ser_native = sk.evaluate_ser(st, trials, seed=21)[0]
    design = sk.extract_design(st)[0]
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=1.0, seed=22)
    ser_sim = sk.ser_mc(design, spec, trials, decoder=sk.make_decoder(st)).ser
    band = 3.0 * math.sqrt(2.0 * max(ser_native, ser_sim) / trials) + 1e-6
    assert abs(ser_native - ser_sim) <= band


def test_system_json_roundtrip():
    sysm = small_system(kind="bc", m_list=(4, 2), snrs=(100.0, 50.0), pa=3.0)
    back = system_from_json(system_to_json(sysm))
    assert system_to_json(back) == system_to_json(sysm)
    assert back.topology.kind == "bc" and back.config.n == 1


def test_lambda_large_single_symbol_migrates():
    # heavy power demand with a threshold harvester: exactly one point leaves
    eh = PlateauHarvester()
    topo = sk.Topology(kind="p2p", m_list=[32], snrs=[50.0], p_a_uw=5.0)
    cfg = sk.TrainConfig(lambda_=1e4, n=1, learning_rate=2e-3, batch_size=256,
                         iterations=8000, seed=0, pd_floor=1e-3)
    st, _ = sk.train(sk.build_system(topo, cfg, harvester=eh))
    mods = np.abs(sk.extract_design(st)[0].points)
    assert int((mods > math.sqrt(32 * 5.0) / 2).sum()) == 1


def test_evaluate_ser_p2p_is_the_channel_path(canon):
    # one sampler: a P2P system scores exactly as its extracted design under
    # ser_mc with the system's decoder; its received codebook is that design
    st = small_system(m_list=(8,), snrs=(20.0,), pa=60.0, seed=4)
    ser = sk.evaluate_ser(st, 20_000, seed=31)
    design = sk.extract_design(st)[0]
    spec = sk.ChannelSpec(snr=20.0, p_a_uw=60.0, seed=31)
    res = sk.ser_mc(design, spec, 20_000, decoder=sk.make_decoder(st))
    assert ser.tolist() == [res.ser]
    (cw,) = sk.received_codebooks(st)
    assert sk.delivered_power(cw, spec, canon) == sk.delivered_power(design, spec, canon)
