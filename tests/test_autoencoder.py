import copy
import functools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptkit as sk
from swiptkit.autoencoder import (
    _batch_rows,
    _draw_block,
    _to_real,
    compose_received,
    sample_messages,
    sample_noises,
    system_from_json,
    system_to_json,
)
from swiptkit._blas import _thread_functions, one_blas_thread
from swiptkit.nn import flat, pack
from conftest import PlateauHarvester, decision_ser


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
    loss, _, parts = sk.composite_loss(sysm, msgs, noises)
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
    _, _, parts = sk.composite_loss(sysm, msgs, noises)
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
    _, _, parts = sk.composite_loss(sysm, msgs, noises)
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
    report = sk.gradient_check(sysm)
    assert report["max_rel_err"] < 1e-4


def test_gradient_check_through_fitted_harvester(canonical_fit):
    sysm = small_system(lam=1.0, pa=300.0, harvester=canonical_fit, seed=11)
    report = sk.gradient_check(sysm)
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
    report = sk.gradient_check(sysm)
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
    # the NaN comes in the middle of a block of draws: 10 steps at batch 128
    # are one block
    import swiptkit.autoencoder as ae
    sysm = small_system(m_list=(4,), pa=1.0)
    sysm.config.iterations = 10
    _, clean = ae.train(sysm)
    calls = {"n": 0}
    real = ae._loss_step

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            loss, parts = real(*args, **kwargs)
            return float("nan"), parts
        return real(*args, **kwargs)

    monkeypatch.setattr(ae, "_loss_step", flaky)
    with pytest.raises(sk.TrainDivergedError) as err:
        ae.train(sysm)
    assert err.value.iteration == 2
    assert err.value.trace.shape == (2, 3)
    assert err.value.trace.tobytes() == clean[:2].tobytes()


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
    assert len(des) == 1 and isinstance(des[0], sk.Codebook) and des[0].n == 1
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
    ser_native = sk.evaluate_ser([st], trials, seed=21)[0][0]
    design = sk.extract_design(st)[0]
    spec = sk.ChannelSpec(snr=10.0, p_a_uw=1.0, seed=22)
    ser_sim = decision_ser(design, spec, trials, lambda y: sk.make_decoder(st)(y)[:, 0])
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
    mods = np.abs(sk.extract_design(st)[0].base_points)
    assert int((mods > math.sqrt(32 * 5.0) / 2).sum()) == 1


def test_evaluate_ser_p2p_is_the_channel_path(canon):
    # one sampler: a P2P system scores exactly as its extracted design under
    # the channel's pass with the system's decoder; its received codebook is
    # that design
    st = small_system(m_list=(8,), snrs=(20.0,), pa=60.0, seed=4)
    ser = sk.evaluate_ser([st], 20_000, seed=31)[0]
    design = sk.extract_design(st)[0]
    spec = sk.ChannelSpec(snr=20.0, p_a_uw=60.0, seed=31)
    decide = sk.make_decoder(st)
    assert ser.tolist() == [decision_ser(design, spec, 20_000, lambda y: decide(y)[:, 0])]
    (cw,) = sk.received_codebooks(st)
    assert sk.delivered_power(cw, spec, canon) == sk.delivered_power(design, spec, canon)


# ---------------------------------------------------------------------------
# the lean training step against the step it replaced
# ---------------------------------------------------------------------------

def _mlp_forward_reference(net, x):
    acts, h = [x], x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T
        h += b
        if i != len(net.weights) - 1:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def _mlp_backward_reference(net, acts, d_out):
    g_w, g_b = [None] * len(net.weights), [None] * len(net.weights)
    dz = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        g_w[i] = dz.T @ acts[i]
        g_b[i] = dz.sum(axis=0)
        dh = dz @ net.weights[i]
        if i > 0:
            dz = dh * (1.0 - acts[i] ** 2)
    return g_w, g_b, dh


def _eh_derivative_reference(model, p_in):
    """EhModel.derivative as a second forward pass of the net."""
    from swiptkit.harvester import _eh_head
    p = np.asarray(p_in, dtype=float)
    f, acts = _eh_head(model.net, p, model.input_scale)
    _, _, dz = _mlp_backward_reference(model.net, acts, (1.0 - f ** 2)[:, None])
    active = (f[:-1] - f[-1]) > 0
    out = np.where(active, dz[:-1, 0], 0.0) * model.power_scale / model.input_scale
    return out.reshape(p.shape) if p.ndim else float(out[0])


def _composite_loss_reference(sysm, messages, noises):
    """composite_loss as it was before the gradient buffer: complex samples,
    new arrays throughout, the encoder's identity matmul, and the harvester
    evaluated and differentiated by two forward passes."""
    from swiptkit.autoencoder import LossParts, _encoder_input

    topo, cfg = sysm.topology, sysm.config
    lam, n = cfg.lambda_, cfg.n
    derivative = (functools.partial(_eh_derivative_reference, sysm.harvester)
                  if isinstance(sysm.harvester, sk.EhModel)
                  else getattr(sysm.harvester, "derivative", None))
    messages = np.atleast_2d(np.asarray(messages, dtype=int))
    bsz = messages.shape[0]

    enc_state = []
    for tx in range(topo.n_tx):
        one_hot = _encoder_input(topo, tx) if topo.kind == "bc" else np.eye(topo.m_list[tx])
        raw, acts = _mlp_forward_reference(sysm.encoders[tx], one_hot)
        s = float(np.sum(raw ** 2))
        g = math.sqrt(topo.tx_messages(tx) * n * topo.p_a_uw / s)
        enc_state.append((g * raw, raw, acts, g, s))
    rows = [_batch_rows(topo, messages, tx) for tx in range(topo.n_tx)]
    xc = [x[rows[tx]][..., 0::2] + 1j * x[rows[tx]][..., 1::2]
          for tx, (x, *_) in enumerate(enc_state)]
    coeff = topo.coeff()
    ys = compose_received(topo, xc, noises)

    xent_total = power_total = 0.0
    clamps = []
    d_y = [np.zeros((bsz, 2 * n)) for _ in range(topo.n_rx)]
    dec_grads = []
    for r in range(topo.n_rx):
        y_real = np.empty((bsz, 2 * n))
        y_real[:, 0::2], y_real[:, 1::2] = ys[r].real, ys[r].imag
        logits, acts = _mlp_forward_reference(sysm.decoders[r], y_real)
        d_logits = np.zeros_like(logits)
        for off, m_j, stream in topo.rx_segments(r):
            seg = logits[:, off:off + m_j]
            seg = seg - seg.max(axis=1, keepdims=True)
            p = np.exp(seg)
            p /= p.sum(axis=1, keepdims=True)
            truth = messages[:, stream]
            xent_total += float(-np.mean(np.log(p[np.arange(bsz), truth] + 1e-300)))
            p[np.arange(bsz), truth] -= 1.0
            d_logits[:, off:off + m_j] = p / bsz
        g_w, g_b, d_in = _mlp_backward_reference(sysm.decoders[r], acts, d_logits)
        dec_grads.append((g_w, g_b))
        d_y[r] += d_in
        if lam > 0:
            p_in = np.abs(ys[r]) ** 2
            f_val = np.asarray(sysm.harvester.evaluate(p_in))
            p_d = f_val.mean(axis=1)
            pd_safe = np.maximum(p_d, cfg.pd_floor)
            power_total += float(np.mean(lam / pd_safe))
            active = p_d > cfg.pd_floor
            clamps += [~active, f_val.ravel() == 0.0]
            d_pd = np.where(active, -lam / pd_safe ** 2, 0.0) / bsz
            d_pin = d_pd[:, None] * np.asarray(derivative(p_in)) / n
            d_y[r][:, 0::2] += d_pin * 2.0 * ys[r].real
            d_y[r][:, 1::2] += d_pin * 2.0 * ys[r].imag

    enc_grads = []
    for tx in range(topo.n_tx):
        x_norm, raw, acts, g, s = enc_state[tx]
        d_x = np.zeros_like(x_norm)
        np.add.at(d_x, rows[tx], sum(coeff[tx, r] * d_y[r] for r in range(topo.n_rx)))
        d_raw = g * d_x - (g / s) * float(np.sum(d_x * raw)) * raw
        g_w, g_b, _ = _mlp_backward_reference(sysm.encoders[tx], acts, d_raw)
        enc_grads.append((g_w, g_b))
    clamped = np.concatenate(clamps) if clamps else np.zeros(0, dtype=bool)
    return (xent_total + power_total, enc_grads, dec_grads,
            LossParts(xent_total, power_total, clamped))


def _sample_noises_reference(topo, rng, bsz, n):
    out = []
    for r in range(topo.n_rx):
        sd = math.sqrt(topo.p_a_uw / topo.snrs[r] / 2.0)
        out.append(rng.normal(0.0, sd, (bsz, n)) + 1j * rng.normal(0.0, sd, (bsz, n)))
    return out


def _train_reference(sysm):
    """train as it was: concatenated gradients, Adam on new arrays."""
    from swiptkit.autoencoder import _rng_children

    sysm = copy.deepcopy(sysm)
    cfg = sysm.config
    _, msg_rng, noise_rng = _rng_children(cfg.seed)
    theta = pack(sysm.encoders + sysm.decoders)
    m_state, v_state = np.zeros_like(theta), np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace = np.zeros((cfg.iterations, 3))
    for it in range(cfg.iterations):
        msgs = np.stack([msg_rng.integers(0, m, cfg.batch_size)
                         for m in sysm.topology.m_list], axis=1)
        noises = _sample_noises_reference(sysm.topology, noise_rng, cfg.batch_size, cfg.n)
        loss, enc_grads, dec_grads, parts = _composite_loss_reference(sysm, msgs, noises)
        trace[it] = (loss, parts.xent, parts.power)
        t = it + 1
        g = np.concatenate(flat(enc_grads + dec_grads), axis=None)
        m_state *= beta1
        m_state += (1 - beta1) * g
        v_state *= beta2
        v_state += (1 - beta2) * g * g
        m_hat = m_state / (1 - beta1 ** t)
        v_hat = v_state / (1 - beta2 ** t)
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    sysm.final_loss = float(trace[-1, 0])
    return sysm, trace


_LINKS = {
    "p2p": dict(kind="p2p", m_list=(16,), snrs=(50.0,)),
    "bc": dict(kind="bc", m_list=(4, 2), snrs=(100.0, 50.0)),
    "mac": dict(kind="mac", m_list=(4, 4), snrs=(50.0,)),
    "ic": dict(kind="ic", m_list=(4, 4), snrs=(50.0, 30.0),
               gains=np.array([[1.0, 0.5], [0.3, 1.0]])),
    # a noiseless receiver draws its (zero) noise like any other
    "ic-noiseless": dict(kind="ic", m_list=(4, 4), snrs=(50.0, math.inf),
                         gains=np.array([[1.0, 0.5], [0.3, 1.0]])),
}


@pytest.mark.parametrize("harvester", [None, "fitted", "plateau", "sigmoid"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("link", sorted(_LINKS))
def test_lean_step_is_bit_identical_to_the_reference(link, n, harvester, canonical_fit, canon):
    eh = {None: None, "fitted": canonical_fit, "plateau": PlateauHarvester(),
          "sigmoid": canon}[harvester]
    sysm = small_system(**_LINKS[link], n=n, pa=100.0, lam=0.0 if eh is None else 0.3,
                        harvester=eh, seed=17, hidden=(64, 64))
    sysm.config.iterations, sysm.config.batch_size = 50, 64

    rng = np.random.default_rng(8)
    msgs = sample_messages(sysm.topology, rng, 64)
    noises = sample_noises(sysm.topology, rng, 64, n)
    theta = pack(sysm.encoders + sysm.decoders)
    grad = np.full_like(theta, np.nan)
    loss, _, parts = sk.composite_loss(sysm, msgs, noises, grad)
    ref_loss, enc_ref, dec_ref, ref_parts = _composite_loss_reference(sysm, msgs, noises)
    assert (loss, parts.xent, parts.power) == (ref_loss, ref_parts.xent, ref_parts.power)
    assert np.array_equal(parts.clamped, ref_parts.clamped)
    assert grad.tobytes() == np.concatenate(flat(enc_ref + dec_ref), axis=None).tobytes()
    _, fresh, _ = sk.composite_loss(sysm, msgs, noises)   # a vector of its own
    assert fresh.tobytes() == grad.tobytes()

    _assert_train_is_the_reference(sysm, block=7)   # 50 steps: 7 blocks of 7, then 1


def _assert_train_is_the_reference(sysm, block=None):
    """train against _train_reference, with draws in blocks of ``block``
    steps (set through the block's byte size), or of the default size."""
    import swiptkit.autoencoder as ae
    topo, cfg = sysm.topology, sysm.config
    step_bytes = 8 * cfg.batch_size * (topo.k + 2 * topo.n_rx * cfg.n)
    block_bytes = ae._DRAW_BLOCK_BYTES if block is None else block * step_bytes
    block = max(1, block_bytes // step_bytes)
    drawn, real = [], ae._draw_block

    def drawing(*args):
        drawn.append(args[4])   # the block's steps
        return real(*args)

    with mock.patch.object(ae, "_DRAW_BLOCK_BYTES", block_bytes), \
            mock.patch.object(ae, "_draw_block", drawing):
        trained, trace = sk.train(sysm)
    whole, rest = divmod(cfg.iterations, block)
    assert drawn == [block] * whole + [rest] * (rest > 0)
    ref_sys, ref_trace = _train_reference(sysm)
    assert trace.tobytes() == ref_trace.tobytes()
    assert trained.final_loss == ref_sys.final_loss
    assert (pack(trained.encoders + trained.decoders).tobytes()
            == pack(ref_sys.encoders + ref_sys.decoders).tobytes())


@pytest.mark.parametrize("link,harvester", [("p2p", "fitted"), ("p2p", None), ("mac", None),
                                            ("mac", "fitted")])
def test_one_blas_thread_is_bit_identical_at_the_threaded_batch(link, harvester, canonical_fit):
    # at batch 128 OpenBLAS splits the decoder's (128, 64) x (64, 64) matmuls
    # across its threads (at 64 it already runs one); train steps on one
    # thread, the reference at the caller's count
    eh = canonical_fit if harvester else None
    sysm = small_system(**_LINKS[link], pa=100.0, lam=0.3 if eh else 0.0, harvester=eh,
                        seed=23, hidden=(64, 64))
    sysm.config.iterations, sysm.config.batch_size = 60, 128
    _assert_train_is_the_reference(sysm)


def test_train_past_the_first_moments_exact_bias_correction_is_the_reference(canonical_fit):
    # from step 356 on, 1 - 0.9**t rounds to 1.0 and train skips the division
    # of the first moment by it; 400 steps run 45 of them
    sysm = small_system(pa=100.0, lam=0.3, harvester=canonical_fit, seed=31, hidden=(64, 64))
    sysm.config.iterations, sysm.config.batch_size = 400, 32
    assert 1 - 0.9 ** 355 != 1.0 and 1 - 0.9 ** 356 == 1.0
    _assert_train_is_the_reference(sysm)


def test_train_at_a_one_step_block_is_the_reference(canonical_fit):
    # a batch whose one step of draws is past the block's byte size: every
    # block is one step, and three of them are the reference's run. The
    # reference runs on one BLAS thread too: at this batch two threads round
    # the weight gradients' (64, B) x (B, 64) products differently
    import swiptkit.autoencoder as ae
    sysm = small_system(pa=100.0, n=2, lam=0.3, harvester=canonical_fit, seed=29,
                        hidden=(64, 64))
    sysm.config.iterations = 3
    sysm.config.batch_size = ae._DRAW_BLOCK_BYTES // (8 * (1 + 2 * 2)) + 1
    with one_blas_thread():
        _assert_train_is_the_reference(sysm)


_SNRS = [math.inf, 1e-3, 0.5, 50.0, 1e300]


@given(st.sampled_from([("p2p", 1), ("bc", 2), ("mac", 2), ("mac", 3), ("ic", 2), ("ic", 3)]),
       st.lists(st.integers(1, 17), min_size=3, max_size=3), st.lists(st.sampled_from(_SNRS),
                                                                        min_size=3, max_size=3),
       st.sampled_from([1e-6, 0.7, 100.0]), st.integers(1, 4), st.integers(1, 9),
       st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
def test_draw_block_property_equals_per_step_draws(link, ms, snrs, pa, steps, half, n, seed):
    # unequal message sizes (1 draws nothing), odd and even batches, mixed
    # and infinite SNRs: a block of steps is bit for bit the per-step draws
    kind, k = link
    n_rx = 1 if kind in ("p2p", "mac") else k
    topo = sk.Topology(kind=kind, m_list=ms[:k], snrs=snrs[:n_rx], p_a_uw=pa,
                       gains=np.eye(k) if kind == "ic" else None)
    bsz = 2 * half - seed % 2
    sds = np.array([sk.ChannelSpec(snr, pa).noise_sd for snr in topo.snrs])
    msg_rng, noise_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    msgs, noises = _draw_block(topo, msg_rng, noise_rng, sds, steps, bsz, n)
    assert msgs.shape == (steps, k, bsz) and noises.shape == (steps, n_rx, bsz, 2 * n)
    msg_rng, noise_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for j in range(steps):
        assert msgs[j].T.tobytes() == sample_messages(topo, msg_rng, bsz).tobytes()
        for r, w in enumerate(sample_noises(topo, noise_rng, bsz, n)):
            assert noises[j, r].tobytes() == _to_real(w).tobytes()


def test_train_holds_one_step_of_draws_at_a_large_batch():
    # at B = 50,000 and n = 4 one step draws 3.6 MB, past the block's byte
    # size: train holds one step of draws on top of a step's own peak (a
    # block of 85 steps, as at batch 128, would be 306 MB)
    import tracemalloc
    sysm = small_system(n=4, seed=3)
    sysm.config.iterations, sysm.config.batch_size = 3, 50_000
    rng = np.random.default_rng(4)
    msgs = sample_messages(sysm.topology, rng, 50_000)
    noises = sample_noises(sysm.topology, rng, 50_000, 4)
    grad = np.empty_like(pack(sysm.encoders + sysm.decoders))
    draws = msgs.nbytes + 8 * noises[0].size * 2
    tracemalloc.start()
    try:
        sk.composite_loss(sysm, msgs, noises, grad)
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sk.train(sysm)
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == 3.6e6
    # the margin holds the copied system, theta, Adam's state and the trace
    assert train_peak <= step_peak + draws + 1e6


def test_composite_loss_memory_is_bounded_at_a_large_m():
    # the encoder's one-hot input is a row gather: no (M, M) identity, which
    # at M = 20,000 alone is 3.2 GB; one (M, 16) activation is 2.6 MB
    import tracemalloc
    sysm = small_system(m_list=(20_000,), snrs=(10.0,), seed=2, hidden=(16,))
    rng = np.random.default_rng(5)
    msgs = sample_messages(sysm.topology, rng, 8)
    noises = sample_noises(sysm.topology, rng, 8, 1)
    grad = np.empty_like(pack(sysm.encoders + sysm.decoders))
    tracemalloc.start()
    try:
        loss, _, _ = sk.composite_loss(sysm, msgs, noises, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(loss) and np.all(np.isfinite(grad))
    assert peak < 16e6


@pytest.mark.skipif(_thread_functions() is None, reason="numpy's OpenBLAS not found")
def test_train_steps_on_one_blas_thread_and_restores_the_count(monkeypatch):
    import swiptkit.autoencoder as ae
    get, set_ = _thread_functions()
    caller = get()
    seen = []
    real = ae._loss_step

    def recording(*args, **kwargs):
        seen.append(get())
        loss, parts = real(*args, **kwargs)
        return (float("nan") if len(seen) == 8 else loss), parts

    monkeypatch.setattr(ae, "_loss_step", recording)
    sysm = small_system(m_list=(4,), pa=1.0)
    sysm.config.iterations = 5
    try:
        set_(2)
        before = get()
        ae.train(sysm)
        assert seen == [1] * 5 and get() == before
        sysm.config.iterations = 10
        with pytest.raises(sk.TrainDivergedError):
            ae.train(sysm)
        assert seen == [1] * 8 and get() == before
    finally:
        set_(caller)


def test_train_without_openblas_is_the_same_run(monkeypatch):
    import swiptkit._blas as blas
    sysm = small_system(m_list=(8,), pa=60.0, hidden=(64, 64))
    sysm.config.iterations, sysm.config.batch_size = 40, 128
    trained, trace = sk.train(sysm)
    monkeypatch.setattr(blas, "_thread_functions", lambda: None)
    bare, bare_trace = sk.train(sysm)
    assert bare_trace.tobytes() == trace.tobytes()
    assert (pack(bare.encoders + bare.decoders).tobytes()
            == pack(trained.encoders + trained.decoders).tobytes())


def test_value_and_derivative_is_evaluate_and_derivative(canonical_fit):
    fixture = sk.EhModel.load(Path(__file__).resolve().parents[1]
                              / "perfbench" / "fixtures" / "eh_fitted.json")
    rng = np.random.default_rng(9)
    for model in (canonical_fit, fixture):
        p = np.concatenate([[0.0, 1e-9, 1e-3], np.logspace(-2, 4, 400),
                            rng.uniform(0, 3000, 200)]).reshape(-1, 3)
        value, slope = model.value_and_derivative(p)
        assert value.shape == slope.shape == p.shape
        assert value.tobytes() == model.evaluate(p).tobytes()
        assert slope.tobytes() == _eh_derivative_reference(model, p).tobytes()
        assert slope.tobytes() == model.derivative(p).tobytes()
        for q in (0.0, 5.0, 300.0, 2500.0):
            pair = model.value_and_derivative(q)
            assert type(pair[0]) is float and type(pair[1]) is float
            assert pair == (model.evaluate(q), _eh_derivative_reference(model, q))
    # the fixture clips below its turn-on: value and slope are exactly 0 there
    value, slope = fixture.value_and_derivative(np.array([0.0, 100.0, 200.0]))
    assert value.tolist() == [0.0, 0.0, 0.0] and slope.tolist() == [0.0, 0.0, 0.0]
    for bad in (np.nan, np.inf, np.array([1.0, -np.inf])):
        with pytest.raises(ValueError, match="finite"):
            fixture.value_and_derivative(bad)


def test_evaluate_ser_runs_one_decoder_pass_per_receiver_chunk(monkeypatch):
    # a MAC receiver decodes both streams from one logits pass per row slice
    # of a decode block, not one per stream; the error counts are those of one
    # decoder per stream on the same draws
    import swiptkit.autoencoder as ae
    from swiptkit.channel import _BLOCK, _CHUNK, monte_carlo, row_slices, slice_rows

    st = small_system(kind="mac", m_list=(4, 4), snrs=(5.0,), pa=60.0, seed=6, hidden=(16,))
    trials = _CHUNK + 5000   # two chunks
    spec = sk.ChannelSpec(snr=5.0, p_a_uw=60.0, seed=41)
    (cw,) = sk.received_codebooks(st)

    def stream_errors(s):
        off, m_j, _ = st.topology.rx_segments(0)[s]

        def errors(msg, w):   # one decoder pass for this stream alone
            logits, _ = ae.mlp_forward(st.decoders[0], ae._to_real(cw[msg] + w))
            est = np.argmax(logits[:, off:off + m_j], axis=1)
            return np.count_nonzero(est != np.unravel_index(msg, (4, 4))[s])

        return monte_carlo(cw.shape, spec, trials, errors)

    expected = [stream_errors(0) / trials, stream_errors(1) / trials]
    passes = []
    real_forward = ae.mlp_forward

    def counting_forward(net, x, *args, **kwargs):
        if net is st.decoders[0]:
            passes.append(len(x))
        return real_forward(net, x, *args, **kwargs)

    monkeypatch.setattr(ae, "mlp_forward", counting_forward)
    ser = sk.evaluate_ser([st], trials, seed=41)[0]
    assert ser.tolist() == expected
    # blocks run on the decode pool's threads, so passes arrive in any order
    blocks = [sl.stop - sl.start for size in (_CHUNK, 5000) for sl in row_slices(size, _BLOCK)]
    s = slice_rows([len(w) for w in st.decoders[0].weights])
    slices = [sl.stop - sl.start for rows in blocks for sl in row_slices(rows, s)]
    assert sorted(passes) == sorted(slices)
    assert sum(passes) == trials   # both streams come from the one pass


@settings(max_examples=max(20, settings.default.max_examples // 10))
@given(st.sampled_from([("p2p", (16,)), ("p2p", (2,)), ("p2p", (300,)), ("mac", (4, 4)),
                        ("mac", (2, 8))]),
       st.sampled_from([1, 3]), st.sampled_from([(64, 64), (6,), (3000,), (700, 64)]),
       st.integers(0, 2**16))
def test_make_decoder_in_row_slices_decides_as_one_pass(link, n, hidden, seed):
    # P2P and MAC receivers, n in {1, 3}, and nets whose widest layer makes
    # s small (24 to 264 rows at 300, 700 or 3,000 units) next to narrow
    # outputs: the logits of every slice, and so every decision, are those of
    # one forward pass over all the rows
    import swiptkit.autoencoder as ae
    from swiptkit.channel import _BLOCK, one_blas_thread, row_slices, slice_rows

    kind, m_list = link
    st_ = small_system(kind=kind, m_list=m_list, snrs=(10.0,), n=n, seed=seed % 97, hidden=hidden)
    net = st_.decoders[0]
    widths = [len(w) for w in net.weights]
    s = slice_rows(widths)
    decide = sk.make_decoder(st_, 0)
    (cw,) = sk.received_codebooks(st_)
    rng = np.random.default_rng(seed)
    for rows in sorted({1, 2, s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1, _BLOCK}):
        if rows * max(widths) > 1 << 22:
            continue   # the one-pass reference of 12,500 rows by 3,000 units is 300 MB
        y = cw[rng.integers(0, len(cw), rows)] + rng.normal(size=(rows, n, 2)) @ np.array([1.0, 1j])
        x = ae._to_real(y)
        with one_blas_thread():   # as the decode pool runs
            logits, _ = ae.mlp_forward(net, x)
            sliced = np.concatenate([ae.mlp_forward(net, x[sl])[0]
                                     for sl in row_slices(rows, s)])
            assert sliced.tobytes() == logits.tobytes()
            expected = np.stack([np.argmax(logits[:, off:off + m_j], axis=1)
                                 for off, m_j, _ in st_.topology.rx_segments(0)], axis=1)
            assert decide(y).tolist() == expected.tolist()


def test_make_decoder_memory_is_bounded_at_a_wide_layer():
    import tracemalloc

    st_ = small_system(m_list=(20_000,), snrs=(10.0,), seed=2, hidden=(64,))
    assert st_.decoders[0].weights[-1].shape == (20_000, 64)
    rng = np.random.default_rng(2)
    y = rng.normal(size=(4000, 1)) + 1j * rng.normal(size=(4000, 1))
    decide = sk.make_decoder(st_, 0)
    tracemalloc.start()
    try:
        out = decide(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4000, 1)
    # the (4000, 20000) logits of one pass are 640 MB; a slice of 48-95 rows is 8-15 MB
    assert peak < 64e6
