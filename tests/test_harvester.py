import numpy as np
import pytest

import swiptkit as sk
from swiptkit.harvester import eh_loss_and_grad
from swiptkit.nn import MlpParams, pack


def test_model_c_zero_input_is_zero():
    m = sk.ModelC(a=0.01, b=300.0, ls=40.0)
    assert m.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)


def test_model_c_saturation():
    m = sk.ModelC(a=0.05, b=200.0, ls=40.0)
    p = m.b + 20.0 / m.a
    assert abs(m.evaluate(p) - m.ls) <= 1e-6 * m.ls


def test_model_c_midpoint():
    m = sk.ModelC(a=0.02, b=150.0, ls=30.0)
    om = m.omega
    expect = m.ls * (0.5 - om) / (1.0 - om)
    assert m.evaluate(m.b) == pytest.approx(expect, rel=1e-12)


def test_model_c_no_overflow_at_large_steepness():
    # a*b = 1000 > 709: exp(a*b) would overflow (warnings are errors here)
    m = sk.ModelC(a=1.0, b=1000.0, ls=1.0)
    assert m.evaluate(10.0) == 0.0 and m.evaluate(0.0) == 0.0
    assert m.derivative(10.0) == 0.0
    assert m.evaluate(1000.0) == pytest.approx(0.5, rel=1e-12)
    assert m.derivative(1000.0) == pytest.approx(0.25, rel=1e-12)
    p = np.array([0.0, 10.0, 990.0, 1000.0, 1010.0, 5000.0])
    assert np.all(np.isfinite(m.evaluate(p))) and np.all(np.isfinite(m.derivative(p)))


def test_model_c_derivative_matches_finite_difference(canon):
    p = np.array([1.0, 150.0, 299.0, 317.0, 450.0, 900.0])
    h = 1e-4
    fd = (canon.evaluate(p + h) - canon.evaluate(p - h)) / (2 * h)
    assert np.allclose(canon.derivative(p), fd, rtol=1e-6, atol=1e-12)


def test_model_c_range_and_monotone():
    m = sk.ModelC(a=0.03, b=100.0, ls=25.0)
    p = np.linspace(0.0, 5000.0, 2000)
    v = np.asarray(m.evaluate(p))
    # bounded by ls; strictly below until the exponential underflows
    assert np.all(v >= 0.0) and np.all(v <= m.ls)
    mid = p <= m.b + 20.0 / m.a
    assert np.all(v[mid] < m.ls)
    assert np.all(np.diff(v) >= 0.0)


def test_model_c_rejects_bad_params():
    with pytest.raises(ValueError):
        sk.ModelC(a=-0.1, b=300.0, ls=40.0)
    with pytest.raises(ValueError):
        sk.ModelC(a=0.1, b=300.0, ls=0.0)


def test_canonical_knee_at_317(canon):
    x = np.arange(1.0, 2000.0, 0.25)
    ratio = canon.evaluate(x) / x
    assert abs(x[np.argmax(ratio)] - 317.0) <= 1.0


def test_canonical_zero_and_monotone(canon):
    assert canon.evaluate(0.0) == 0.0
    xs = np.arange(0.0, 2001.0, 1.0)
    v = canon.evaluate(xs)
    assert np.all(np.diff(v) >= 0.0)


def test_synth_dataset_noiseless_on_curve(canon):
    d = sk.synth_dataset(100, p_max=1000.0)
    assert np.allclose(d.p_out, canon.evaluate(d.p_in), rtol=0, atol=0)
    assert d.p_in[0] == 0.0 and d.source == "synthetic"


@pytest.mark.parametrize("p_max", [0.1, 0.0, -1.0])
def test_synth_dataset_rejects_pmax_at_or_below_grid_start(p_max):
    with pytest.raises(ValueError, match="p_max must exceed"):
        sk.synth_dataset(100, p_max=p_max)


def test_synth_dataset_deterministic_and_nonneg():
    a = sk.synth_dataset(2000, noise_rel=0.3, seed=5)
    b = sk.synth_dataset(2000, noise_rel=0.3, seed=5)
    assert np.array_equal(a.p_out, b.p_out)
    assert np.all(a.p_out >= 0.0)


def test_dataset_csv_roundtrip(tmp_path):
    d = sk.synth_dataset(50, noise_rel=0.1, seed=3)
    path = tmp_path / "data.csv"
    d.to_csv(path)
    back = sk.PowerDataset.from_csv(path)
    assert np.array_equal(back.p_in, d.p_in)
    assert np.array_equal(back.p_out, d.p_out)


def test_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        sk.PowerDataset.from_csv(path)


def test_dataset_rejects_negative():
    with pytest.raises(ValueError):
        sk.PowerDataset(p_in=np.array([1.0]), p_out=np.array([-2.0]))


def test_eval_eh_zero_offset_and_clip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = sk.EhModel(w1=rng.normal(size=(3, 1)), b1=rng.normal(size=3),
                       w2=rng.normal(size=(2, 3)), b2=rng.normal(size=2),
                       w3=rng.normal(size=(1, 2)), b3=rng.normal(size=1),
                       input_scale=500.0, power_scale=30.0)
        assert m.evaluate(0.0) == 0.0
        p = rng.uniform(0.0, 1000.0, 1000)
        assert np.all(np.asarray(m.evaluate(p)) >= 0.0)


def test_eval_eh_rejects_nonfinite():
    m = sk.EhModel(w1=np.ones((3, 1)), b1=np.zeros(3), w2=np.ones((2, 3)),
                   b2=np.zeros(2), w3=np.ones((1, 2)), b3=np.zeros(1),
                   input_scale=1.0, power_scale=1.0)
    with pytest.raises(ValueError):
        m.evaluate(np.inf)


def test_fit_reaches_canonical_curve(canonical_fit, canon):
    assert canonical_fit.rmse < 0.02 * 40.0
    # the fitted model tracks the knee-level output within fit tolerance
    assert abs(canonical_fit.evaluate(317.0) - canon.evaluate(317.0)) < 3.0


def test_fit_tracks_true_curve_under_noise(canon):
    fit = sk.fit_eh(sk.synth_dataset(2000, noise_rel=0.05, seed=7))
    p = np.linspace(0.0, 2000.0, 4001)
    rmse = np.sqrt(np.mean((np.asarray(fit.evaluate(p)) - canon.evaluate(p)) ** 2))
    assert rmse < 0.5


def test_fit_constant_dataset():
    p = np.linspace(100.0, 1000.0, 60)
    d = sk.PowerDataset(p_in=p, p_out=np.full(60, 5.0))
    m = sk.fit_eh(d, sk.FitHyper(epochs=20000, seed=1))
    vals = np.asarray(m.evaluate(p))
    assert np.all(np.abs(vals - 5.0) < 0.5)


def test_fit_deterministic():
    d = sk.synth_dataset(200, seed=7)
    h = sk.FitHyper(epochs=400, seed=9)
    a, b = sk.fit_eh(d, h), sk.fit_eh(d, h)
    assert a.to_json() == b.to_json()


def test_fit_requires_decade_span():
    d = sk.PowerDataset(p_in=np.linspace(100.0, 150.0, 20),
                        p_out=np.ones(20))
    with pytest.raises(ValueError):
        sk.fit_eh(d)


def test_fit_divergence_reports_epoch(monkeypatch):
    import swiptkit.harvester as hv

    def bad_loss(net, z, t):
        return float("nan"), np.zeros(17)   # the 1-3-2-1 net's parameter count

    monkeypatch.setattr(hv, "eh_loss_and_grad", bad_loss)
    with pytest.raises(sk.FitDivergedError) as err:
        hv.fit_eh(sk.synth_dataset(50), sk.FitHyper(epochs=10))
    assert err.value.epoch == 0


def test_fit_gradient_matches_finite_differences():
    d = sk.synth_dataset(80, seed=2)
    z = d.p_in / d.p_in.max()
    t = d.p_out / (d.p_out.max() / 0.9)
    rng = np.random.default_rng(4)
    step = 1e-4
    for _ in range(20):
        params = [rng.normal(scale=0.8, size=s)
                  for s in ((3, 1), (3,), (2, 3), (2,), (1, 2), (1,))]
        net = MlpParams(weights=params[0::2], biases=params[1::2])
        theta = pack([net])
        _, grad = eh_loss_and_grad(net, z, t)
        for i in range(theta.size):
            orig = theta[i]
            theta[i] = orig + step
            lp, _ = eh_loss_and_grad(net, z, t)
            theta[i] = orig - step
            lm, _ = eh_loss_and_grad(net, z, t)
            theta[i] = orig
            fd = (lp - lm) / (2 * step)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8) < 1e-4


def test_model_json_roundtrip(tmp_path, canonical_fit):
    path = tmp_path / "eh.json"
    canonical_fit.save(path)
    back = sk.EhModel.load(path)
    p = np.linspace(0.0, 2000.0, 100)
    assert np.array_equal(np.asarray(back.evaluate(p)),
                          np.asarray(canonical_fit.evaluate(p)))
    assert back.rmse == canonical_fit.rmse


def test_onoff_delivered_degenerate_and_positive(canon):
    assert sk.onoff_delivered(120.0, 1.0, canon) == pytest.approx(canon.evaluate(120.0))
    grid = np.arange(1, 1001) / 1000
    vals = [sk.onoff_delivered(120.0, p, canon) for p in grid]
    assert min(vals) >= 0.0
    assert grid[int(np.argmax(vals))] == pytest.approx(120.0 / 317.0, abs=2e-3)


def test_onoff_delivered_rejects_zero_pon(canon):
    with pytest.raises(ValueError):
        sk.onoff_delivered(10.0, 0.0, canon)


def test_optimal_pon_examples(canon):
    assert sk.optimal_pon(400.0, canon) == 1.0
    assert sk.optimal_pon(5.0, canon) == pytest.approx(5.0 / 317.0, abs=1e-3)
    p = sk.optimal_pon(50.0, canon)
    assert 0.0 < p <= 1.0


def test_optimal_vs_approx_band(canon):
    for pa in (5.0, 50.0, 120.0, 300.0):
        assert abs(sk.optimal_pon(pa, canon) - sk.pon_approx(pa)) <= 0.05


def test_pon_approx_values():
    assert sk.pon_approx(317.0) == 1.0
    assert sk.pon_approx(5.0) == pytest.approx(5.0 / 317.0, rel=1e-12)
    assert sk.pon_approx(634.0) == 1.0
