import dataclasses

import numpy as np
import pytest

import swiptkit as sk
from swiptkit.constellation import write_csv, write_json
from swiptkit.harvester import _cubic_min, _lbfgs, _wolfe_step, eh_loss_and_grad
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


def test_model_c_omega_is_scipys_expit():
    from scipy.special import expit

    rng = np.random.default_rng(12)
    a, b = 10.0 ** rng.uniform(-6, 3, 20_000), 10.0 ** rng.uniform(-3, 4, 20_000)
    pairs = [*zip(a.tolist(), b.tolist()), (1.0, 709.78), (1.0, 709.79), (1.0, 1000.0),
             (5e-324, 1.0), (1e300, 1e300), (0.2584437248178421, 300.0)]
    for ai, bi in pairs:
        om = sk.ModelC(a=ai, b=bi, ls=1.0).omega
        assert type(om) is float and om == float(expit(-ai * bi))
        assert not np.signbit(om)


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


def test_canonical_steepness_is_the_knee_root(canon):
    from scipy.optimize import brentq

    from swiptkit.harvester import _CANON_B, _CANON_KNEE, _CANON_LS

    def knee_condition(a):
        m = sk.ModelC(a=a, b=_CANON_B, ls=_CANON_LS)
        return m.derivative(_CANON_KNEE) * _CANON_KNEE - m.evaluate(_CANON_KNEE)

    root = brentq(knee_condition, 1e-3, 2.0, xtol=1e-14, rtol=8.9e-16)
    assert abs(canon.a - root) <= 1e-14 + 8.9e-16 * abs(root)
    # the pinned value brackets the sign change on its own, whatever the solver
    assert knee_condition(canon.a - 1e-13) * knee_condition(canon.a + 1e-13) < 0
    x = np.arange(316.0, 318.0, 1e-3)
    assert abs(x[np.argmax(canon.evaluate(x) / x)] - 317.0) <= 1e-3


def test_canonical_zero_and_monotone(canon):
    assert canon.evaluate(0.0) == 0.0
    xs = np.arange(0.0, 2001.0, 1.0)
    v = canon.evaluate(xs)
    assert np.all(np.diff(v) >= 0.0)


def test_synth_dataset_noiseless_on_curve(canon):
    d = sk.synth_dataset(100, p_max=1000.0)
    assert np.allclose(d.p_out, canon.evaluate(d.p_in), rtol=0, atol=0)
    assert d.p_in[0] == 0.0


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
    write_csv(path, ["p_in_uw", "p_out_uw"],
              ([repr(float(a)), repr(float(b))] for a, b in zip(d.p_in, d.p_out)))
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
        net = MlpParams(weights=[rng.normal(size=(3, 1)), rng.normal(size=(2, 3)),
                                 rng.normal(size=(1, 2))],
                        biases=[rng.normal(size=3), rng.normal(size=2), rng.normal(size=1)])
        m = sk.EhModel(net, input_scale=500.0, power_scale=30.0)
        assert m.evaluate(0.0) == 0.0
        p = rng.uniform(0.0, 1000.0, 1000)
        assert np.all(np.asarray(m.evaluate(p)) >= 0.0)


def _ones_net():
    return MlpParams(weights=[np.ones((3, 1)), np.ones((2, 3)), np.ones((1, 2))],
                     biases=[np.zeros(3), np.zeros(2), np.zeros(1)])


def test_eval_eh_rejects_nonfinite():
    m = sk.EhModel(_ones_net(), input_scale=1.0, power_scale=1.0)
    with pytest.raises(ValueError):
        m.evaluate(np.inf)


def test_eh_model_is_one_net_checked_once(canonical_fit):
    assert [f.name for f in dataclasses.fields(sk.EhModel)] == [
        "net", "input_scale", "power_scale", "rmse", "fit_log"]
    assert not hasattr(canonical_fit, "w1")
    assert canonical_fit.net.weights[0].shape == (3, 1)
    net = _ones_net()
    net.weights[1] = np.ones((3, 2))
    with pytest.raises(ValueError, match=r"bad field 'w2': shape \(3, 2\)"):
        sk.EhModel(net, input_scale=1.0, power_scale=1.0)
    net = _ones_net()
    net.biases[2] = np.array([np.nan])
    with pytest.raises(ValueError, match="bad field 'b3': weights must be finite"):
        sk.EhModel(net, input_scale=1.0, power_scale=1.0)
    net = _ones_net()
    net.weights.append(np.ones((1, 1)))
    with pytest.raises(ValueError, match="bad field 'net'"):
        sk.EhModel(net, input_scale=1.0, power_scale=1.0)


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
    m = sk.fit_eh(d, epochs=20000, seed=1)
    vals = np.asarray(m.evaluate(p))
    assert np.all(np.abs(vals - 5.0) < 0.5)


def test_fit_deterministic():
    d = sk.synth_dataset(200, seed=7)
    a, b = sk.fit_eh(d, epochs=400, seed=9), sk.fit_eh(d, epochs=400, seed=9)
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
        hv.fit_eh(sk.synth_dataset(50), epochs=10)
    assert err.value.epoch == 0


def test_lbfgs_reaches_an_ill_conditioned_quadratics_minimizer():
    # eigenvalues 1 to 1e4 on a rotated basis, minimizer away from the start
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag(np.logspace(0, 4, 6)) @ q.T
    c = rng.uniform(-1.0, 1.0, 6)
    x, iterations, reason = _lbfgs(lambda x: (0.5 * (x - c) @ a @ (x - c), a @ (x - c)),
                                   np.zeros(6), 1000)
    assert reason in ("gradient", "f reduction") and iterations < 1000
    assert np.max(np.abs(x - c)) < 1e-4


def test_lbfgs_reaches_the_rosenbrock_minimum():
    def rosen(v):
        x, y = v
        return (100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2,
                np.array([-400.0 * x * (y - x * x) - 2.0 * (1.0 - x), 200.0 * (y - x * x)]))
    x, iterations, reason = _lbfgs(rosen, np.array([-1.2, 1.0]), 1000)
    assert reason in ("gradient", "f reduction") and iterations < 1000
    assert np.allclose(x, 1.0, atol=1e-4)


def test_lbfgs_shrinks_steps_onto_an_infinite_loss():
    # the loss is inf past radius 0.6, which the first step of 1/|d| crosses
    c = np.array([0.3, 0.4])
    walls = []

    def walled(x):
        if x @ x > 0.36:
            walls.append(x)
            return np.inf, np.zeros(2)
        return float((x - c) @ (x - c)), 2.0 * (x - c)
    x, _, reason = _lbfgs(walled, np.zeros(2), 100)
    assert walls
    assert reason in ("gradient", "f reduction")
    assert np.allclose(x, c, atol=1e-4)


def test_cubic_min_without_a_real_minimizer_is_none():
    # the cubic through (t, f, f') = (0, 0, 1) and (1, 2/3, 1) is t - t² + 2t³/3,
    # whose slope 1 - 2t + 2t² has no real root; nor has a cubic of nan values
    assert _cubic_min(0.0, 0.0, 1.0, 1.0, 2.0 / 3.0, 1.0) is None
    assert _cubic_min(0.0, 0.0, -1.0, 1.0, np.nan, 1.0) is None
    assert _cubic_min(0.0, 0.0, -1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)


def test_wolfe_step_without_a_wolfe_step_returns_its_last_lower_trial():
    # f = -x falls at slope -1 forever: every trial lowers the loss and none
    # meets the curvature condition, so the step is quadrupled on each of the
    # 20 evaluations and the last of them is returned
    evals = []

    def falling(x):
        evals.append(x)
        return -x[0], np.array([-1.0])
    t, f, g = _wolfe_step(falling, np.zeros(1), np.ones(1), 0.0, -1.0, 1.0)
    assert len(evals) == 20
    assert t == 4.0 ** 19 and f == -t and g.tolist() == [-1.0]


def test_wolfe_step_with_no_lower_trial_is_none():
    # the gradient's sign is wrong: along the claimed descent the loss x²/2
    # rises, so none of the 20 trials is kept
    evals = []

    def lying(x):
        evals.append(x)
        return 0.5 * float(x @ x), -x
    assert _wolfe_step(lying, np.ones(1), np.ones(1), 0.5, -1.0, 1.0) is None
    assert len(evals) == 20 and all(x[0] > 1.0 for x in evals)


def test_lbfgs_clears_its_memory_then_stops_when_no_step_lowers_the_loss():
    # near the minimum of x² + 10y² (over 2) the gradient's sign flips: from
    # the first point there, neither the search along -H·g nor the retry from
    # steepest descent along -g lowers the loss, and L-BFGS stops at that point
    a = np.array([1.0, 10.0])

    def honest(x):
        return 0.5 * float(x @ (a * x)), a * x
    evals = []

    def lying(x):
        evals.append(x)
        f, g = honest(x)
        return f, g if np.linalg.norm(x) > 0.5 else -g
    x, iterations, reason = _lbfgs(lying, np.array([5.0, 5.0]), 100)
    assert (iterations, reason) == (4, "line search")
    # the iterations up to that point are the honest ones
    capped, _, cap = _lbfgs(honest, np.array([5.0, 5.0]), iterations)
    assert cap == "cap" and np.array_equal(x, capped)
    # the retry's first trial is a unit step along -g = a·x, from no memory
    retry = next(i for i, e in enumerate(evals) if np.array_equal(e, x + a * x))
    assert len(evals) - retry == 20
    assert honest(x)[0] < min(honest(e)[0] for e in evals[-40:])


def test_fit_eh_runs_exactly_its_epochs():
    d = sk.synth_dataset(200, seed=7)
    assert sk.fit_eh(d, epochs=1, seed=9).fit_log == (1, "cap")
    iterations, reason = sk.fit_eh(d, epochs=10_000, seed=9).fit_log
    assert reason in ("gradient", "f reduction") and 1 < iterations < 10_000


def test_fit_eh_matches_scipy_lbfgsb_quality(monkeypatch):
    # the oracle: SciPy's L-BFGS-B on the same loss, start and iteration cap,
    # at the benchmark's fit (2,000 points, 5% noise, 10,000 iterations)
    from scipy.optimize import minimize

    import swiptkit.harvester as hv

    def scipy_lbfgsb(loss_and_grad, x0, max_iter):
        res = minimize(loss_and_grad, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter})
        return res.x, res.nit, res.message

    for seed in range(8):
        data = sk.synth_dataset(2000, noise_rel=0.05, seed=seed)
        ours = sk.fit_eh(data, epochs=10_000, seed=seed)
        with monkeypatch.context() as mp:
            mp.setattr(hv, "_lbfgs", scipy_lbfgsb)
            theirs = sk.fit_eh(data, epochs=10_000, seed=seed)
        assert ours.rmse == pytest.approx(theirs.rmse, rel=0.10), seed


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
    write_json(path, canonical_fit.to_json())
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
