"""Energy-harvester models: a tanh regression network fitted by L-BFGS, the
sigmoidal saturation model, a canonical synthetic curve, and On-Off analysis.

Every harvester is an object with ``evaluate(p)``, the harvested power at
instantaneous input power ``p``, and ``value_and_derivative(p)``, the pair
(``evaluate(p)``, df/dp) bit for bit; the channel, the On-Off analysis and
the autoencoder's loss take any such object. All powers are in uW,
amplitudes in sqrt(uW).

The fit's optimizer is in the package (:func:`_lbfgs`), so no command imports
SciPy: ``scipy.optimize`` alone costs a process about 50 MB and half a
second. SciPy is left to the tests, as an oracle.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .constellation import check_pa, json_field
from .nn import MlpParams, flat, mlp_backward, mlp_forward, pack, views


class FitDivergedError(RuntimeError):
    """Raised when the regression loss is non-finite at the fit's start
    (later non-finite trials only shrink the fit's step)."""

    def __init__(self, epoch: int):
        super().__init__(f"fit diverged (non-finite loss) at iteration {epoch}")
        self.epoch = epoch


def _require_finite(p_in) -> np.ndarray:
    p = np.asarray(p_in, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("input power must be finite")
    return p


# ---------------------------------------------------------------------------
# sigmoidal saturation model
# ---------------------------------------------------------------------------

@dataclass
class ModelC:
    """Sigmoidal harvester: steepness `a` (1/uW), inflection `b` (uW),
    saturation level `ls` (uW). Output is exactly 0 at zero input and
    approaches `ls` asymptotically.
    """

    a: float
    b: float
    ls: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.ls > 0):
            raise ValueError("ModelC requires a > 0, b > 0, ls > 0")

    @property
    def omega(self) -> float:
        """The logistic at zero input, 1/(1 + exp(a·b)) in [0, 1), bit for bit
        ``scipy.special.expit(-a·b)``; 0.0 where exp(a·b) overflows. The
        output subtracts it, so that zero input gives exactly 0."""
        try:
            return 1.0 / (1.0 + math.exp(self.a * self.b))
        except OverflowError:
            return 0.0

    def evaluate(self, p_in) -> np.ndarray | float:
        p = _require_finite(p_in)
        om = self.omega
        # far below the inflection exp overflows to inf and psi is exactly 0;
        # ls * expit(.) would round differently from this form
        with np.errstate(over="ignore"):
            psi = self.ls / (1.0 + np.exp(-self.a * (p - self.b)))
        out = (psi - self.ls * om) / (1.0 - om)
        return out if out.ndim else float(out)

    def derivative(self, p_in) -> np.ndarray | float:
        p = _require_finite(p_in)
        # the logistic's slope is even in a(p - b), so exp(-|.|) never overflows
        e = np.exp(-np.abs(self.a * (p - self.b)))
        out = (self.ls * self.a * e / (1.0 + e) ** 2) / (1.0 - self.omega)
        return out if out.ndim else float(out)

    def value_and_derivative(self, p_in):
        """(evaluate(p_in), derivative(p_in))."""
        return self.evaluate(p_in), self.derivative(p_in)


# Canonical synthetic harvester: saturation 40 uW, inflection 300 uW, and the
# steepness at which argmax_x f(x)/x lands at 317 uW, the knee that anchors
# the On-Off analysis.
_CANON_LS = 40.0
_CANON_B = 300.0
_CANON_KNEE = 317.0
_CANON_A = 0.2584437248178421


@lru_cache(maxsize=1)
def canonical_model() -> ModelC:
    """Synthetic stand-in for a measured rectifier curve: the fixed ModelC
    whose knee, argmax f(x)/x, is at 317 uW.

    Its steepness is pinned to the root of the knee condition
    f'(317) * 317 = f(317), as ``scipy.optimize.brentq`` returns it on
    [1e-3, 2] at xtol=1e-14, rtol=8.9e-16, so the curve's bits depend on no
    solver version; ``tests/test_harvester.py::test_canonical_steepness_is_the_knee_root``
    solves it again and checks the constant.
    """
    return ModelC(a=_CANON_A, b=_CANON_B, ls=_CANON_LS)


# ---------------------------------------------------------------------------
# measured / synthetic datasets
# ---------------------------------------------------------------------------

@dataclass
class PowerDataset:
    """Input/output power pairs used to fit a harvester model."""

    p_in: np.ndarray
    p_out: np.ndarray

    def __post_init__(self):
        self.p_in = np.asarray(self.p_in, dtype=float)
        self.p_out = np.asarray(self.p_out, dtype=float)
        if self.p_in.size == 0:
            raise ValueError("dataset must be nonempty")
        if self.p_in.shape != self.p_out.shape:
            raise ValueError("p_in and p_out must have equal length")
        ok = np.isfinite(self.p_in) & np.isfinite(self.p_out)
        if not (ok.all() and (self.p_in >= 0).all() and (self.p_out >= 0).all()):
            raise ValueError("dataset values must be finite and >= 0")

    def __len__(self) -> int:
        return self.p_in.size

    @classmethod
    def from_csv(cls, path) -> "PowerDataset":
        """Read a ``p_in_uw,p_out_uw`` CSV; ValueError names a bad header or
        the line of a malformed row."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty dataset file: no p_in_uw,p_out_uw header")
            if [h.strip() for h in header] != ["p_in_uw", "p_out_uw"]:
                raise ValueError(f"bad dataset header: {header!r}")
            rows = []
            for r in reader:
                if not r:
                    continue
                try:
                    rows.append((float(r[0]), float(r[1])))
                except (IndexError, ValueError):
                    raise ValueError(f"bad dataset row on line {reader.line_num}: "
                                     f"{r!r} is not p_in_uw,p_out_uw") from None
        arr = np.array(rows, dtype=float).reshape(-1, 2)   # no rows: the dataset is empty
        return cls(p_in=arr[:, 0], p_out=arr[:, 1])


def synth_dataset(n_points: int, p_max: float = 2000.0, noise_rel: float = 0.0,
                  seed: int = 0) -> PowerDataset:
    """Canonical-curve samples on a log grid over [0.1, p_max] plus the origin.

    Outputs carry multiplicative Gaussian noise of relative std ``noise_rel``
    and are clipped at zero. Deterministic per seed.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not 0.1 < p_max < np.inf:
        raise ValueError(f"p_max must exceed the grid's lowest power 0.1 uW and be finite, "
                         f"got {p_max}")
    if not 0 <= noise_rel < np.inf:
        raise ValueError(f"noise_rel must be finite and >= 0, got {noise_rel}")
    grid = np.logspace(np.log10(0.1), np.log10(p_max), n_points - 1)
    p_in = np.concatenate([[0.0], grid])
    p_out = canonical_model().evaluate(p_in)
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        p_out = p_out * (1.0 + noise_rel * rng.standard_normal(p_out.shape))
    return PowerDataset(p_in=p_in, p_out=np.maximum(p_out, 0.0))


# ---------------------------------------------------------------------------
# learned parametric model (3-2-1 tanh network on normalized power)
# ---------------------------------------------------------------------------

# (field, shape) of the 1-3-2-1 net's parameters, in the core's flat order:
# the JSON format's fields, and the shapes of the fit's first draw
_EH_SHAPES = (("w1", (3, 1)), ("b1", (3,)), ("w2", (2, 3)),
              ("b2", (2,)), ("w3", (1, 2)), ("b3", (1,)))


def _eh_head(net: MlpParams, p: np.ndarray, scale: float):
    """(f, activations) of the tanh head on [p.ravel(); 0] / scale; f[-1] is f(0)."""
    x = np.append(p, 0.0)[:, None]
    x /= scale   # in place: no second copy of a large input
    h, acts = mlp_forward(net, x)
    return np.tanh(h[:, 0], out=h[:, 0]), acts   # backward never reads h


@dataclass
class EhModel:
    """Tanh regression network mapping instantaneous input power to
    harvested power: the 1-3-2-1 net ``net``, in the :mod:`~swiptkit.nn`
    core's form that the fit and the backward passes use, on input power
    over ``input_scale``, its tanh head scaled by ``power_scale``, with a
    zero-offset correction so that zero input gives exactly zero output.
    """

    net: MlpParams   # arrays shaped as _EH_SHAPES
    input_scale: float
    power_scale: float
    rmse: float | None = None
    fit_log: tuple[int, str] | None = None   # fit_eh's (iterations, stop reason); not in the JSON

    def __post_init__(self):
        if not len(self.net.weights) == len(self.net.biases) == 3:
            raise ValueError("bad field 'net': the harvester's net has three layers")
        for (name, shape), arr in zip(_EH_SHAPES, flat([(self.net.weights, self.net.biases)])):
            if np.shape(arr) != shape:
                raise ValueError(f"bad field {name!r}: shape {np.shape(arr)}, not {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"bad field {name!r}: weights must be finite")
        for name in ("input_scale", "power_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"bad field {name!r}: scales must be finite and positive")

    def evaluate(self, p_in) -> np.ndarray | float:
        p = _require_finite(p_in)
        f = _eh_head(self.net, p, self.input_scale)[0]
        out = self.power_scale * np.maximum(0.0, f[:-1] - f[-1])
        return out.reshape(p.shape) if p.ndim else float(out[0])

    def derivative(self, p_in) -> np.ndarray | float:
        """d(evaluate)/d(p_in); zero in the clipped region."""
        return self.value_and_derivative(p_in)[1]

    def value_and_derivative(self, p_in):
        """(evaluate(p_in), derivative(p_in)), bit for bit, from one forward
        pass of the net."""
        p = _require_finite(p_in)
        f, acts = _eh_head(self.net, p, self.input_scale)
        rel = f[:-1] - f[-1]
        value = self.power_scale * np.maximum(0.0, rel)
        dz = mlp_backward(self.net, acts, (1.0 - f ** 2)[:, None])
        slope = np.where(rel > 0, dz[:-1, 0], 0.0) * self.power_scale / self.input_scale
        if not p.ndim:
            return float(value[0]), float(slope[0])
        return value.reshape(p.shape), slope.reshape(p.shape)

    def to_json(self) -> dict:
        arrays = flat([(self.net.weights, self.net.biases)])
        d = {name: arr.tolist() for (name, _), arr in zip(_EH_SHAPES, arrays)}
        d.update(input_scale=self.input_scale, power_scale=self.power_scale)
        if self.rmse is not None:
            d["rmse"] = self.rmse
        return d

    @classmethod
    def from_json(cls, d: dict) -> "EhModel":
        """ValueError names a missing or malformed field."""
        arrays = [json_field(d, name, lambda v, s=shape: np.array(v, dtype=float).reshape(s))
                  for name, shape in _EH_SHAPES]
        return cls(MlpParams(weights=arrays[0::2], biases=arrays[1::2]),
                   input_scale=json_field(d, "input_scale", float),
                   power_scale=json_field(d, "power_scale", float), rmse=d.get("rmse"))

    @classmethod
    def load(cls, path) -> "EhModel":
        return cls.from_json(json.loads(Path(path).read_text()))


def eh_loss_and_grad(net: MlpParams, z: np.ndarray, targets: np.ndarray):
    """Mean squared error of the zero-offset-corrected network on normalized
    data, and its gradient as one vector in :func:`pack` order: a new array
    per call, since :func:`_lbfgs` keeps the gradients it was given.
    """
    m = z.size
    f, acts = _eh_head(net, z, 1.0)
    r = (f[:-1] - f[-1]) - targets
    loss = float(np.mean(r ** 2))
    d_r = 2.0 * r / m
    # the subtracted zero-input row shares every parameter
    d_f = np.append(d_r, -d_r.sum())
    grad = np.empty(sum(w.size + b.size for w, b in zip(net.weights, net.biases)))
    mlp_backward(net, acts, (d_f * (1.0 - f ** 2))[:, None], views(grad, [net])[0],
                 input_grad=False)
    return loss, grad


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS direction -H·g: the two-loop recursion over the curvature
    pairs (s, y, 1/sᵀy), oldest first, from H0 = γI with γ = sᵀy/yᵀy of the
    newest pair."""
    d = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ d))
        d -= alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        d *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d += (alpha - rho * (y @ d)) * s
    return d


def _cubic_min(t1, f1, g1, t2, f2, g2):
    """Minimizer of the cubic through (t, f, df/dt) at t1 != t2, or None;
    in Python floats, which overflow to inf and nan without a warning."""
    d1 = g1 + g2 - 3.0 * (f1 - f2) / (t1 - t2)
    rad = d1 * d1 - g1 * g2
    if not rad >= 0.0:
        return None
    d2 = math.copysign(math.sqrt(rad), t2 - t1)
    den = g2 - g1 + 2.0 * d2
    return t2 - (t2 - t1) * (g2 + d2 - d1) / den if den else None


def _wolfe_step(loss_and_grad, x, d, f0, slope0, t):
    """(t, f, g) at a step along ``d`` from ``x`` that meets the strong Wolfe
    conditions (c1 = 1e-3, c2 = 0.9), found in at most 20 evaluations from
    the trial step ``t``: the step is quadrupled until a minimum is
    bracketed, then the bracket [lo, hi] is shrunk by safeguarded cubic
    interpolation (Nocedal & Wright, Algorithms 3.5 and 3.6). A trial with
    a non-finite loss ends the bracket there. ``f0`` and ``slope0`` are the
    loss and its slope along ``d`` at ``x``. With no such step, the last
    step that lowered the loss, or None if none did.
    """
    lo, hi = (0.0, f0, slope0, None), None
    for _ in range(20):
        f, g = loss_and_grad(x + t * d)
        f, slope = float(f), float(g @ d)
        if not (f <= f0 + 1e-3 * t * slope0 and f < lo[1]):   # a non-finite f fails too
            hi = (t, f, slope, g)
        elif abs(slope) <= -0.9 * slope0:
            return t, f, g
        else:
            if slope >= 0.0 if hi is None else slope * (hi[0] - t) >= 0.0:
                hi = lo   # the minimum lies back toward lo
            lo = (t, f, slope, g)
        if hi is None:
            t *= 4.0
            continue
        width = hi[0] - lo[0]
        t = lo[0] + 0.5 * width
        if math.isfinite(hi[1]):
            c = _cubic_min(*lo[:3], *hi[:3])
            if c is not None and abs(c - t) <= 0.4 * abs(width):
                t = c
    return (lo[0], lo[1], lo[3]) if lo[0] > 0.0 else None


def _lbfgs(loss_and_grad, x0: np.ndarray, max_iter: int):
    """Minimize ``loss_and_grad(x) -> (loss, gradient)`` from ``x0`` by
    L-BFGS (Liu & Nocedal 1989), unconstrained, at the constants and the
    stopping rule of L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) as SciPy sets
    them by default.

    Memory 10; the first step is 1/‖d‖, later ones 1, and :func:`_wolfe_step`
    refines them. A pair with sᵀy <= eps·yᵀy is dropped; a failed search
    clears the memory and tries again from steepest descent. Stops when
    max|g| <= 1e-5 ("gradient"), when (f_old - f)/max(|f_old|, |f|, 1) <=
    1e7·eps ("f reduction"), after ``max_iter`` iterations ("cap"), or when
    no step from steepest descent lowers the loss ("line search").
    Returns (x, iterations, stop reason). FitDivergedError if the loss at
    ``x0`` is not finite.
    """
    x = x0
    f, g = loss_and_grad(x)
    f = float(f)
    if not math.isfinite(f):
        raise FitDivergedError(0)
    pairs = deque(maxlen=10)
    tol = 1e7 * np.finfo(float).eps
    it, f_old = 0, f
    while True:
        if np.max(np.abs(g)) <= 1e-5:
            return x, it, "gradient"
        if it and f_old - f <= tol * max(abs(f_old), abs(f), 1.0):
            return x, it, "f reduction"
        if it == max_iter:
            return x, it, "cap"
        d = _two_loop(g, pairs)
        slope = float(g @ d)
        step = None if not slope < 0.0 else _wolfe_step(
            loss_and_grad, x, d, f, slope, 1.0 if it else 1.0 / math.sqrt(d @ d))
        if step is None:
            if not pairs:
                return x, it, "line search"
            pairs.clear()
            continue
        t, f_new, g_new = step
        s, y = t * d, g_new - g
        if s @ y > np.finfo(float).eps * (y @ y):
            pairs.append((s, y, 1.0 / (s @ y)))
        x, f_old, f, g = x + s, f, f_new, g_new
        it += 1


def fit_eh(data: PowerDataset, epochs: int = 30000, seed: int = 0) -> EhModel:
    """Fit the tanh network to a power dataset by :func:`_lbfgs` on its flat
    parameter vector, for at most ``epochs`` iterations, from parameters
    drawn uniformly from [-1, 1] at ``seed``; the model's ``fit_log`` holds
    the iteration count and the stop reason.

    Inputs are normalized by the largest input power; targets are scaled into
    [0, 0.9] so the tanh head can reach them. Deterministic per seed.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    pos = data.p_in[data.p_in > 0]
    if len(data) < 10 or pos.size == 0 or pos.max() / pos.min() < 10.0:
        raise ValueError("need >= 10 points spanning at least a decade of input power")

    input_scale = float(data.p_in.max())
    power_scale = float(data.p_out.max()) / 0.9
    if power_scale <= 0:
        power_scale = 1.0
    z = data.p_in / input_scale
    targets = data.p_out / power_scale

    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(-1.0, 1.0, shape) for _, shape in _EH_SHAPES]
    net = MlpParams(weights=arrays[0::2], biases=arrays[1::2])
    theta = pack([net])

    def loss_at(x):
        theta[:] = x
        return eh_loss_and_grad(net, z, targets)

    x, iterations, reason = _lbfgs(loss_at, theta.copy(), epochs)
    theta[:] = x

    model = EhModel(net, input_scale=input_scale, power_scale=power_scale,
                    fit_log=(iterations, reason))
    resid = np.asarray(model.evaluate(data.p_in)) - data.p_out
    model.rmse = float(np.sqrt(np.mean(resid ** 2)))
    return model


# ---------------------------------------------------------------------------
# On-Off signalling analysis
# ---------------------------------------------------------------------------

def onoff_delivered(p_a_uw: float, p_on: float, harvester) -> float:
    """Noiseless delivered power of On-Off signalling: p_on * f(P_a / p_on)."""
    check_pa(p_a_uw)
    if p_on == 0:
        raise ValueError("p_on must be nonzero")
    return float(p_on * harvester.evaluate(p_a_uw / p_on))


def optimal_pon(p_a_uw: float, harvester) -> float:
    """Argmax of the On-Off delivered power over the 1000-point grid of p_on
    in (0, 1].

    Ties break toward larger p_on (the saturation plateau is the
    information-friendlier side).
    """
    check_pa(p_a_uw)
    p = np.arange(1, 1001) / 1000
    delivered = p * np.asarray(harvester.evaluate(p_a_uw / p), dtype=float)
    best = np.flatnonzero(delivered == delivered.max())
    return float(p[best[-1]])


def pon_approx(p_a_uw: float) -> float:
    """Closed-form approximation of the optimal On probability: the knee of
    the canonical harvester sits at 317 uW.
    """
    check_pa(p_a_uw)
    return min(p_a_uw / _CANON_KNEE, 1.0)
