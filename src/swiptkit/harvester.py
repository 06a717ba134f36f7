"""Energy-harvester models: a tiny tanh regression network, the sigmoidal
saturation model, a canonical synthetic curve, and On-Off signalling analysis.

All powers are in uW, amplitudes in sqrt(uW).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit


class FitDivergedError(RuntimeError):
    """Raised when the regression loss goes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"fit diverged (non-finite loss) at epoch {epoch}")
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
        # in (0,1); cancels the sigmoid's nonzero value at zero input
        return float(expit(-self.a * self.b))

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


# Canonical synthetic harvester: saturation 40 uW, inflection 300 uW, and the
# steepness solved once so that argmax_x f(x)/x lands at 317 uW, which is the
# knee that anchors the On-Off analysis.
_CANON_LS = 40.0
_CANON_B = 300.0
_CANON_KNEE = 317.0


@lru_cache(maxsize=1)
def canonical_model() -> ModelC:
    """The fixed ModelC instance behind :func:`canonical_curve`."""

    def knee_condition(a: float) -> float:
        m = ModelC(a=a, b=_CANON_B, ls=_CANON_LS)
        return m.derivative(_CANON_KNEE) * _CANON_KNEE - m.evaluate(_CANON_KNEE)

    a = brentq(knee_condition, 1e-3, 2.0, xtol=1e-14, rtol=8.9e-16)
    return ModelC(a=a, b=_CANON_B, ls=_CANON_LS)


def canonical_curve(p_in) -> np.ndarray | float:
    """Synthetic stand-in for a measured rectifier curve (knee at 317 uW)."""
    return canonical_model().evaluate(p_in)


# ---------------------------------------------------------------------------
# measured / synthetic datasets
# ---------------------------------------------------------------------------

@dataclass
class PowerDataset:
    """Input/output power pairs used to fit a harvester model."""

    p_in: np.ndarray
    p_out: np.ndarray
    source: str = "file"

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
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip() for h in header] != ["p_in_uw", "p_out_uw"]:
                raise ValueError(f"bad dataset header: {header!r}")
            rows = [(float(r[0]), float(r[1])) for r in reader if r]
        arr = np.array(rows, dtype=float)
        return cls(p_in=arr[:, 0], p_out=arr[:, 1], source="file")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["p_in_uw", "p_out_uw"])
            for a, b in zip(self.p_in, self.p_out):
                w.writerow([repr(float(a)), repr(float(b))])


def synth_dataset(n_points: int, p_max: float = 2000.0, noise_rel: float = 0.0,
                  seed: int = 0) -> PowerDataset:
    """Canonical-curve samples on a log grid over [0.1, p_max] plus the origin.

    Outputs carry multiplicative Gaussian noise of relative std ``noise_rel``
    and are clipped at zero. Deterministic per seed.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    grid = np.logspace(np.log10(0.1), np.log10(p_max), n_points - 1)
    p_in = np.concatenate([[0.0], grid])
    p_out = np.asarray(canonical_curve(p_in), dtype=float)
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        p_out = p_out * (1.0 + noise_rel * rng.standard_normal(p_out.shape))
    return PowerDataset(p_in=p_in, p_out=np.maximum(p_out, 0.0), source="synthetic")


# ---------------------------------------------------------------------------
# learned parametric model (3-2-1 tanh network on normalized power)
# ---------------------------------------------------------------------------

@dataclass
class EhModel:
    """Tanh regression network mapping instantaneous input power to
    harvested power, with normalization scales and a zero-offset correction
    so that zero input gives exactly zero output.
    """

    w1: np.ndarray  # (3, 1)
    b1: np.ndarray  # (3,)
    w2: np.ndarray  # (2, 3)
    b2: np.ndarray  # (2,)
    w3: np.ndarray  # (1, 2)
    b3: np.ndarray  # (1,)
    input_scale: float
    power_scale: float
    rmse: float | None = None

    def __post_init__(self):
        for name, shape in (("w1", (3, 1)), ("b1", (3,)), ("w2", (2, 3)),
                            ("b2", (2,)), ("w3", (1, 2)), ("b3", (1,))):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            setattr(self, name, arr)
        if not (self.input_scale > 0 and self.power_scale > 0):
            raise ValueError("scales must be positive")

    def _raw(self, z: np.ndarray) -> np.ndarray:
        return _eh_forward(self.params(), z)[0]

    def evaluate(self, p_in) -> np.ndarray | float:
        p = _require_finite(p_in)
        z = np.atleast_1d(p) / self.input_scale
        raw = self._raw(z)
        raw0 = self._raw(np.zeros(1))[0]
        out = self.power_scale * np.maximum(0.0, raw - raw0)
        return out.reshape(p.shape) if p.ndim else float(out[0])

    def derivative(self, p_in) -> np.ndarray | float:
        """d(evaluate)/d(p_in); zero in the clipped region."""
        p = _require_finite(p_in)
        z = np.atleast_1d(p) / self.input_scale
        f, a1, a2 = _eh_forward(self.params(), z)
        # chain rule through the three tanh layers
        du = (1.0 - f ** 2)[:, None] * self.w3            # (m, 2)
        da1 = (du * (1.0 - a2 ** 2)) @ self.w2            # (m, 3)
        dz = ((da1 * (1.0 - a1 ** 2)) * self.w1[:, 0]).sum(axis=1)
        raw0 = self._raw(np.zeros(1))[0]
        active = (f - raw0) > 0
        out = np.where(active, dz, 0.0) * self.power_scale / self.input_scale
        return out.reshape(p.shape) if p.ndim else float(out[0])

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def to_json(self) -> dict:
        d = {
            "w1": self.w1.tolist(), "b1": self.b1.tolist(),
            "w2": self.w2.tolist(), "b2": self.b2.tolist(),
            "w3": self.w3.tolist(), "b3": self.b3.tolist(),
            "input_scale": self.input_scale, "power_scale": self.power_scale,
        }
        if self.rmse is not None:
            d["rmse"] = self.rmse
        return d

    @classmethod
    def from_json(cls, d: dict) -> "EhModel":
        return cls(w1=np.array(d["w1"]), b1=np.array(d["b1"]),
                   w2=np.array(d["w2"]), b2=np.array(d["b2"]),
                   w3=np.array(d["w3"]), b3=np.array(d["b3"]),
                   input_scale=float(d["input_scale"]),
                   power_scale=float(d["power_scale"]),
                   rmse=d.get("rmse"))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1) + "\n")

    @classmethod
    def load(cls, path) -> "EhModel":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass
class FitHyper:
    learning_rate: float = 2.0
    epochs: int = 30000
    seed: int = 0
    init_scale: float = 1.0


def _eh_forward(params: list[np.ndarray], z: np.ndarray):
    w1, b1, w2, b2, w3, b3 = params
    a1 = np.tanh(np.outer(z, w1[:, 0]) + b1)
    a2 = np.tanh(a1 @ w2.T + b2)
    f = np.tanh(a2 @ w3.T + b3)[:, 0]
    return f, a1, a2


def eh_loss_and_grad(params: list[np.ndarray], z: np.ndarray, targets: np.ndarray):
    """Mean squared error of the zero-offset-corrected network on normalized
    data, with analytic gradients for all six parameter arrays.
    """
    w1, b1, w2, b2, w3, b3 = params
    m = z.size
    f, a1, a2 = _eh_forward(params, z)
    f0, a10, a20 = _eh_forward(params, np.zeros(1))
    r = (f - f0[0]) - targets
    loss = float(np.mean(r ** 2))

    du = (2.0 * r / m) * (1.0 - f ** 2)
    g_w3 = du[None, :] @ a2
    g_b3 = np.array([du.sum()])
    da2 = np.outer(du, w3[0]) * (1.0 - a2 ** 2)
    g_w2 = da2.T @ a1
    g_b2 = da2.sum(axis=0)
    da1 = da2 @ w2 * (1.0 - a1 ** 2)
    g_w1 = (da1 * z[:, None]).sum(axis=0)[:, None]
    g_b1 = da1.sum(axis=0)

    # the subtracted f(0) branch shares every parameter; its input is fixed 0,
    # so w1 only contributes through the bias path
    w0 = -(2.0 * r / m).sum()
    du0 = w0 * (1.0 - f0 ** 2)
    g_w3 += du0[None, :] @ a20
    g_b3 += du0.sum()
    da20 = np.outer(du0, w3[0]) * (1.0 - a20 ** 2)
    g_w2 += da20.T @ a10
    g_b2 += da20.sum(axis=0)
    da10 = da20 @ w2 * (1.0 - a10 ** 2)
    g_b1 += da10.sum(axis=0)

    return loss, [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]


def fit_eh(data: PowerDataset, hyper: FitHyper | None = None) -> EhModel:
    """Fit the tanh network to a power dataset by full-batch gradient descent.

    Inputs are normalized by the largest input power; targets are scaled into
    [0, 0.9] so the tanh head can reach them. Deterministic per seed.
    """
    hyper = hyper or FitHyper()
    pos = data.p_in[data.p_in > 0]
    if len(data) < 10 or pos.size == 0 or pos.max() / pos.min() < 10.0:
        raise ValueError("need >= 10 points spanning at least a decade of input power")

    input_scale = float(data.p_in.max())
    power_scale = float(data.p_out.max()) / 0.9
    if power_scale <= 0:
        power_scale = 1.0
    z = data.p_in / input_scale
    targets = data.p_out / power_scale

    rng = np.random.default_rng(hyper.seed)
    s = hyper.init_scale
    params = [rng.uniform(-s, s, (3, 1)), rng.uniform(-s, s, 3),
              rng.uniform(-s, s, (2, 3)), rng.uniform(-s, s, 2),
              rng.uniform(-s, s, (1, 2)), rng.uniform(-s, s, 1)]

    for epoch in range(hyper.epochs):
        loss, grads = eh_loss_and_grad(params, z, targets)
        if not np.isfinite(loss):
            raise FitDivergedError(epoch)
        for p, g in zip(params, grads):
            p -= hyper.learning_rate * g

    model = EhModel(*params, input_scale=input_scale, power_scale=power_scale)
    resid = np.asarray(model.evaluate(data.p_in)) - data.p_out
    model.rmse = float(np.sqrt(np.mean(resid ** 2)))
    return model


# ---------------------------------------------------------------------------
# On-Off signalling analysis
# ---------------------------------------------------------------------------

@dataclass
class OnOffLaw:
    """Two-mass amplitude law: zero w.p. 1-p_on, amplitude sqrt(P_a/p_on)
    w.p. p_on; the average power bookkeeping p_on * amplitude^2 = P_a is exact.
    """

    p_on: float
    p_a_uw: float
    amplitude: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.p_on <= 1.0):
            raise ValueError("p_on must be in (0, 1]")
        if not self.p_a_uw > 0:
            raise ValueError("P_a must be positive")
        self.amplitude = float(np.sqrt(self.p_a_uw / self.p_on))


def _harvest_fn(harvester):
    """Accept EhModel / ModelC / plain callable interchangeably."""
    return harvester.evaluate if hasattr(harvester, "evaluate") else harvester


def onoff_delivered(p_a_uw: float, p_on: float, harvester) -> float:
    """Noiseless delivered power of On-Off signalling: p_on * f(P_a / p_on)."""
    if not p_a_uw > 0:
        raise ValueError("P_a must be positive")
    if p_on == 0:
        raise ValueError("p_on must be nonzero")
    f = _harvest_fn(harvester)
    return float(p_on * f(p_a_uw / p_on))


def optimal_pon(p_a_uw: float, harvester, grid_size: int = 1000) -> float:
    """Grid argmax of the On-Off delivered power over p_on in (0, 1].

    Ties break toward larger p_on (the saturation plateau is the
    information-friendlier side).
    """
    if not p_a_uw > 0:
        raise ValueError("P_a must be positive")
    if grid_size < 100:
        raise ValueError("grid_size must be >= 100")
    p = np.arange(1, grid_size + 1) / grid_size
    f = _harvest_fn(harvester)
    delivered = p * np.asarray(f(p_a_uw / p), dtype=float)
    best = np.flatnonzero(delivered == delivered.max())
    return float(p[best[-1]])


def pon_approx(p_a_uw: float) -> float:
    """Closed-form approximation of the optimal On probability: the knee of
    the canonical harvester sits at 317 uW.
    """
    if not p_a_uw > 0:
        raise ValueError("P_a must be positive")
    return min(p_a_uw / 317.0, 1.0)
