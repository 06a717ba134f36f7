"""Energy-harvester models: a tanh regression network fitted by L-BFGS-B, the
sigmoidal saturation model, a canonical synthetic curve, and On-Off analysis.

Every harvester is an object with ``evaluate(p)``, the harvested power at
instantaneous input power ``p``, and ``value_and_derivative(p)``, the pair
(``evaluate(p)``, df/dp) bit for bit; the channel, the On-Off analysis and
the autoencoder's loss take any such object. All powers are in uW,
amplitudes in sqrt(uW).

SciPy is imported inside the one function that calls it (``expit`` in
:attr:`ModelC.omega`, ``minimize`` in :func:`fit_eh`), not at module level:
importing ``scipy.optimize`` and ``scipy.special`` costs about half a second
per process, and most commands call neither.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .constellation import json_field
from .nn import MlpParams, flat, mlp_backward, mlp_forward, pack, views


class FitDivergedError(RuntimeError):
    """Raised when the regression loss goes non-finite."""

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
        # in (0,1); cancels the sigmoid's nonzero value at zero input
        from scipy.special import expit

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
    return PowerDataset(p_in=p_in, p_out=np.maximum(p_out, 0.0), source="synthetic")


# ---------------------------------------------------------------------------
# learned parametric model (3-2-1 tanh network on normalized power)
# ---------------------------------------------------------------------------

# (field, shape) of the 1-3-2-1 net's parameters, in the core's flat order
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
        for name, shape in _EH_SHAPES:
            arr = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            setattr(self, name, arr)
        if not (self.input_scale > 0 and self.power_scale > 0):
            raise ValueError("scales must be positive")

    @property
    def net(self) -> MlpParams:
        return MlpParams(weights=[self.w1, self.w2, self.w3],
                         biases=[self.b1, self.b2, self.b3])

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
        net = self.net
        f, acts = _eh_head(net, p, self.input_scale)
        rel = f[:-1] - f[-1]
        value = self.power_scale * np.maximum(0.0, rel)
        dz = mlp_backward(net, acts, (1.0 - f ** 2)[:, None])
        slope = np.where(rel > 0, dz[:-1, 0], 0.0) * self.power_scale / self.input_scale
        if not p.ndim:
            return float(value[0]), float(slope[0])
        return value.reshape(p.shape), slope.reshape(p.shape)

    def to_json(self) -> dict:
        d = {name: getattr(self, name).tolist() for name, _ in _EH_SHAPES}
        d.update(input_scale=self.input_scale, power_scale=self.power_scale)
        if self.rmse is not None:
            d["rmse"] = self.rmse
        return d

    @classmethod
    def from_json(cls, d: dict) -> "EhModel":
        """ValueError names a missing or malformed field."""
        arrays = {name: json_field(d, name, lambda v, s=shape: np.array(v, dtype=float).reshape(s))
                  for name, shape in _EH_SHAPES}
        return cls(**arrays, input_scale=json_field(d, "input_scale", float),
                   power_scale=json_field(d, "power_scale", float), rmse=d.get("rmse"))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1, allow_nan=False) + "\n")

    @classmethod
    def load(cls, path) -> "EhModel":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass
class FitHyper:
    epochs: int = 30000   # max L-BFGS-B iterations
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def eh_loss_and_grad(net: MlpParams, z: np.ndarray, targets: np.ndarray):
    """Mean squared error of the zero-offset-corrected network on normalized
    data, and its gradient as one vector in :func:`pack` order: a new array
    per call, since L-BFGS-B may keep the last gradient it was given.
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


def fit_eh(data: PowerDataset, hyper: FitHyper | None = None) -> EhModel:
    """Fit the tanh network to a power dataset by L-BFGS-B on its flat
    parameter vector, at scipy's default tolerances.

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
    w1, b1, w2, b2, w3, b3 = (rng.uniform(-s, s, shape) for _, shape in _EH_SHAPES)
    net = MlpParams(weights=[w1, w2, w3], biases=[b1, b2, b3])
    theta = pack([net])

    def loss_at(x):
        theta[:] = x
        return eh_loss_and_grad(net, z, targets)

    from scipy.optimize import minimize

    res = minimize(loss_at, theta.copy(), jac=True, method="L-BFGS-B",
                   options={"maxiter": hyper.epochs})
    if not np.isfinite(res.fun):
        raise FitDivergedError(res.nit)
    theta[:] = res.x

    model = EhModel(*flat([(net.weights, net.biases)]), input_scale=input_scale,
                    power_scale=power_scale)
    resid = np.asarray(model.evaluate(data.p_in)) - data.p_out
    model.rmse = float(np.sqrt(np.mean(resid ** 2)))
    return model


# ---------------------------------------------------------------------------
# On-Off signalling analysis
# ---------------------------------------------------------------------------

def onoff_delivered(p_a_uw: float, p_on: float, harvester) -> float:
    """Noiseless delivered power of On-Off signalling: p_on * f(P_a / p_on)."""
    if not 0 < p_a_uw < np.inf:
        raise ValueError("P_a must be finite and positive")
    if p_on == 0:
        raise ValueError("p_on must be nonzero")
    return float(p_on * harvester.evaluate(p_a_uw / p_on))


def optimal_pon(p_a_uw: float, harvester) -> float:
    """Argmax of the On-Off delivered power over the 1000-point grid of p_on
    in (0, 1].

    Ties break toward larger p_on (the saturation plateau is the
    information-friendlier side).
    """
    if not 0 < p_a_uw < np.inf:
        raise ValueError("P_a must be finite and positive")
    p = np.arange(1, 1001) / 1000
    delivered = p * np.asarray(harvester.evaluate(p_a_uw / p), dtype=float)
    best = np.flatnonzero(delivered == delivered.max())
    return float(p[best[-1]])


def pon_approx(p_a_uw: float) -> float:
    """Closed-form approximation of the optimal On probability: the knee of
    the canonical harvester sits at 317 uW.
    """
    if not 0 < p_a_uw < np.inf:
        raise ValueError("P_a must be finite and positive")
    return min(p_a_uw / _CANON_KNEE, 1.0)
