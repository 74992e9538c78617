"""Outer image-formation loop: TV-regularized FISTA on the data fidelity.

Minimizes D(f) + tau R(f) where D sums 0.5||y_t - z_t(f)||^2 over the
transmitters and R is (by default isotropic) TV with a box constraint.  The
gradient of D comes from the reverse-mode pass through the nonlinear forward
model; switching ``model`` to "born" or "rytov" replaces the forward operator
by the linearized one (Rytov additionally replaces y by the complex-log
transformed data) so the baselines run under the identical FISTA/TV machinery.
"""

import numbers
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adjoint import data_fidelity, gradient_from_trace
from .errors import ConfigError, DimensionError, NumericalError, TransformError
from .forward import ForwardConfig, forward_solve, predict_scattered
from .greens import (MaskedSensorOperator, build_domain_operator,
                     build_sensor_operator, green_2d, green_3d)
from .grid import SensorSet
from .metrics import normalized_recon_error
from .tv import BoxConstraint, prox_tv

# receiver decimation factors MeasurementSet.subsample accepts
SUBSAMPLE_FACTORS = (1, 2, 4, 8, 16, 32, 64, 128)
# FISTA stops once ||f_new - f_prev|| falls below this fraction of ||f_prev||
STOP_REL_CHANGE = 1e-6


@dataclass(frozen=True)
class Transmitter:
    """One illumination: an isotropic point source or a unit plane wave."""

    kind: str
    position: tuple | None = None
    direction: tuple | None = None
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.kind == "point":
            if self.position is None:
                raise ConfigError("point transmitter needs a position")
            object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        elif self.kind == "plane":
            if self.direction is None:
                raise ConfigError("plane transmitter needs a direction")
            d = np.asarray(self.direction, dtype=float)
            norm = np.linalg.norm(d)
            if norm == 0:
                raise ConfigError("plane-wave direction must be nonzero")
            object.__setattr__(self, "direction", tuple(d / norm))
        else:
            raise ConfigError("transmitter kind must be 'point' or 'plane'")
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    def field_at(self, points, k_b):
        """Incident field at physical points of shape (..., ndim)."""
        points = np.asarray(points, dtype=float)
        if self.kind == "point":
            disp = points - np.asarray(self.position)
            g = green_2d if points.shape[-1] == 2 else green_3d
            return self.amplitude * g(disp, k_b)
        d = np.asarray(self.direction)
        return self.amplitude * np.exp(1j * k_b * (points @ d))

    def field_on_grid(self, grid):
        return self.field_at(grid.pixel_centers(), grid.k_b)


@dataclass
class MeasurementSet:
    """Scattered-field measurements for a set of illuminations.

    All transmitters share one sensor slot set (``receivers``); per
    transmitter, ``active_indices[t]`` masks the slots actually recorded and
    ``y[t]`` holds the measured scattered field on those slots (noise, when
    present, is baked into y).
    """

    transmitters: list
    receivers: SensorSet
    active_indices: list
    y: list
    frequency_hz: float | None = None

    def __post_init__(self):
        if not (len(self.transmitters) == len(self.active_indices) == len(self.y)):
            raise ConfigError("per-transmitter list lengths disagree")
        if len(self.transmitters) < 1:
            raise ConfigError("need at least one transmitter")
        self.active_indices = [np.asarray(ix, dtype=int) for ix in self.active_indices]
        self.y = [np.asarray(v, dtype=complex) for v in self.y]
        for t, (ix, v) in enumerate(zip(self.active_indices, self.y)):
            if ix.shape != v.shape:
                raise DimensionError(f"transmitter {t}: {ix.size} receivers but "
                                     f"{v.size} measurements")
            if not np.all(np.isfinite(v.view(float))):
                raise ConfigError(f"transmitter {t}: non-finite measurement")

    @property
    def n_tx(self):
        return len(self.transmitters)

    def y_norm_sq(self):
        return float(sum(np.vdot(v, v).real for v in self.y))

    def subsample(self, factor):
        """Regular decimation of each transmitter's active receivers.

        Keeps 0-based positions 1, 1+factor, 1+2*factor, ... of the ordered
        active list, so the kept sets nest across factors (the factor-2 set
        contains the factor-4 set, and so on).
        """
        if factor not in SUBSAMPLE_FACTORS:
            raise ConfigError("subsampling factor must be a power of 2 up to 128")
        if factor == 1:
            return self
        keep = [np.arange(1, ix.size, factor) for ix in self.active_indices]
        return MeasurementSet(
            transmitters=self.transmitters,
            receivers=self.receivers,
            active_indices=[ix[kp] for ix, kp in zip(self.active_indices, keep)],
            y=[v[kp] for v, kp in zip(self.y, keep)],
            frequency_hz=self.frequency_hz)


@dataclass
class ReconConfig:
    """All solver knobs of the outer image-formation loop."""

    forward: ForwardConfig
    tau: float | None = None          # absolute TV weight
    tau_rel: float | None = None      # tau = tau_rel * ||y||^2 when given
    step_gamma: float | None = None   # None: backtracking estimate, then frozen
    fista_iters: int = 50
    tv_variant: str = "iso"
    tv_iters: int = 10
    tv_delta: float = 1e-4
    box: BoxConstraint = field(default_factory=lambda: BoxConstraint(0.0, np.inf))
    workers: int = 1

    def __post_init__(self):
        for name in ("fista_iters", "tv_iters"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer")
        if self.fista_iters < 1:
            raise ConfigError("fista_iters must be >= 1")
        if self.step_gamma is not None and not self.step_gamma > 0:
            raise ConfigError("step_gamma must be positive")
        if self.tv_variant not in ("iso", "aniso"):
            raise ConfigError("tv_variant must be 'iso' or 'aniso'")
        if (self.tau is None) == (self.tau_rel is None):
            raise ConfigError("set exactly one of tau / tau_rel")
        if (self.tau if self.tau is not None else self.tau_rel) < 0:
            raise ConfigError("TV weight must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def resolve_tau(self, measurements):
        if self.tau is not None:
            return self.tau
        return self.tau_rel * measurements.y_norm_sq()


@dataclass
class ReconReport:
    """Reconstruction output with per-iteration diagnostics."""

    f_hat: np.ndarray
    data_fit_history: list
    recon_error_history: list | None
    iter_seconds: list
    step_gamma: float
    tau: float


class ScatteringProblem:
    """Precomputed operators binding a measurement set to a grid."""

    def __init__(self, measurements, grid):
        ndim = measurements.receivers.positions.shape[1]
        if ndim != grid.ndim:
            raise ConfigError(f"measurement receiver positions have {ndim} axes "
                              f"but the grid has {grid.ndim}")
        self.measurements = measurements
        self.grid = grid
        self.G = build_domain_operator(grid)
        self._H_ring = build_sensor_operator(grid, measurements.receivers)
        self.H = [MaskedSensorOperator(self._H_ring, ix)
                  for ix in measurements.active_indices]
        self.u_in = [tx.field_on_grid(grid) for tx in measurements.transmitters]
        self.u_in_sensors = [
            tx.field_at(measurements.receivers.positions[ix], grid.k_b)
            for tx, ix in zip(measurements.transmitters, measurements.active_indices)]


def _map_tx(fn, problem, workers):
    idx = range(problem.measurements.n_tx)
    if workers <= 1 or problem.measurements.n_tx == 1:
        return [fn(t) for t in idx]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, idx))


def total_gradient(f, problem, cfg):
    """Sum of per-transmitter data-fidelity gradients."""

    def one(t):
        trace = forward_solve(f, problem.u_in[t], problem.G, problem.H[t], cfg.forward)
        return gradient_from_trace(f, problem.measurements.y[t], problem.G,
                                   problem.H[t], trace)

    parts = _map_tx(one, problem, cfg.workers)
    return np.sum(parts, axis=0)


def predict_all(f, problem, cfg):
    """Predicted scattered field per transmitter at the current f."""

    def one(t):
        trace = forward_solve(f, problem.u_in[t], problem.G, None, cfg.forward)
        return predict_scattered(trace.u_hat, f, problem.H[t])

    return _map_tx(one, problem, cfg.workers)


def born_predict(f, u_in, H):
    """First-Born scattered field H (u_in * f)."""
    return predict_scattered(u_in, f, H)


def born_gradient(f, y, u_in, H):
    """Gradient of 0.5||y - z_B(f)||^2 under the first-Born linear model."""
    resid = born_predict(f, u_in, H) - np.asarray(y)
    return np.real(np.conj(u_in) * H.apply_adjoint(resid))


def rytov_transform(u_total, u_in):
    """Complex-log data transform u_in * log(u_total / u_in).

    The imaginary part of the log is unwrapped along the receiver index (one
    call per transmitter).  The result substitutes for the scattered field in
    the Born linear model.
    """
    u_total = np.asarray(u_total, dtype=complex)
    u_in = np.asarray(u_in, dtype=complex)
    if u_total.shape != u_in.shape:
        raise DimensionError("total and incident sensor fields differ in shape")
    if np.any(u_in == 0):
        raise TransformError("incident field vanishes at a sensor")
    ratio = u_total / u_in
    if np.any(ratio == 0):
        raise TransformError("total field vanishes at a sensor")
    phase = np.angle(ratio)
    jumps = np.abs(np.diff(phase))
    if np.any(jumps > np.pi):
        warnings.warn("phase unwrap ambiguity: successive receiver phase jumps "
                      "exceed pi", stacklevel=2)
    return u_in * (np.log(np.abs(ratio)) + 1j * np.unwrap(phase))


def _linear_gradient(f, problem, cfg, data):
    def one(t):
        return born_gradient(f, data[t], problem.u_in[t], problem.H[t])

    return np.sum(_map_tx(one, problem, cfg.workers), axis=0)


def _linear_predict(f, problem, cfg):
    def one(t):
        return born_predict(f, problem.u_in[t], problem.H[t])

    return _map_tx(one, problem, cfg.workers)


def _backtrack_step(f0, grad0, eval_D, D0):
    """Halve gamma until the quadratic upper bound holds at the first step."""
    g_sq = float(np.vdot(grad0, grad0).real)
    if g_sq == 0.0:
        return 1.0
    gamma = 2.0 * D0 / g_sq if D0 > 0 else 1.0
    for _ in range(80):
        f_try = f0 - gamma * grad0
        if eval_D(f_try) <= D0 - 0.5 * gamma * g_sq + 1e-12 * abs(D0):
            return gamma
        gamma *= 0.5
    raise NumericalError("step-size backtracking failed to satisfy the bound")


def fista_reconstruct(measurements, grid, cfg, ground_truth=None, model="full"):
    """TV-regularized FISTA reconstruction of the scattering potential.

    model: "full" uses the multiple-scattering forward/adjoint pair; "born"
    the first-Born linearization; "rytov" the Born machinery on complex-log
    transformed data.  Deterministic for fixed inputs.
    """
    if model not in ("full", "born", "rytov"):
        raise ConfigError("model must be 'full', 'born' or 'rytov'")
    problem = ScatteringProblem(measurements, grid)

    data = measurements.y
    if model == "rytov":
        data = [rytov_transform(y + ui, ui)
                for y, ui in zip(measurements.y, problem.u_in_sensors)]
    y_norm_sq = float(sum(np.vdot(v, v).real for v in data))

    if model == "full":
        grad_fn = lambda f: total_gradient(f, problem, cfg)
        pred_fn = lambda f: predict_all(f, problem, cfg)
    else:
        grad_fn = lambda f: _linear_gradient(f, problem, cfg, data)
        pred_fn = lambda f: _linear_predict(f, problem, cfg)

    def eval_D(f):
        return float(sum(data_fidelity(z, yv) for z, yv in zip(pred_fn(f), data)))

    tau = cfg.resolve_tau(measurements)
    f_prev = np.zeros(grid.shape)
    f_tilde = f_prev.copy()

    gamma = cfg.step_gamma
    if gamma is None:
        grad0 = grad_fn(f_tilde)
        if not np.all(np.isfinite(grad0)):
            raise NumericalError("non-finite gradient at the initial iterate")
        gamma = _backtrack_step(f_tilde, grad0, eval_D, eval_D(f_tilde))
    if not np.isfinite(gamma * tau):
        raise NumericalError("tau * gamma overflow")

    data_fit_hist = []
    err_hist = [] if ground_truth is not None else None
    secs = []
    dual = None
    q_prev = 1.0
    for it in range(1, cfg.fista_iters + 1):
        tic = time.perf_counter()
        grad = grad_fn(f_tilde)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        f_new, dual = prox_tv(f_tilde - gamma * grad, gamma * tau, box=cfg.box,
                              variant=cfg.tv_variant, iters=cfg.tv_iters,
                              delta_in=cfg.tv_delta, dual_init=dual,
                              return_dual=True)
        q_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * q_prev * q_prev))
        f_tilde = f_new + ((q_prev - 1.0) / q_new) * (f_new - f_prev)
        step_norm = float(np.linalg.norm(f_new - f_prev))
        ref_norm = float(np.linalg.norm(f_prev))
        f_prev = f_new
        q_prev = q_new

        # normalized data fit ||z - y||^2/||y||^2; a null measurement set
        # (no object) fits exactly by convention
        D_new = eval_D(f_new)
        data_fit_hist.append(2.0 * D_new / y_norm_sq if y_norm_sq > 0
                             else (0.0 if D_new == 0.0 else np.inf))
        if err_hist is not None:
            err_hist.append(normalized_recon_error(f_new, ground_truth))
        secs.append(time.perf_counter() - tic)
        if ref_norm > 0 and step_norm < STOP_REL_CHANGE * ref_norm:
            break

    return ReconReport(f_hat=f_prev, data_fit_history=data_fit_hist,
                       recon_error_history=err_hist, iter_seconds=secs,
                       step_gamma=gamma, tau=tau)
