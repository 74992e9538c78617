"""Outer image-formation loop: TV-regularized FISTA on the data fidelity.

Minimizes D(f) + tau R(f) where D sums 0.5||y_t - z_t(f)||^2 over the
transmitters and R is isotropic TV with a box constraint.  The gradient of D
is the adjoint-state gradient, two BiCGStab solves on A = I - G diag(f) per
transmitter; every prediction, the step search's included, runs the
gradient's u solve (``loop_field``), so the loop never runs the paper's
series.
Switching ``model`` to "born" or "rytov" replaces the forward operator
by the linearized one (Rytov additionally replaces y by the complex-log
transformed data) so the baselines run under the identical FISTA/TV machinery.
The linear model treats all transmitters at once: a prediction is one matrix
product with H and a gradient one more with its adjoint.
"""

import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .adjoint import adjoint_state_gradient, data_fidelity, loop_field
# not called: benchmarks/layers.py wraps it; ROADMAP item 1 drops the site
from .adjoint import gradient_from_trace  # noqa: F401
from .errors import ConfigError, DimensionError, NumericalError, TransformError
from .forward import ForwardConfig, predict_scattered
# not called: benchmarks/layers.py wraps it
from .forward import forward_solve  # noqa: F401
from .greens import (MaskedSensorOperator, SensorGreensOperator,
                     build_domain_operator, green_2d, green_3d, sensor_rows)
# not called: benchmarks/layers.py wraps it
from .greens import build_sensor_operator  # noqa: F401
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
            scale = np.max(np.abs(d), initial=0.0)
            if not 0 < scale < np.inf:
                raise ConfigError("plane-wave direction must be finite and nonzero")
            # scaling by the largest entry first keeps the norm from
            # overflowing or underflowing
            d = d / scale
            object.__setattr__(self, "direction", tuple(d / np.linalg.norm(d)))
        else:
            raise ConfigError("transmitter kind must be 'point' or 'plane'")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not np.all(np.isfinite([*(self.position or ()), self.amplitude])):
            raise ConfigError("transmitter position and amplitude must be finite")

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
            if ix.size == 0:
                raise ConfigError(f"transmitter {t}: no receivers")
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
        for t, kp in enumerate(keep):
            if kp.size == 0:
                raise ConfigError(f"subsampling by {factor} leaves transmitter {t} "
                                  "no receivers")
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
    tau_rel: float = 1.5e-9           # TV weight tau = tau_rel * ||y||^2
    fista_iters: int = 50
    tv_iters: int = 10
    box: BoxConstraint = field(default_factory=lambda: BoxConstraint(0.0, np.inf))
    # not a field: benchmarks/workloads.py reads it; ROADMAP item 1 deletes it
    workers = 1

    def __post_init__(self):
        for name, value in (("fista_iters", self.fista_iters), ("tv_iters", self.tv_iters)):
            # bool is an Integral, and the config file rejects it
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer")
        if self.fista_iters < 1:
            raise ConfigError("fista_iters must be >= 1")
        if self.tv_iters < 0:
            raise ConfigError("tv_iters must be >= 0")
        if isinstance(self.tau_rel, bool) or not 0 <= self.tau_rel < np.inf:
            raise ConfigError("tau_rel must be a finite number >= 0")

    def resolve_tau(self, measurements):
        return self.tau_rel * measurements.y_norm_sq()


@dataclass
class ReconReport:
    """Reconstruction output with per-iteration diagnostics.

    ``data_fit_history`` holds one normalized data fit ||z - y||^2/||y||^2
    per iteration.  Entries 1..n-1 are at the extrapolated point f~_k where
    that iteration took its gradient, and come free with it: z is formed
    from the gradient's BiCGStab fields.  The last entry is at ``f_hat``,
    from one ``predict_all``, which runs the same u solve.  ``step_gamma``
    is the FISTA step the backtracking at f = 0 found and every iteration
    used.
    """

    f_hat: np.ndarray
    data_fit_history: list
    recon_error_history: list | None
    iter_seconds: list
    step_gamma: float
    tau: float


def sensors_and_incident(grid, receivers, transmitters):
    """The sensor operator on ``receivers``, and the (T, N) array whose row t
    is transmitter t's incident field on the grid, raveled.

    The receivers' rows and the point sources' fields come from one
    ``sensor_rows`` call, which builds its Graf grid table once; plane waves
    are evaluated on their own.
    """
    point = [t for t, tx in enumerate(transmitters) if tx.kind == "point"]
    m = len(receivers)
    rows = sensor_rows(
        grid, receivers,
        np.array([transmitters[t].position for t in point]).reshape(len(point), grid.ndim),
        [transmitters[t].amplitude for t in point])
    U_in = np.empty((len(transmitters), grid.size), dtype=complex)
    U_in[point] = rows[m:]
    for t, tx in enumerate(transmitters):
        if tx.kind == "plane":
            U_in[t] = tx.field_on_grid(grid).ravel()
    return SensorGreensOperator(grid, receivers, rows[:m]), U_in


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
        # H holds only the receiver slots some transmitter recorded; each
        # transmitter's mask indexes into that union
        active = measurements.active_indices
        recorded = np.unique(np.concatenate(active))
        self._H_ring, self.U_in = sensors_and_incident(
            grid, SensorSet(measurements.receivers.positions[recorded]),
            measurements.transmitters)
        self.H = [MaskedSensorOperator(self._H_ring, np.searchsorted(recorded, ix))
                  for ix in active]
        # row t of U_in is u_in[t] raveled, and u_in[t] is a view of it
        self.u_in = [u.reshape(grid.shape) for u in self.U_in]
        self.u_in_sensors = [
            tx.field_at(measurements.receivers.positions[ix], grid.k_b)
            for tx, ix in zip(measurements.transmitters, measurements.active_indices)]


def total_gradient(f, problem, cfg):
    """Sum of per-transmitter adjoint-state gradients, and D at f.

    Each transmitter solves A u = u_in and A x = conj(H^H r) by BiCGStab
    (see ``adjoint_state_gradient``), not the series, and applies no G^H.
    D is read from the predictions those fields give, so it costs no
    G-apply; ``predict_all`` runs the same u solve, so its D at the same f
    is the same bit for bit.
    """
    grads, Ds = [], []
    for u_in, H, y in zip(problem.u_in, problem.H, problem.measurements.y):
        grad, D = adjoint_state_gradient(f, y, u_in, problem.G, H, cfg.forward)
        grads.append(grad)
        Ds.append(D)
    return np.sum(grads, axis=0), float(sum(Ds))


def predict_all(f, problem, cfg):
    """Predicted scattered field per transmitter at f, from ``loop_field``."""
    return [loop_field(f, u_in, problem.G, H, cfg.forward)[1]
            for u_in, H in zip(problem.u_in, problem.H)]


def born_predict(f, u_in, H):
    """First-Born scattered field H (u_in * f)."""
    return predict_scattered(u_in, f, H)


def born_gradient(f, y, u_in, H):
    """Gradient of D = 0.5||y - z_B(f)||^2 under the first-Born linear model, and D."""
    resid = born_predict(f, u_in, H) - np.asarray(y)
    return (np.real(np.conj(u_in) * H.apply_adjoint(resid)),
            0.5 * float(np.vdot(resid, resid).real))


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


def _born_rows(f, problem):
    """Row t is H (u_in[t] * f) on every recorded slot: one GEMM for all T."""
    f = problem.grid.check_field(f, "potential")
    return (problem.U_in * f.ravel()) @ problem._H_ring.matrix.T


def _linear_predict(f, problem):
    """``born_predict`` for every transmitter."""
    return [z[h.indices] for z, h in zip(_born_rows(f, problem), problem.H)]


def _linear_gradient(f, problem, data):
    """Sum over transmitters of ``born_gradient``, and D: two GEMMs in all."""
    R = _born_rows(f, problem)
    D = 0.0
    for r, h, y in zip(R, problem.H, data):
        resid = r[h.indices] - y
        D += 0.5 * float(np.vdot(resid, resid).real)
        r[:] = 0.0
        r[h.indices] = resid
    # row t of conj(R) H is conj(H^H r_t), so Re(conj(u_t) H^H r_t) is the
    # real part of u_t times that row
    B = R.conj() @ problem._H_ring.matrix
    return np.real(np.sum(problem.U_in * B, axis=0)).reshape(problem.grid.shape), D


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
    transformed data.  A ``ground_truth`` must have the grid's shape and a
    nonzero norm; it is checked before the first field solve.  Deterministic
    for fixed inputs.
    """
    if model not in ("full", "born", "rytov"):
        raise ConfigError("model must be 'full', 'born' or 'rytov'")
    if ground_truth is not None:
        ground_truth = grid.check_field(ground_truth, "ground truth")
        if not np.any(ground_truth):
            raise ConfigError("ground truth has zero norm")
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
        grad_fn = lambda f: _linear_gradient(f, problem, data)
        pred_fn = lambda f: _linear_predict(f, problem)

    def eval_D(f):
        return float(sum(data_fidelity(z, yv) for z, yv in zip(pred_fn(f), data)))

    tau = cfg.resolve_tau(measurements)
    f_prev = np.zeros(grid.shape)
    f_tilde = f_prev.copy()

    # the backtracking's gradient at f = 0 is also iteration 1's
    grad, D = grad_fn(f_tilde)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient at the initial iterate")
    gamma = _backtrack_step(f_tilde, grad, eval_D, D)
    if not np.isfinite(gamma * tau):
        raise NumericalError("tau * gamma overflow")

    data_fit_hist = []
    err_hist = [] if ground_truth is not None else None
    secs = []
    dual = None
    q_prev = 1.0
    for it in range(1, cfg.fista_iters + 1):
        tic = time.perf_counter()
        if it > 1:
            grad, D = grad_fn(f_tilde)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        f_new, dual = prox_tv(f_tilde - gamma * grad, gamma * tau, box=cfg.box,
                              iters=cfg.tv_iters, dual_init=dual)
        q_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * q_prev * q_prev))
        f_tilde = f_new + ((q_prev - 1.0) / q_new) * (f_new - f_prev)
        step_norm = float(np.linalg.norm(f_new - f_prev))
        ref_norm = float(np.linalg.norm(f_prev))
        f_prev = f_new
        q_prev = q_new
        last = (it == cfg.fista_iters
                or (ref_norm > 0 and step_norm < STOP_REL_CHANGE * ref_norm))

        # normalized data fit ||z - y||^2/||y||^2: the gradient's free D at
        # f_tilde, and one prediction at f_hat after the last step; a null
        # measurement set (no object) fits exactly by convention
        if last:
            D = eval_D(f_new)
        data_fit_hist.append(2.0 * D / y_norm_sq if y_norm_sq > 0
                             else (0.0 if D == 0.0 else np.inf))
        if err_hist is not None:
            err_hist.append(normalized_recon_error(f_new, ground_truth))
        secs.append(time.perf_counter() - tic)
        if last:
            break

    return ReconReport(f_hat=f_prev, data_fit_history=data_fit_hist,
                       recon_error_history=err_hist, iter_seconds=secs,
                       step_gamma=gamma, tau=tau)
