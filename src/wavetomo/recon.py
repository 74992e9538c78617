"""Outer image-formation loop: TV-regularized FISTA on the data fidelity.

Minimizes D(f) + tau R(f) where D sums 0.5||y_t - z_t(f)||^2 over the
transmitters and R is isotropic TV with a box constraint.  One kernel,
``total_gradient``, gives the gradient of D and D for all three models, and
``predict_all`` runs its first half.  The full model solves A = I - G diag(f)
by BiCGStab; the first-Born linearization is the same kernel with A = I, so
its fields are the incident fields and its adjoint fields the back-projected
residuals.  Rytov is Born on complex-log transformed data.  All transmitters
share the H products: a prediction is one matrix product with H and a
gradient one more with its adjoint, each split into pixel blocks that run on
the field solves' threads.  The FISTA step starts from a
backtracking at f = 0, then grows while the objective falls and halves,
restarting the momentum, when it rises (Scheinberg, Goldfarb and Bai, 2014).
"""

import contextvars
import functools
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, ConvergenceWarning, DimensionError, NumericalError,
                     TransformError)
from .forward import ForwardConfig, bicgstab, data_fidelity
# not called: benchmarks/layers.py wraps them; drop them with those sites
from .forward import forward_solve, gradient_from_trace  # noqa: F401
from .greens import (MaskedSensorOperator, SensorGreensOperator, SystemOperator,
                     build_domain_operator, green_matrix, point_green, sensor_rows)
# not called: benchmarks/layers.py wraps it
from .greens import build_sensor_operator  # noqa: F401
from .grid import SensorSet, check_integer
from .metrics import normalized_error
from .tv import BoxConstraint, prox_tv, tv_value

# receiver decimation factors MeasurementSet.subsample accepts
SUBSAMPLE_FACTORS = (1, 2, 4, 8, 16, 32, 64, 128)
# FISTA stops once ||f_new - f_prev|| falls below this fraction of ||f_prev||
STOP_REL_CHANGE = 1e-6
# the FISTA step's factors after a strict fall and after a rise of D + tau TV
STEP_GROW = 1.05
STEP_SHRINK = 0.5
# the most threads one call's field solves or H products run on, and the
# number of pixel blocks each H product splits into: two were measured faster
# than one, while each thread's glibc arena adds to the peak RSS (4 and 8
# threads, forced on a 2-CPU host, raised recon_full_2d's by 11% and 26%)
MAX_SOLVE_THREADS = 2
# the variables OpenBLAS, numpy's bundled BLAS, reads its thread count from:
# the first positive one counts, and with none it runs a thread per CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
            return self.amplitude * point_green(points.shape[-1])(disp, k_b)
        d = np.asarray(self.direction)
        return self.amplitude * np.exp(1j * k_b * (points @ d))

    def field_on_grid(self, grid):
        return self.field_at(grid.pixel_centers(), grid.k_b)


def check_subsample(factor, n_receivers=None):
    """``factor`` if ``MeasurementSet.subsample`` takes it and, given the
    fewest receivers a transmitter records, keeps one of them; else ConfigError."""
    factor = check_integer("subsampling factor", factor)
    if factor not in SUBSAMPLE_FACTORS:
        raise ConfigError("subsampling factor must be a power of 2 up to 128")
    # subsample keeps positions 1, 1 + factor, ...: none of one receiver
    if factor > 1 and n_receivers is not None and n_receivers < 2:
        raise ConfigError(f"subsampling by {factor} keeps no receiver of {n_receivers}")
    return factor


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
        self.active_indices = [np.asarray(ix) for ix in self.active_indices]
        self.y = [np.asarray(v, dtype=complex) for v in self.y]
        ndim = self.receivers.positions.shape[1]
        for t, (tx, ix, v) in enumerate(zip(self.transmitters, self.active_indices,
                                            self.y)):
            name = "position" if tx.kind == "point" else "direction"
            coords = len(getattr(tx, name))
            if coords != ndim:
                raise ConfigError(f"transmitter {t}: {tx.kind} {name} has {coords} "
                                  f"coordinates but the receiver positions have {ndim}")
            if ix.shape != v.shape:
                raise DimensionError(f"transmitter {t}: {ix.size} receivers but "
                                     f"{v.size} measurements")
            if ix.size == 0:
                raise ConfigError(f"transmitter {t}: no receivers")
            # a cast would take a float or bool index to a slot, 0.7 to slot 0
            if ix.dtype.kind not in "iu":
                raise ConfigError(f"transmitter {t}: receiver indices must be "
                                  f"integers, got {ix.dtype}")
            ix = self.active_indices[t] = ix.astype(int, copy=False)
            outside = ix[(ix < 0) | (ix >= len(self.receivers))]
            if outside.size:
                raise ConfigError(f"transmitter {t}: receiver index {outside[0]} "
                                  f"outside 0..{len(self.receivers) - 1}")
            slots, counts = np.unique(ix, return_counts=True)
            if np.any(counts > 1):
                raise ConfigError(f"transmitter {t}: receiver slot "
                                  f"{slots[counts > 1][0]} listed twice")
            if not np.all(np.isfinite(v)):
                raise ConfigError(f"transmitter {t}: non-finite measurement")

    @property
    def n_tx(self):
        return len(self.transmitters)

    def subsample(self, factor):
        """Regular decimation of each transmitter's active receivers.

        Keeps 0-based positions 1, 1+factor, 1+2*factor, ... of the ordered
        active list, so the kept sets nest across factors (the factor-2 set
        contains the factor-4 set, and so on).
        """
        check_subsample(factor, min(ix.size for ix in self.active_indices))
        if factor == 1:
            return self
        keep = [np.arange(1, ix.size, factor) for ix in self.active_indices]
        return MeasurementSet(
            transmitters=self.transmitters,
            receivers=self.receivers,
            active_indices=[ix[kp] for ix, kp in zip(self.active_indices, keep)],
            y=[v[kp] for v, kp in zip(self.y, keep)],
            frequency_hz=self.frequency_hz)


def incident_fields(grid, transmitters, sensors=None):
    """(H, U_in): H's rows on ``sensors`` (None without them) and the
    transmitters' incident fields, row t of U_in transmitter t's on the grid
    raveled.

    One ``sensor_rows`` call, or ``green_matrix`` without sensors, builds
    the point sources' fields with H's rows, so its Graf grid table is
    built once; plane waves are evaluated on their own.  When every
    transmitter is a point source, H and U_in are two views of that call's
    output, so no row is held twice.
    """
    point = [t for t, tx in enumerate(transmitters) if tx.kind == "point"]
    sources = np.reshape([transmitters[t].position for t in point], (len(point), grid.ndim))
    amplitudes = [transmitters[t].amplitude for t in point]
    if sensors is None:
        H, rows = None, green_matrix(grid, sources, amplitudes)
    else:
        rows = sensor_rows(grid, sensors, sources, amplitudes)
        H, rows = rows[:len(sensors)], rows[len(sensors):]
    if len(point) == len(transmitters):
        return H, rows
    U_in = np.empty((len(transmitters), grid.size), dtype=complex)
    U_in[point] = rows
    for t, tx in enumerate(transmitters):
        if tx.kind == "plane":
            U_in[t] = tx.field_on_grid(grid).ravel()
    return H, U_in


@dataclass
class ReconConfig:
    """All solver knobs of the outer image-formation loop."""

    forward: ForwardConfig
    tau_rel: float = 1.5e-9           # TV weight tau = tau_rel * ||y||^2
    fista_iters: int = 50
    box: BoxConstraint = field(default_factory=lambda: BoxConstraint(0.0, np.inf))
    # not a field, and the library never reads it: benchmarks/workloads.py
    # does; delete it once that read is gone
    workers = 1

    def __post_init__(self):
        if check_integer("fista_iters", self.fista_iters) < 1:
            raise ConfigError("fista_iters must be >= 1")
        if isinstance(self.tau_rel, bool) or not 0 <= self.tau_rel < np.inf:
            raise ConfigError("tau_rel must be a finite number >= 0")


@dataclass
class ReconReport:
    """Reconstruction output with per-iteration diagnostics.

    ``data_fit_history`` holds one normalized data fit ||z - y||^2/||y||^2
    per iteration.  Entries 1..n-1 are at the extrapolated point f~_k where
    that iteration took its gradient, and come free with it: z is formed
    from the gradient's fields.  The last entry is at ``f_hat``, from one
    ``predict_all``, which forms the same fields.  ``step_history`` holds
    the step each iteration used: its first entry is the start step gamma_0
    the backtracking at f = 0 found, and each later entry is the one before
    it times STEP_GROW after a strict fall of D + tau TV at the gradient's
    point, times STEP_SHRINK after a rise, or unchanged.  ``wavetomo
    reconstruct`` writes every field but ``f_hat`` to report.json.
    """

    f_hat: np.ndarray
    tau: float
    step_history: list
    data_fit_history: list
    recon_error_history: list | None
    iter_seconds: list


class ScatteringProblem:
    """Precomputed operators binding a measurement set to a grid.

    H's rows on the recorded slots and the incident fields come from one
    ``incident_fields`` call.  ``G`` and ``u_in_sensors`` are built on first
    read and kept: only the full model solves on G, and only the Rytov
    transform reads the incident fields at the receivers, so Born and Rytov
    runs build no G.
    """

    def __init__(self, measurements, grid):
        ndim = measurements.receivers.positions.shape[1]
        if ndim != grid.ndim:
            raise ConfigError(f"measurement receiver positions have {ndim} axes "
                              f"but the grid has {grid.ndim}")
        self.measurements = measurements
        self.grid = grid
        # H holds only the receiver slots some transmitter recorded; each
        # transmitter's mask indexes into that union
        active = measurements.active_indices
        recorded = np.unique(np.concatenate(active))
        sensors = SensorSet(measurements.receivers.positions[recorded])
        H, self.U_in = incident_fields(grid, measurements.transmitters, sensors)
        self._H_ring = SensorGreensOperator(grid, sensors, H)
        self.H = [MaskedSensorOperator(self._H_ring, np.searchsorted(recorded, ix))
                  for ix in active]
        # row t of U_in is u_in[t] raveled, and u_in[t] is a view of it
        self.u_in = [u.reshape(grid.shape) for u in self.U_in]

    @functools.cached_property
    def G(self):
        return build_domain_operator(self.grid)

    @functools.cached_property
    def u_in_sensors(self):
        """The incident field on each transmitter's recorded slots."""
        m = self.measurements
        return [tx.field_at(m.receivers.positions[ix], self.grid.k_b)
                for tx, ix in zip(m.transmitters, m.active_indices)]


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_on_one_thread():
    """Whether the environment starts OpenBLAS on one thread.  A threaded
    OpenBLAS keeps its helper threads spinning for a while after each
    threaded GEMM, and those would take the CPUs the field solves run on."""
    for var in BLAS_THREAD_VARS:
        try:
            count = int(os.environ.get(var, ""))
        except ValueError:  # unset or not a number: OpenBLAS skips it too
            continue
        if count > 0:
            return count == 1
    return False


def _on_threads(count, work):
    """[work(i) for i in range(count)], run on the solve threads.

    They are n = min(count, usable CPUs, MAX_SOLVE_THREADS) threads when
    BLAS runs on one thread, and the calling thread alone otherwise: the
    calling thread takes i = 0, n, 2n, ... and n - 1 workers of one pool the
    rest, numpy's FFTs and GEMMs releasing the GIL.  Workers run in a copy
    of the caller's context, so their warnings meet the caller's filters
    even where those are context-local (Python 3.14's context-aware
    warnings); an exception reaches the caller once every thread has
    finished.
    """
    n = min(count, _usable_cpus(), MAX_SOLVE_THREADS) if _blas_on_one_thread() else 1
    results = [None] * count

    def run(start):
        for i in range(start, count, n):
            results[i] = work(i)

    if n <= 1:
        run(0)
        return results
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, start)
                   for start in range(1, n)]
        run(0)
    for fut in futures:
        fut.result()
    return results


def _on_pixel_blocks(n_pixels, work):
    """[work(s) for s in the MAX_SOLVE_THREADS contiguous slices that split
    the pixels in order], run on the solve threads.  The split is the same
    on any host, so with BLAS on one thread the results do not depend on
    the thread count."""
    k = MAX_SOLVE_THREADS
    return _on_threads(k, lambda b: work(slice(n_pixels * b // k, n_pixels * (b + 1) // k)))


def _solve_rows(A, B, cfg):
    """Row t of B solved on the ``SystemOperator`` A, or B itself when A is
    None (the first-Born linearization, A = I).

    Each solve is BiCGStab started at its right-hand side and stopped at
    cfg.forward.residual_tol of its norm or after cfg.forward.K
    iterations.  The rows are independent systems on one shared, immutable
    A, solved on the solve threads (``_on_threads``).  Each row is written
    by one thread only, so X is bit-identical to a serial loop.
    """
    if A is None:
        return B
    X = np.empty_like(B)
    tol = cfg.forward.residual_tol

    def solve(t):
        b = B[t].reshape(A.grid.shape)
        X[t] = bicgstab(A.apply, b, b, tol, cfg.forward.K)[0].ravel()

    _on_threads(len(B), solve)
    return X


def _fields_and_rows(f, problem, cfg):
    """A = I - G diag(f), None when cfg is None (A = I); the fields U, row t
    solving A u_t = u_in[t]; and R = (U f) H^T: row t is H (f u_t) on every
    recorded slot.  R is the sum of the pixel blocks' partial products
    (U[:, b] f[b]) H[:, b]^T, formed on the solve threads and summed in
    block order."""
    A = None if cfg is None else SystemOperator(f, problem.G)
    U = _solve_rows(A, problem.U_in, cfg)
    f, H = f.ravel(), problem._H_ring.matrix
    R, *rest = _on_pixel_blocks(f.size, lambda s: (U[:, s] * f[s]) @ H[:, s].T)
    for part in rest:
        R += part
    return A, U, R


def total_gradient(f, problem, cfg, data):
    """Gradient of D = sum_t 0.5||H_t(f u_t) - y_t||^2 at f, and D.

    The adjoint-state gradient: u_t solves A u_t = u_in[t], r_t is the
    residual on transmitter t's recorded slots, x_t solves
    A x_t = conj(H^H r_t), and the gradient is Re sum_t u_t x_t.  ``cfg`` is
    the ``ReconConfig`` whose forward settings stop the BiCGStab solves
    (see ``_solve_rows``), or None for the linear models, A = I, where
    u_t = u_in[t] and x_t = conj(H^H r_t).  ``data`` holds y_t per
    transmitter.  D is read from the rows ``predict_all`` returns, so at
    the same f the two give the same D bit for bit.  The back-projection
    is written pixel block by pixel block on the solve threads, and for the
    linear models the row sum with it; after the x solves, one more pool
    would cost more than the full model's row sum.
    """
    f = problem.grid.check_field(f, "potential")
    A, U, R = _fields_and_rows(f, problem, cfg)
    D = 0.0
    for r, h, y in zip(R, problem.H, data):
        resid = r[h.indices] - y
        D += 0.5 * float(np.vdot(resid, resid).real)
        r[:] = 0.0
        r[h.indices] = resid
    R = R.conj()
    H = problem._H_ring.matrix
    X = np.empty_like(U)
    grad = np.empty(f.size)

    def back_project(s):
        # row t of conj(R) H is conj(H^H r_t)
        np.matmul(R, H[:, s], out=X[:, s])

    def row_sum(s):
        grad[s] = np.real(np.sum(U[:, s] * X[:, s], axis=0))

    if A is None:
        _on_pixel_blocks(f.size, lambda s: (back_project(s), row_sum(s)))
    else:
        _on_pixel_blocks(f.size, back_project)
        X = _solve_rows(A, X, cfg)
        row_sum(slice(None))
    return grad.reshape(problem.grid.shape), D


def predict_all(f, problem, cfg):
    """Predicted scattered field per transmitter at f, from the fields
    ``total_gradient`` solves; cfg None is the first-Born model."""
    f = problem.grid.check_field(f, "potential")
    _, _, R = _fields_and_rows(f, problem, cfg)
    return [r[h.indices] for r, h in zip(R, problem.H)]


def born_predict(f, u_in, H):
    """First-Born scattered field H (u_in * f)."""
    return H.apply(H.grid.check_field(u_in, "u_in") * H.grid.check_field(f, "potential"))


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


def _backtrack_step(f0, grad0, eval_D, D0):
    """Halve gamma until the quadratic upper bound holds at the first step.
    An objective that is not finite, D0 or a trial's, raises at once: no
    halving brings back a NaN."""
    if not np.isfinite(D0):
        raise NumericalError("non-finite objective at the initial iterate")
    g_sq = float(np.vdot(grad0, grad0).real)
    if g_sq == 0.0:
        return 1.0
    gamma = 2.0 * D0 / g_sq if D0 > 0 else 1.0
    for _ in range(80):
        D = eval_D(f0 - gamma * grad0)
        if not np.isfinite(D):
            raise NumericalError("non-finite objective in the step-size backtracking")
        if D <= D0 - 0.5 * gamma * g_sq + 1e-12 * abs(D0):
            return gamma
        gamma *= 0.5
    raise NumericalError("step-size backtracking failed to satisfy the bound")


def fista_reconstruct(measurements, grid, cfg, ground_truth=None, model="full"):
    """TV-regularized FISTA reconstruction of the scattering potential.

    model: "full" solves A = I - G diag(f) for the fields; "born" and
    "rytov" take A = I, the first-Born linearization, and "rytov" fits it
    to complex-log transformed data.  A ``ground_truth`` must have the
    grid's shape and a nonzero norm; it is checked before the first field
    solve.  Deterministic for fixed inputs.

    The step starts at the backtracking's gamma_0 at f = 0 and follows
    F_k = D(f~_k) + tau TV(f~_k), where D comes with iteration k's gradient:
    gamma grows by STEP_GROW when F_k < F_{k-1}, and when F_k > F_{k-1} it
    is halved and the momentum restarts.  A rise right after a halving is
    one the halving did not handle and warns with ``ConvergenceWarning``,
    and so does a run that ends with a nonzero data fit no lower than
    iteration 1's, the fit at f = 0; a gamma tau that is not finite raises
    ``NumericalError``.  The step costs no field solve.
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
    norm_sq = lambda vectors: float(sum(np.vdot(v, v).real for v in vectors))
    y_norm_sq = norm_sq(data)

    # the linear models solve nothing: A = I
    solve_cfg = cfg if model == "full" else None
    grad_fn = lambda f: total_gradient(f, problem, solve_cfg, data)

    def eval_D(f):
        return float(sum(data_fidelity(z, yv) for z, yv
                         in zip(predict_all(f, problem, solve_cfg), data)))

    # tau_rel scales the raw data's ||y||^2, for Rytov too
    tau = cfg.tau_rel * norm_sq(measurements.y)
    f_prev = np.zeros(grid.shape)
    f_tilde = f_prev.copy()

    # the backtracking's gradient at f = 0 is also iteration 1's
    grad, D = grad_fn(f_tilde)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient at the initial iterate")
    gamma = _backtrack_step(f_tilde, grad, eval_D, D)
    D_zero = D

    data_fit_hist = []
    err_hist = [] if ground_truth is not None else None
    secs = []
    steps = []
    dual = None
    q_prev = 1.0
    F_prev = None
    halved = False
    for it in range(1, cfg.fista_iters + 1):
        tic = time.perf_counter()
        if it > 1:
            grad, D = grad_fn(f_tilde)
            if not np.all(np.isfinite(grad)):
                raise NumericalError(f"non-finite gradient at iteration {it}")
        # the step follows the objective at the gradient's point: grow on a
        # strict fall, halve and restart the momentum on a rise
        F = D + tau * tv_value(f_tilde)
        rose = it > 1 and F > F_prev
        if rose:
            if halved:
                warnings.warn(f"FISTA objective rose at iteration {it} after the "
                              f"step was halved at iteration {it - 1}",
                              ConvergenceWarning, stacklevel=2)
            gamma *= STEP_SHRINK
            q_prev = 1.0
        elif it > 1 and F < F_prev:
            gamma *= STEP_GROW
        halved = rose
        F_prev = F
        if not np.isfinite(gamma * tau):
            raise NumericalError(f"tau * gamma overflow at iteration {it}")
        steps.append(gamma)
        f_new, dual = prox_tv(f_tilde - gamma * grad, gamma * tau, box=cfg.box,
                              dual_init=dual)
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
            err_hist.append(normalized_error(f_new, ground_truth))
        secs.append(time.perf_counter() - tic)
        if last:
            break

    # D is at f_hat now; D_zero > 0 implies y_norm_sq > 0
    if 0 < D_zero <= D:
        warnings.warn(f"FISTA made no progress: data fit {data_fit_hist[-1]:.6g} after "
                      f"{it} iterations, {2.0 * D_zero / y_norm_sq:.6g} at f = 0",
                      ConvergenceWarning, stacklevel=2)
    return ReconReport(f_hat=f_prev, data_fit_history=data_fit_hist,
                       recon_error_history=err_hist, iter_seconds=secs,
                       step_history=steps, tau=tau)
