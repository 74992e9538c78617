"""The benchmark's workloads: the scene a seed makes, the set-up, the timed
solve and the checks on its output.

A workload's set-up goes through the same library entry points as
``wavetomo simulate`` followed by ``wavetomo reconstruct``: the config dict
is serialized and parsed by ``fileio``, ``simulate`` renders the phantom and
generates the data, and the measurements (and the ground truth) make a round
trip through their files.  Seed 0 is the unjittered scene; any other seed
jitters the phantom placement by up to JITTER_WAVELENGTHS wavelengths, the
transmitter and receiver ring phases by up to one sensor spacing, and the
noise draw.

The library is called through module attributes (``recon.fista_reconstruct``,
not a from-import) so that the traced run can wrap each call site.
"""

import dataclasses
import os
import time
import warnings

import numpy as np

from wavetomo import analytic, fileio, forward, greens, metrics, phantoms, recon, simulate
from wavetomo.errors import ConvergenceWarning
from wavetomo.grid import DomainGrid

WL = 0.0749                 # wavelength of the criterion-5 scene, m
JITTER_WAVELENGTHS = 0.25   # placement jitter of seeds other than 0


def _offset(rng, ndim, spacing, wavelength):
    """Random whole-pixel offset no longer than JITTER_WAVELENGTHS wavelengths.

    Whole pixels keep the phantom's sub-pixel alignment with the solve grid
    and the refined generation grid, so the discretization error does not
    change with the seed; measured on recon_full_2d, half-pixel offsets made
    the model error vary by 2x from seed to seed.
    """
    n = round(JITTER_WAVELENGTHS * wavelength / spacing)
    while True:
        k = rng.integers(-n, n + 1, ndim)
        if k @ k <= n * n:
            return k * spacing


def _jitter_rings(cfg, rng):
    for key in ("transmitters", "receivers"):
        cfg[key]["phase_rad"] = float(rng.uniform(0.0, 2.0 * np.pi / cfg[key]["count"]))


@dataclasses.dataclass
class Op:
    """Outcome of one operation: one reconstruction or one field solve."""

    seconds: float
    result: object = None
    error: str | None = None
    warnings: list = dataclasses.field(default_factory=list)


def _timed(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tic = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation
            return Op(time.perf_counter() - tic, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - tic
    return Op(seconds, result, warnings=[(w.category, str(w.message)) for w in caught])


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


@dataclasses.dataclass
class ReconInputs:
    grid: DomainGrid
    rcfg: recon.ReconConfig
    mset: recon.MeasurementSet
    truth: np.ndarray
    measurement_bytes: int
    scene_iters: int     # FISTA iterations the scene's config asks for


class ReconWorkload:
    """A simulated scene reconstructed by ``fista_reconstruct``."""

    timed_iters = None   # FISTA iterations of the timed solve; None: the config's

    def config(self, seed):
        raise NotImplementedError

    def setup(self, cfg, workdir):
        cfg = fileio.parse_config(fileio.serialize_config(cfg))
        mset, f_true = simulate.simulate_measurements(cfg)
        grid = fileio.grid_from_config(cfg)
        meas_path = os.path.join(workdir, "measurements.csv")
        truth_path = os.path.join(workdir, "truth.csv")
        fileio.save_measurements(meas_path, mset)
        fileio.emit_grid_csv(f_true, grid, truth_path)
        rcfg = fileio.recon_config_from_config(cfg)
        scene_iters = rcfg.fista_iters
        if self.timed_iters is not None:
            rcfg = dataclasses.replace(rcfg, fista_iters=self.timed_iters)
        if rcfg.workers != 1:
            raise ValueError("the benchmark runs single-threaded (workers = 1)")
        loaded = fileio.load_measurements(meas_path)
        truth, _ = fileio.load_grid_csv(truth_path)
        return ReconInputs(grid, rcfg, loaded, truth, os.path.getsize(meas_path), scene_iters)

    def solve(self, inputs):
        """One timed reconstruction; returns (wall seconds, [Op])."""
        op = _timed(recon.fista_reconstruct, inputs.mset, inputs.grid, inputs.rcfg,
                    ground_truth=inputs.truth, model=self.model)
        return op.seconds, [op]

    @staticmethod
    def iter_seconds(ops):
        return [s for op in ops if op.result is not None for s in op.result.iter_seconds]

    def model_error(self, inputs):
        """||z(f_true) - d||^2 / ||d||^2 of the solve-grid model against its data."""
        raise NotImplementedError

    def passes(self, report, baseline):
        raise NotImplementedError

    def check(self, inputs, solves):
        """Quality metrics and failure count over all timed solves of a run."""
        baseline = self.baseline(inputs)
        failed, fits, errs, notes = 0, [], [], []
        for wall, ops in solves:
            for op in ops:
                rep = op.result
                ok = (op.error is None and _finite(rep.f_hat, rep.data_fit_history,
                                                   rep.recon_error_history)
                      and sum(rep.iter_seconds) <= wall
                      and self.passes(rep, baseline))
                if op.error is not None:
                    notes.append(op.error)
                else:
                    fits.append(rep.data_fit_history[-1])
                    errs.append(rep.recon_error_history[-1])
                failed += not ok
        unwrap = sum(1 for _, ops in solves for op in ops
                     for _, msg in op.warnings if "phase unwrap" in msg)
        quality = {
            "data_fit": _median(fits),
            "recon_err": _median(errs),
            "field_err": self.model_error(inputs),
        }
        extra = {"baseline": baseline, "phase_unwrap_warnings": unwrap,
                 "analytic_warnings": 0, "errors": notes}
        return failed, quality, extra

    def baseline(self, inputs):
        return None


class FullRecon2D(ReconWorkload):
    """The criterion-5 scene of tests/test_acceptance.py with the full model."""

    name = "recon_full_2d"
    why = ("criterion-5 scene, full multiple-scattering model: time is G applies "
           "(FFTs) in forward, backward and monitoring passes")
    model = "full"
    # the first 30 of the scene's 50 FISTA iterations: all 50 take about 57 s
    # on a 2-core box, too long for one run.  The cost per iteration ramps up
    # over the first 10; with 20 iterations the median iteration sat on the
    # end of that ramp and moved 30% between runs.  The gate holds from 10 on.
    timed_iters = 30

    def config(self, seed):
        cfg = {
            "grid": {"shape": [64, 64], "spacing_m": WL / 16, "wavelength_m": WL},
            "transmitters": {"kind": "point-ring", "radius_m": 0.45, "count": 8},
            "receivers": {"ring_radius_m": 0.5, "count": 60},
            "phantom": {"kind": "cylinders", "cylinders": [
                {"center_m": [-0.05, -0.03], "radius_m": 0.04, "contrast": 0.2},
                {"center_m": [0.05, 0.04], "radius_m": 0.035, "contrast": 0.2}]},
            "recon": {"forward": {"K": 60}, "tau_rel": 1.5e-9, "fista_iters": 50},
            "generation": {"grid_refine": 2, "k_multiplier": 4},
        }
        if seed:
            rng = np.random.default_rng(seed)
            shift = _offset(rng, 2, cfg["grid"]["spacing_m"], WL).tolist()
            for cyl in cfg["phantom"]["cylinders"]:
                cyl["center_m"] = [c + d for c, d in zip(cyl["center_m"], shift)]
            _jitter_rings(cfg, rng)
            cfg["seed"] = seed
        return cfg

    def baseline(self, inputs):
        """Final reconstruction error of first Born run for the scene's own iterations."""
        born_cfg = dataclasses.replace(inputs.rcfg, fista_iters=inputs.scene_iters)
        rep = recon.fista_reconstruct(inputs.mset, inputs.grid, born_cfg,
                                      ground_truth=inputs.truth, model="born")
        return rep.recon_error_history[-1]

    def passes(self, report, born_err):
        # the criterion-5 gate
        return report.data_fit_history[-1] <= 1e-2 and report.recon_error_history[-1] < born_err

    def model_error(self, inputs):
        problem = recon.ScatteringProblem(inputs.mset, inputs.grid)
        z = recon.predict_all(inputs.truth, problem, inputs.rcfg)
        return _relative_misfit(z, inputs.mset.y)


class LinearRecon2D(ReconWorkload):
    """Rytov reconstruction of a Shepp-Logan phantom from noisy, subsampled data."""

    name = "recon_linear_2d"
    why = ("Rytov model on a 128^2 Shepp-Logan scene: no G applies in the loop; "
           "sensor operator, TV prox and the Hankel-bound H build carry the time")
    model = "rytov"

    def config(self, seed):
        cfg = {
            "grid": {"shape": [128, 128], "spacing_m": WL / 16, "wavelength_m": WL},
            "transmitters": {"kind": "point-ring", "radius_m": 0.9, "count": 16},
            "receivers": {"ring_radius_m": 1.0, "count": 120, "subsample": 2},
            "phantom": {"kind": "shepp_logan", "contrast": 0.05},
            "recon": {"forward": {"K": 60}, "fista_iters": 30},
            # generating on a refined grid would cost 4x the Hankel evaluations
            # (about 30 s); the Rytov model differs from the generating model anyway
            "generation": {"grid_refine": 1, "k_multiplier": 4, "noise_snr_db": 30.0},
            "seed": seed,
        }
        if seed:
            rng = np.random.default_rng(seed)
            # the head phantom is centred on the coordinate origin, so move the grid
            n = cfg["grid"]["shape"][0]
            centred = -0.5 * cfg["grid"]["spacing_m"] * (n - 1)
            shift = _offset(rng, 2, cfg["grid"]["spacing_m"], WL)
            cfg["grid"]["origin_m"] = [centred - d for d in shift.tolist()]
            _jitter_rings(cfg, rng)
        return cfg

    def passes(self, report, baseline):
        return report.data_fit_history[-1] < 1.0

    def model_error(self, inputs):
        problem = recon.ScatteringProblem(inputs.mset, inputs.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = [recon.rytov_transform(y + ui, ui)
                    for y, ui in zip(inputs.mset.y, problem.u_in_sensors)]
        z = [recon.born_predict(inputs.truth, ui, h)
             for ui, h in zip(problem.u_in, problem.H)]
        return _relative_misfit(z, data)


def _relative_misfit(z, y):
    num = sum(float(np.vdot(a - b, a - b).real) for a, b in zip(z, y))
    return num / sum(float(np.vdot(b, b).real) for b in y)


@dataclasses.dataclass
class SphereInputs:
    grid: DomainGrid
    G: greens.DomainGreensOperator
    unit: np.ndarray     # sphere of contrast 1 (potential k_b^2 inside)
    u_in: np.ndarray
    center: np.ndarray
    measurement_bytes: int = 0


class Forward3D:
    """Forward solves through a sphere over a contrast sweep, against the closed form."""

    name = "forward_3d"
    why = ("3D padded FFT (64^3 buffers, 4 MB each) in forward_solve alone; "
           "K_eff varies 14x over a 5%-40% contrast sweep")
    wavelength = 0.5
    spacing = wavelength / 8
    shape = (32, 32, 32)
    radius = 0.75          # sphere radius, wavelengths
    # at 4 wavelengths the closed form's default truncation warned at about
    # 14k of the 32k pixels; at 8 with 60 orders it converges everywhere
    source_distance = 8.0  # wavelengths from the sphere centre, on +z
    truncation = 60
    contrasts = tuple(round(0.05 * i, 2) for i in range(1, 9))
    forward_cfg = forward.ForwardConfig(K=240, delta_tol_rel=5e-7, stop_on="objective")
    field_tol = 1e-4       # tolerance of the 3D closure test in tests/test_analytic.py

    def config(self, seed):
        center = np.zeros(3)
        if seed:
            rng = np.random.default_rng(seed)
            center = _offset(rng, 3, self.spacing, self.wavelength)
        return {"center_m": center.tolist()}

    def setup(self, cfg, workdir):
        wl = self.wavelength
        n = self.shape[0]
        grid = DomainGrid(self.shape, self.spacing, (-0.5 * self.spacing * (n - 1),) * 3, wl)
        G = greens.build_domain_operator(grid)
        center = np.asarray(cfg["center_m"])
        unit = phantoms.cylinders(grid, [(tuple(center), self.radius * wl, 1.0)],
                                  supersample=4)
        source = center + np.array([0.0, 0.0, self.source_distance * wl])
        u_in = recon.Transmitter("point", position=tuple(source)).field_on_grid(grid)
        return SphereInputs(grid, G, unit, u_in, center)

    def solve(self, inputs):
        tic = time.perf_counter()
        ops = [_timed(forward.forward_solve, c * inputs.unit, inputs.u_in, inputs.G,
                      None, self.forward_cfg) for c in self.contrasts]
        return time.perf_counter() - tic, ops

    @staticmethod
    def iter_seconds(ops):
        """Wall time per forward iteration, one sample per field solve."""
        return [op.seconds / op.result.K_effective for op in ops if op.result is not None]

    def check(self, inputs, solves):
        grid = inputs.grid
        rel = grid.pixel_centers() - inputs.center
        r = np.linalg.norm(rel, axis=-1)
        theta = np.arccos(np.clip(rel[..., 2] / np.maximum(r, 1e-300), -1.0, 1.0))
        oracles = []
        for c in self.contrasts:
            scene = analytic.AnalyticScene(r_sph=self.radius * self.wavelength,
                                           refractive_index=np.sqrt(1.0 + c),
                                           r_s=self.source_distance * self.wavelength,
                                           k_b=grid.k_b, truncation=self.truncation)
            oracles.append(_timed(analytic.analytic_field_3d, r, theta, scene))
        n_warn = sum(issubclass(cat, ConvergenceWarning)
                     for o in oracles for cat, _ in o.warnings)
        uin_sq = float(np.vdot(inputs.u_in, inputs.u_in).real)
        failed, notes = 0, []
        mid_err, worst_err, worst_resid, by_contrast = [], [], [], []
        for _, ops in solves:
            errs, resids = [], []
            for c, op, oracle in zip(self.contrasts, ops, oracles):
                if op.error is not None or oracle.error is not None:
                    notes.append(op.error or oracle.error)
                    failed += 1
                    continue
                u_hat = op.result.u_hat
                resid = greens.apply_A(c * inputs.unit, u_hat, inputs.G) - inputs.u_in
                errs.append(metrics.normalized_error(u_hat, oracle.result))
                resids.append(float(np.vdot(resid, resid).real) / uin_sq)
                failed += not (_finite(u_hat) and errs[-1] <= self.field_tol
                               and not any(issubclass(cat, ConvergenceWarning)
                                           for cat, _ in oracle.warnings))
            by_contrast.append(errs)
            if errs:
                mid_err.append(_median(errs))
                worst_err.append(max(errs))
                worst_resid.append(max(resids))
        # the worst field error sits at the top contrast, where the objective
        # stop leaves a solver error as large as the discretization error; it
        # moved by up to 40% from seed to seed, the median over the sweep by 4%
        quality = {
            "data_fit": _median(worst_resid),
            "recon_err": _median(mid_err),
            "field_err": _median(mid_err),
        }
        extra = {"field_err_by_contrast": by_contrast, "field_err_worst": worst_err,
                 "analytic_warnings": n_warn, "phase_unwrap_warnings": 0, "errors": notes,
                 "K_eff": [[op.result.K_effective for op in ops if op.result is not None]
                           for _, ops in solves]}
        return failed, quality, extra


def _median(values):
    return float(np.median(values)) if values else float("nan")


WORKLOADS = {w.name: w for w in (FullRecon2D(), LinearRecon2D(), Forward3D())}
