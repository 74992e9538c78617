"""Command-line front end.

Subcommands: simulate, reconstruct, analytic, gradcheck, metrics, sweep.
Exit codes: 0 ok, 1 usage/config error (a shape mismatch, a sensor on a pixel
center, data the Rytov transform cannot take and running out of memory
included), 2 numerical failure, 3 I/O error.
The WAVETOMO_OUTDIR environment variable supplies the default output
directory.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio, simulate
from .analytic import AnalyticScene, analytic_field_2d, analytic_field_3d
from .errors import (ConfigError, DimensionError, MeasurementParseError,
                     NumericalError, SingularityError, TransformError)
from .forward import (MIN_OBJECTIVE_TOL_REL, ForwardConfig, data_fidelity,
                      estimate_fixed_step, forward_solve, gradient_from_trace)
from .greens import build_domain_operator
from .grid import centered_grid, ring_sensors
from .metrics import normalized_error, snr_db
from .recon import (MeasurementSet, ReconConfig, ScatteringProblem, Transmitter,
                    check_subsample, fista_reconstruct, total_gradient)

# a contrast sweep runs one forward solve per point
MAX_SWEEP_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse takes a value that starts with '-', like the range
        # -0.1:0.1:0.2, for the next flag unless '=' joins it to its own
        flag = re.fullmatch(r"argument (--[\w-]+): expected one argument", message)
        if flag:
            message += f" (a value that starts with '-' needs {flag[1]}=VALUE)"
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the message (mapped to exit code 1)."""


def _outdir(args):
    base = getattr(args, "out", None) or os.environ.get("WAVETOMO_OUTDIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config(path):
    # bytes: json decodes them, so a file that is not UTF-8 is a ConfigError too
    with open(path, "rb") as fh:
        return fileio.parse_config(fh.read())


def cmd_simulate(args):
    cfg = _read_config(args.config)
    mset, f_true = simulate.simulate_measurements(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.save_measurements(out, mset)
    if args.truth:
        grid = fileio.grid_from_config(cfg)
        fileio.emit_grid_csv(f_true, grid, args.truth)
    print(f"wrote {mset.n_tx} transmissions to {out}")
    return 0


def cmd_reconstruct(args):
    cfg = _read_config(args.config)
    grid = fileio.grid_from_config(cfg)
    rcfg = fileio.recon_config_from_config(cfg)
    mset = fileio.load_measurements(args.measurements, grid)
    truth = None
    if args.ground_truth:
        truth, _ = fileio.load_grid_csv(args.ground_truth)
    report = fista_reconstruct(mset, grid, rcfg, ground_truth=truth,
                               model=args.model)
    outdir = _outdir(args)
    fileio.emit_grid_csv(report.f_hat, grid, outdir / "f_hat.csv")
    if grid.ndim == 2:
        fileio.emit_image(report.f_hat, outdir / "f_hat.pgm")
    summary = {"model": args.model, "iterations": len(report.data_fit_history)}
    summary.update((f.name, getattr(report, f.name))
                   for f in dataclasses.fields(report) if f.name != "f_hat")
    fileio.write_file(outdir / "report.json", json.dumps(summary, indent=2))
    print(f"final normalized data fit {report.data_fit_history[-1]:.6g} after "
          f"{len(report.data_fit_history)} iterations -> {outdir}")
    return 0


def _scene_from_args(args):
    if not args.wavelength > 0:
        raise ConfigError("--wavelength must be positive")
    return AnalyticScene(r_sph=args.radius, refractive_index=args.index,
                         r_s=args.source_distance, k_b=2.0 * np.pi / args.wavelength,
                         truncation=args.truncation)


def _read_points(path):
    """(r, theta) from the first two columns of a CSV; ``#`` starts a comment."""
    points = []
    for lineno, line in fileio._numbered_lines(path):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            cells = [float(v) for v in text.split(",")]
        except ValueError:
            cells = []
        if len(cells) < 2 or not all(map(math.isfinite, cells)):
            raise MeasurementParseError("expected finite numbers r,theta", line=lineno)
        if cells[0] < 0:
            raise MeasurementParseError("r must be >= 0", line=lineno)
        points.append(cells[:2])
    if not points:
        raise MeasurementParseError("no sample points", line=1)
    return np.array(points).T


def cmd_analytic(args):
    scene = _scene_from_args(args)
    if args.points:
        r, theta = _read_points(args.points)
    else:
        if args.n_samples < 1:
            raise ConfigError("--n-samples must be >= 1")
        radius = 2.0 * scene.r_sph if args.sample_radius is None else args.sample_radius
        if not np.inf > radius > 0:
            raise ConfigError("--sample-radius must be positive and finite")
        r = np.full(args.n_samples, radius)
        theta = np.linspace(0.0, 2.0 * np.pi, args.n_samples, endpoint=False)
    field_fn = analytic_field_2d if args.dim == 2 else analytic_field_3d
    E = field_fn(r, theta, scene)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.emit_table_csv({"r_m": r, "theta_rad": theta,
                           "re": E.real, "im": E.imag}, out)
    print(f"wrote {E.size} samples to {out}")
    return 0


def cmd_gradcheck(args):
    tol = args.tol
    if tol is None:
        tol = 1e-3 if args.adaptive else 1e-6
    elif not np.inf > tol > 0:
        raise ConfigError("--tol must be positive and finite")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    n = args.grid_size
    grid = centered_grid((n, n), spacing=0.1, wavelength=0.5)
    sensors = ring_sensors(16, radius=0.12 * n)
    tx = Transmitter("point", position=(0.14 * n, 0.0))
    # the loop's gradient, total_gradient, on a one-transmitter problem; the
    # data of each check are passed to it, so the set's own y is unused
    problem = ScatteringProblem(MeasurementSet(
        [tx], sensors, [np.arange(len(sensors))], [np.zeros(len(sensors))]), grid)
    G, H, u_in = problem.G, problem.H[0], problem.u_in[0]

    # the loop's gradient is checked on BiCGStab fields at the tightest
    # tolerance a config accepts, with at most one iteration per pixel
    loop_cfg = ReconConfig(forward=ForwardConfig(K=grid.size,
                                                 delta_tol_rel=MIN_OBJECTIVE_TOL_REL))
    worst = 0.0
    for K in args.K:
        raw = rng.uniform(-1.0, 1.0, size=grid.shape)
        f = 0.2 * grid.k_b ** 2 * raw / np.max(np.abs(raw))
        y = rng.standard_normal(len(sensors)) + 1j * rng.standard_normal(len(sensors))
        y *= np.mean(np.abs(forward_solve(f, u_in, G, H, ForwardConfig(K=K)).z)) or 1.0
        cfg = ForwardConfig(K=K, nu=None if args.adaptive else estimate_fixed_step(f, G))
        checks = [
            ("adaptive" if args.adaptive else "fixed",
             gradient_from_trace(f, y, G, H, forward_solve(f, u_in, G, H, cfg)),
             lambda fv: data_fidelity(forward_solve(fv, u_in, G, H, cfg).z, y)),
            ("loop", total_gradient(f, problem, loop_cfg, [y])[0],
             lambda fv: total_gradient(fv, problem, loop_cfg, [y])[1])]
        for name, grad, D_of in checks:
            fd = np.zeros_like(grad)
            delta = 1e-5 * np.max(np.abs(f))
            for i in np.ndindex(grid.shape):
                step = np.zeros(grid.shape); step[i] = delta
                fd[i] = (D_of(f + step) - D_of(f - step)) / (2 * delta)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
            print(f"K={K:3d} {name:8s} rel l2 error {rel:.3e}")
    if worst > tol:
        raise NumericalError(f"gradient check failed: {worst:.3e} > {tol:.1e}")
    print(f"gradient check passed (worst {worst:.3e} <= {tol:.1e})")
    return 0


def cmd_metrics(args):
    est, _ = fileio.load_grid_csv(args.estimate)
    ref, _ = fileio.load_grid_csv(args.reference)
    if est.shape != ref.shape:
        raise ConfigError(f"estimate shape {est.shape} differs from "
                          f"reference shape {ref.shape}")
    out = {
        "normalized_error": normalized_error(est, ref),
        "snr_db": snr_db(est, ref),
    }
    text = json.dumps(out, indent=2, default=str)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        fileio.write_file(args.out, text + "\n")
    print(text)
    return 0


def _parse_range(spec):
    try:
        start, step, stop = (float(p) for p in spec.split(":"))
    except ValueError:
        raise ConfigError(f"--contrast: expected start:step:stop numbers, "
                          f"got {spec!r}") from None
    if not (all(map(math.isfinite, (start, step, stop))) and step > 0
            and stop >= start):
        raise ConfigError("--contrast: range must be finite with step > 0 "
                          "and stop >= start")
    # span / step + 1 bounds the length of the np.arange below; a span that
    # overflows to inf fails the test too
    if not (stop - start) / step + 1 <= MAX_SWEEP_POINTS:
        raise ConfigError(f"--contrast: range must have at most "
                          f"{MAX_SWEEP_POINTS} points")
    return np.arange(start, stop + 0.5 * step, step)


def _parse_factors(spec):
    try:
        return [check_subsample(int(v)) for v in spec.split(",")]
    except ValueError:
        raise ConfigError(f"--subsample: expected comma-separated powers of 2 up to 128, "
                          f"got {spec!r}") from None


def cmd_sweep(args):
    cfg = _read_config(args.config)
    grid = fileio.grid_from_config(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.contrast:
        # the closed-form comparison is a 2D cylinder
        if grid.ndim != 2:
            raise ConfigError(f"contrast sweep needs a 2D grid, got grid.shape {grid.shape}")
        contrasts = _parse_range(args.contrast)
        p = fileio.phantom_from_config(cfg)
        if p.kind != "cylinders" or len(p.cylinders) != 1:
            raise ConfigError("contrast sweep needs a single-cylinder phantom")
        if any(p.cylinders[0].center_m):
            raise ConfigError("phantom.cylinders[0].center_m: contrast sweep needs "
                              "the cylinder at the coordinate origin")
        radius = p.cylinders[0].radius_m
        tx = fileio.transmitters_from_config(cfg)[0]
        if tx.kind != "point":
            raise ConfigError("contrast sweep needs a point source")
        src = np.asarray(tx.position)
        G = build_domain_operator(grid)
        rows = {"contrast": [], "error": [], "born_error": []}
        for c in contrasts:
            scene = AnalyticScene(r_sph=radius, refractive_index=np.sqrt(1.0 + c),
                                  r_s=float(np.linalg.norm(src)), k_b=grid.k_b)
            res = simulate.forward_error_vs_analytic(grid, scene, [args.K], src, G=G)
            rows["contrast"].append(c)
            rows["error"].append(res["error"][0])
            rows["born_error"].append(res["born_error"])
            print(f"contrast {c:.3f}: error {res['error'][0]:.4e} "
                  f"born {res['born_error']:.4e}")
        fileio.emit_table_csv(rows, out)
    elif args.subsample:
        if not args.measurements:
            raise ConfigError("--subsample needs --measurements")
        factors = _parse_factors(args.subsample)
        mset = fileio.load_measurements(args.measurements, grid)
        rcfg = fileio.recon_config_from_config(cfg)
        # every factor's set is built, and checked, before the first reconstruction
        subs = [mset.subsample(s) for s in factors]
        full = fista_reconstruct(mset, grid, rcfg, model=args.model)
        rows = {"factor": [], "receivers_per_tx": [], "snr_db": [], "data_fit": []}
        for s, sub in zip(factors, subs):
            # factor 1 returns the full set, whose reconstruction is done
            rep = full if sub is mset else fista_reconstruct(sub, grid, rcfg, model=args.model)
            rows["factor"].append(s)
            rows["receivers_per_tx"].append(sub.active_indices[0].size)
            rows["snr_db"].append(snr_db(rep.f_hat, full.f_hat))
            rows["data_fit"].append(rep.data_fit_history[-1])
            print(f"factor {s:3d}: {sub.active_indices[0].size} rx/tx, "
                  f"snr {rows['snr_db'][-1]:.2f} dB")
        fileio.emit_table_csv(rows, out)
    else:
        raise ConfigError("sweep needs --contrast or --subsample")
    print(f"wrote {out}")
    return 0


def build_parser():
    p = _Parser(prog="wavetomo",
                description="Multiple-scattering diffraction tomography toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="phantom -> synthetic measurement file")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--truth", help="also write the recon-grid phantom CSV here")
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("reconstruct", help="measurements -> image + report")
    s.add_argument("--config", required=True)
    s.add_argument("--measurements", required=True)
    s.add_argument("--out", help="output directory (default $WAVETOMO_OUTDIR or .)")
    s.add_argument("--model", choices=["full", "born", "rytov"], default="full")
    s.add_argument("--ground-truth", help="phantom CSV for error tracking")
    s.set_defaults(fn=cmd_reconstruct)

    s = sub.add_parser("analytic", help="closed-form cylinder/sphere field samples")
    s.add_argument("--radius", type=float, required=True, help="object radius (m)")
    s.add_argument("--index", type=float, required=True, help="refractive index")
    s.add_argument("--source-distance", type=float, required=True)
    s.add_argument("--wavelength", type=float, required=True,
                   help="background wavelength (m)")
    s.add_argument("--dim", type=int, choices=[2, 3], default=2)
    s.add_argument("--truncation", type=int)
    s.add_argument("--points", help="CSV of r,theta sample points")
    s.add_argument("--sample-radius", type=float)
    s.add_argument("--n-samples", type=int, default=360)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_analytic)

    s = sub.add_parser("gradcheck", help="finite-difference gradient check")
    s.add_argument("--grid-size", type=int, default=8)
    s.add_argument("--K", type=int, nargs="+", default=[1, 3])
    s.add_argument("--adaptive", action="store_true")
    s.add_argument("--tol", type=float)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("metrics", help="error metrics between two grid CSVs")
    s.add_argument("--estimate", required=True)
    s.add_argument("--reference", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_metrics)

    s = sub.add_parser("sweep", help="contrast or subsampling sweeps -> CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--contrast", help="start:step:stop relative contrasts")
    s.add_argument("--K", type=int, default=128, help="expansion order")
    s.add_argument("--subsample", help="comma-separated factors")
    s.add_argument("--measurements", help="measurement file for --subsample")
    s.add_argument("--model", choices=["full", "born", "rytov"], default="full")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (ConfigError, DimensionError, SingularityError, TransformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, MeasurementParseError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
