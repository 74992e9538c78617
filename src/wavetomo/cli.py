"""Command-line front end.

Subcommands: simulate, reconstruct, analytic, gradcheck, metrics, sweep.
Exit codes: 0 ok, 1 usage/config error, 2 numerical failure, 3 I/O error.
The WAVETOMO_OUTDIR environment variable supplies the default output
directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, simulate
from .adjoint import gradient_data_fidelity, data_fidelity
from .analytic import AnalyticScene, analytic_field_2d, analytic_field_3d
from .errors import ConfigError, MeasurementParseError, NumericalError
from .forward import ForwardConfig, estimate_fixed_step, forward_solve
from .greens import build_domain_operator, build_sensor_operator
from .grid import centered_grid, ring_sensors
from .metrics import normalized_error, normalized_recon_error, snr_db
from .recon import Transmitter, fista_reconstruct


class _Parser(argparse.ArgumentParser):
    def error(self, message):
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
    mset = fileio.load_measurements(args.measurements)
    truth = None
    if args.ground_truth:
        truth, _ = fileio.load_grid_csv(args.ground_truth)
    report = fista_reconstruct(mset, grid, rcfg, ground_truth=truth,
                               model=args.model)
    outdir = _outdir(args)
    fileio.emit_grid_csv(report.f_hat, grid, outdir / "f_hat.csv")
    fileio.emit_image(report.f_hat, outdir / "f_hat.pgm")
    summary = {
        "model": args.model,
        "iterations": len(report.data_fit_history),
        "tau": report.tau,
        "step_gamma": report.step_gamma,
        "data_fit_history": report.data_fit_history,
        "recon_error_history": report.recon_error_history,
        "iter_seconds": report.iter_seconds,
    }
    with open(outdir / "report.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    final = report.data_fit_history[-1] if report.data_fit_history else float("nan")
    print(f"final normalized data fit {final:.6g} after "
          f"{len(report.data_fit_history)} iterations -> {outdir}")
    return 0


def _scene_from_args(args):
    k_b = args.k_b if args.k_b else 2.0 * np.pi / args.wavelength
    return AnalyticScene(r_sph=args.radius, refractive_index=args.index,
                         r_s=args.source_distance, k_b=k_b,
                         truncation=args.truncation)


def cmd_analytic(args):
    scene = _scene_from_args(args)
    if args.points:
        rows = np.loadtxt(args.points, delimiter=",", comments="#", ndmin=2)
        r, theta = rows[:, 0], rows[:, 1]
    else:
        r = np.full(args.n_samples, args.sample_radius or 2.0 * scene.r_sph)
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
    rng = np.random.default_rng(args.seed)
    n = args.grid_size
    grid = centered_grid((n, n), spacing=0.1, wavelength=0.5)
    sensors = ring_sensors(16, radius=0.12 * n)
    G = build_domain_operator(grid)
    H = build_sensor_operator(grid, sensors)
    tx = Transmitter("point", position=(0.14 * n, 0.0))
    u_in = tx.field_on_grid(grid)

    worst = 0.0
    for K in args.K:
        raw = rng.uniform(-1.0, 1.0, size=grid.shape)
        f = 0.2 * grid.k_b ** 2 * raw / np.max(np.abs(raw))
        y = rng.standard_normal(len(sensors)) + 1j * rng.standard_normal(len(sensors))
        y *= np.mean(np.abs(forward_solve(f, u_in, G, H,
                                          ForwardConfig(K=K)).z)) or 1.0
        if args.adaptive:
            cfg = ForwardConfig(K=K)
        else:
            cfg = ForwardConfig(K=K, step_mode="fixed",
                                nu=estimate_fixed_step(f, G))
        grad = gradient_data_fidelity(f, y, u_in, G, H, cfg)
        fd = np.zeros_like(grad)
        delta = 1e-5 * np.max(np.abs(f))
        for i in np.ndindex(grid.shape):
            fp = f.copy(); fp[i] += delta
            fm = f.copy(); fm[i] -= delta
            zp = forward_solve(fp, u_in, G, H, cfg).z
            zm = forward_solve(fm, u_in, G, H, cfg).z
            fd[i] = (data_fidelity(zp, y) - data_fidelity(zm, y)) / (2 * delta)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        mode = "adaptive" if args.adaptive else "fixed"
        print(f"K={K:3d} {mode:8s} rel l2 error {rel:.3e}")
    tol = args.tol if args.tol else (1e-3 if args.adaptive else 1e-6)
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
        "normalized_recon_error": normalized_recon_error(est, ref),
        "snr_db": snr_db(est, ref),
    }
    text = json.dumps(out, indent=2, default=str)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("range must be start:step:stop")
    start, step, stop = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError("range must have step > 0 and stop >= start")
    return np.arange(start, stop + 0.5 * step, step)


def cmd_sweep(args):
    cfg = _read_config(args.config)
    grid = fileio.grid_from_config(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.contrast:
        contrasts = _parse_range(args.contrast)
        p = fileio.phantom_from_config(cfg)
        if p.kind != "cylinders" or len(p.cylinders) != 1:
            raise ConfigError("contrast sweep needs a single-cylinder phantom")
        radius = p.cylinders[0].radius_m
        tx = fileio.transmitters_from_config(cfg)[0]
        if tx.kind != "point":
            raise ConfigError("contrast sweep needs a point source")
        src = np.asarray(tx.position)
        K_values = [int(k) for k in args.K]
        G = build_domain_operator(grid)
        rows = {"contrast": [], "error": [], "born_error": []}
        for c in contrasts:
            scene = AnalyticScene(r_sph=radius, refractive_index=np.sqrt(1.0 + c),
                                  r_s=float(np.linalg.norm(src)), k_b=grid.k_b)
            res = simulate.forward_error_vs_analytic(grid, scene, K_values, src, G=G)
            rows["contrast"].append(c)
            rows["error"].append(res["error"][-1])
            rows["born_error"].append(res["born_error"])
            print(f"contrast {c:.3f}: error {res['error'][-1]:.4e} "
                  f"born {res['born_error']:.4e}")
        fileio.emit_table_csv(rows, out)
    elif args.subsample:
        factors = [int(v) for v in args.subsample.split(",")]
        mset = fileio.load_measurements(args.measurements)
        rcfg = fileio.recon_config_from_config(cfg)
        full = fista_reconstruct(mset, grid, rcfg, model=args.model)
        rows = {"factor": [], "receivers_per_tx": [], "snr_db": [], "data_fit": []}
        for s in factors:
            sub = mset.subsample(s)
            rep = fista_reconstruct(sub, grid, rcfg, model=args.model)
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
    s.add_argument("--wavelength", type=float, help="background wavelength (m)")
    s.add_argument("--k-b", type=float, help="background wavenumber (1/m)")
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
    s.add_argument("--K", type=int, nargs="+", default=[128],
                   help="expansion orders; the last is reported")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, MeasurementParseError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
