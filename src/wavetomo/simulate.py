"""Synthetic experiment assembly: layouts, phantom rendering, measurement
generation, and parameter sweeps.

Measurement generation solves the FISTA loop's own field equations with a
tighter solve, on a refined grid (default 2x per axis): each transmitter's
incident field is solved by BiCGStab to the relative residual
GENERATION_RESIDUAL, far below the reconstruction's tolerance, so the data
carry neither the reconstruction grid's discretization nor the truncation
error of its solves.  The scattered field on every ring slot is then one
matrix-free Green's product, ``greens.green_products``, so the generation
never holds the slots x pixels matrix H that the loop multiplies by many
times.  The reconstruction then runs on the configured grid.
"""

import dataclasses

import numpy as np

from . import phantoms
from .analytic import analytic_field_2d
from .errors import ConfigError
from .fileio import (SPEED_OF_LIGHT, generation_from_config, grid_from_config,
                     load_grid_csv, phantom_from_config, receivers_from_config,
                     recon_config_from_config, rng_from_config,
                     transmitters_from_config)
from .forward import ForwardConfig, forward_solve
from .greens import SystemOperator, build_domain_operator, check_sensors, green_products
# not called: benchmarks/layers.py wraps it
from .greens import build_sensor_operator  # noqa: F401
from .grid import refined_grid
from .metrics import normalized_error
from .recon import MeasurementSet, Transmitter, _solve_rows, incident_fields

# relative residual ||A u - u_in|| / ||u_in|| each generation field solve meets
GENERATION_RESIDUAL = 1e-10


def render_phantom(cfg, grid):
    """The phantom on ``grid``, the config's grid or a refinement of it; a
    ``from_file`` value fills its refine^ndim sub-pixels."""
    p = phantom_from_config(cfg)
    if p.kind == "cylinders":
        specs = [(tuple(c.center_m), c.radius_m, c.contrast) for c in p.cylinders]
        return phantoms.cylinders(grid, specs)
    if p.kind == "shepp_logan":
        return phantoms.shepp_logan(grid, p.contrast)
    if p.kind == "from_file":
        values, _ = load_grid_csv(p.path)
        shape = grid_from_config(cfg).shape
        if values.shape != shape:
            raise ConfigError(f"phantom file shape {values.shape} does not match "
                              f"grid {shape}")
        for ax, n in enumerate(shape):
            values = np.repeat(values, grid.shape[ax] // n, axis=ax)
        return values
    return np.zeros(grid.shape)


def simulate_measurements(cfg):
    """Generate synthetic measurements per the experiment config.

    The data are the loop's full model on the refined grid, every ring slot
    recorded: each transmitter's field solves A u = u_in by BiCGStab
    (``recon._solve_rows``), to GENERATION_RESIDUAL in at most
    ``generation.k_multiplier`` times ``recon.forward.K`` iterations, and a
    solve that reaches that cap warns with ConvergenceWarning.  The
    scattered field H (f u) on the slots is ``green_products``, which forms
    no H.  Returns (measurements, f_true) with f_true rendered on the
    reconstruction grid.  Deterministic for a fixed config (the noise draw
    is seeded).
    """
    grid = grid_from_config(cfg)
    recon_cfg = recon_config_from_config(cfg)
    gen = generation_from_config(cfg)

    fine = refined_grid(grid, gen.grid_refine)
    f_fine = render_phantom(cfg, fine)
    f_true = render_phantom(cfg, grid)

    transmitters = transmitters_from_config(cfg)
    receivers, subsample = receivers_from_config(cfg)
    all_slots = np.arange(len(receivers))
    # checks the transmitters against the receivers before any solve; y follows
    mset = MeasurementSet(
        transmitters=transmitters,
        receivers=receivers,
        active_indices=[all_slots.copy() for _ in transmitters],
        y=[np.zeros(len(receivers)) for _ in transmitters],
        frequency_hz=SPEED_OF_LIGHT / grid.wavelength)
    check_sensors(fine, receivers)
    # the solves stop at ForwardConfig.residual_tol, which is exactly
    # GENERATION_RESIDUAL
    gen_cfg = dataclasses.replace(recon_cfg, forward=ForwardConfig(
        K=gen.k_multiplier * recon_cfg.forward.K,
        delta_tol_rel=0.5 * GENERATION_RESIDUAL ** 2))
    _, U = incident_fields(fine, transmitters)
    U = _solve_rows(SystemOperator(f_fine, build_domain_operator(fine)), U, gen_cfg)
    U *= f_fine.ravel()
    y = list(green_products(fine, receivers.positions, fine.pixel_volume, U))

    if gen.noise_snr_db is not None:
        rng = rng_from_config(cfg)
        power = np.mean([np.mean(np.abs(v) ** 2) for v in y])
        sigma = np.sqrt(power * 10.0 ** (-gen.noise_snr_db / 10.0) / 2.0)
        y = [v + sigma * (rng.standard_normal(v.shape)
                          + 1j * rng.standard_normal(v.shape)) for v in y]

    return dataclasses.replace(mset, y=y).subsample(subsample), f_true


def forward_error_vs_analytic(grid, scene, K_values, source_position, G=None):
    """Normalized field error of the expansion against the closed-form
    cylinder solution, per expansion order K, and of the first Born field.

    The cylinder sits at the coordinate origin with radius scene.r_sph and
    contrast n^2 - 1 (so the potential is k_b^2 (n^2 - 1) inside); the
    source is a unit line source at ``source_position``, which must match
    scene.r_s on the positive x-axis convention of the analytic solution.
    """
    source_position = np.asarray(source_position, dtype=float)
    if abs(np.linalg.norm(source_position) - scene.r_s) > 1e-9 * scene.r_s:
        raise ConfigError("source distance does not match scene.r_s")
    pts = grid.pixel_centers()
    r = np.linalg.norm(pts, axis=-1)
    # the closed form puts the source at theta = 0; rotate into its frame
    theta = (np.arctan2(pts[..., 1], pts[..., 0])
             - np.arctan2(source_position[1], source_position[0]))
    u_true = analytic_field_2d(r, theta, scene)

    contrast_value = scene.refractive_index ** 2 - 1.0
    f = phantoms.cylinders(grid, [((0.0, 0.0), scene.r_sph, contrast_value)],
                           supersample=8)
    if G is None:
        G = build_domain_operator(grid)
    tx = Transmitter("point", position=source_position)
    u_in = tx.field_on_grid(grid)

    errors = []
    for K in K_values:
        fwd = ForwardConfig(K=int(K))
        trace = forward_solve(f, u_in, G, None, fwd)
        errors.append(normalized_error(trace.u_hat, u_true))
    u_born = u_in + G.apply(u_in * f)
    return {"K": list(K_values), "error": errors,
            "born_error": normalized_error(u_born, u_true)}
