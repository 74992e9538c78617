"""Synthetic experiment assembly: layouts, phantom rendering, measurement
generation, and parameter sweeps.

Measurement generation deliberately avoids the inverse crime: the data is
computed on a refined grid (default 2x per axis) with each field solved by
BiCGStab to the relative residual GENERATION_RESIDUAL, far below the
reconstruction's tolerance, so the data carry no truncation error of the
reconstruction's own solves.  The reconstruction then runs on the
configured grid.
"""

import numpy as np

from . import phantoms
from .analytic import analytic_field_2d
from .errors import ConfigError
from .fileio import (SPEED_OF_LIGHT, generation_from_config, grid_from_config,
                     load_grid_csv, phantom_from_config, receivers_from_config,
                     recon_config_from_config, rng_from_config,
                     transmitters_from_config)
from .forward import ForwardConfig, bicgstab, forward_solve, predict_scattered
from .greens import apply_A, build_domain_operator
# not called: benchmarks/layers.py wraps it
from .greens import build_sensor_operator  # noqa: F401
from .grid import refined_grid
from .metrics import normalized_error
from .recon import MeasurementSet, Transmitter, sensors_and_incident

# relative residual ||A u - u_in|| / ||u_in|| each generation field solve meets
GENERATION_RESIDUAL = 1e-10


def render_phantom(cfg, grid):
    p = phantom_from_config(cfg)
    if p.kind == "cylinders":
        specs = [(tuple(c.center_m), c.radius_m, c.contrast) for c in p.cylinders]
        return phantoms.cylinders(grid, specs, supersample=p.supersample)
    if p.kind == "shepp_logan":
        return phantoms.shepp_logan(grid, p.contrast, extent=p.extent_m)
    if p.kind == "from_file":
        values, _ = load_grid_csv(p.path)
        if values.shape != grid.shape:
            raise ConfigError(f"phantom file shape {values.shape} does not match "
                              f"grid {grid.shape}")
        return values
    return np.zeros(grid.shape)


def simulate_measurements(cfg):
    """Generate synthetic measurements per the experiment config.

    Each transmitter's field solves A u = u_in on the refined grid by
    BiCGStab, to GENERATION_RESIDUAL in at most ``generation.k_multiplier``
    times ``recon.forward.K`` iterations; a solve that reaches that cap warns
    with ConvergenceWarning.  Returns (measurements, f_true) with f_true
    rendered on the reconstruction grid.  Deterministic for a fixed config
    (the noise draw is seeded).
    """
    grid = grid_from_config(cfg)
    recon_cfg = recon_config_from_config(cfg)
    gen = generation_from_config(cfg)

    fine = refined_grid(grid, gen.grid_refine)
    f_fine = render_phantom(cfg, fine)
    f_true = render_phantom(cfg, grid)

    transmitters = transmitters_from_config(cfg)
    receivers, subsample = receivers_from_config(cfg)
    G = build_domain_operator(fine)
    H, U_in = sensors_and_incident(fine, receivers, transmitters)
    maxiter = gen.k_multiplier * recon_cfg.forward.K
    op = lambda v: apply_A(f_fine, v, G)

    all_slots = np.arange(len(receivers))
    y = []
    for u_in in U_in:
        u_in = u_in.reshape(fine.shape)
        u, _ = bicgstab(op, u_in, u_in, GENERATION_RESIDUAL, maxiter)
        y.append(predict_scattered(u, f_fine, H))

    if gen.noise_snr_db is not None:
        rng = rng_from_config(cfg)
        power = np.mean([np.mean(np.abs(v) ** 2) for v in y])
        sigma = np.sqrt(power * 10.0 ** (-gen.noise_snr_db / 10.0) / 2.0)
        y = [v + sigma * (rng.standard_normal(v.shape)
                          + 1j * rng.standard_normal(v.shape)) for v in y]

    mset = MeasurementSet(
        transmitters=transmitters,
        receivers=receivers,
        active_indices=[all_slots.copy() for _ in transmitters],
        y=y,
        frequency_hz=SPEED_OF_LIGHT / grid.wavelength)
    return mset.subsample(subsample), f_true


def forward_error_vs_analytic(grid, scene, K_values, source_position, G=None):
    """Normalized field error of the expansion against the closed-form
    cylinder solution, per expansion order K, and of the first Born field.

    The cylinder sits at the grid center with radius scene.r_sph and contrast
    n^2 - 1 (so the potential is k_b^2 (n^2 - 1) inside); the source is a unit
    line source at ``source_position``, which must match scene.r_s on the
    positive x-axis convention of the analytic solution.
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
