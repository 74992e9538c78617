"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -s``) and enforcing its runtime
budget.  Tolerances are pinned here, not configurable."""

import dataclasses
import time
import warnings

import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import prox_objective_batch, subgradient_prox_batch
from wavetomo import fileio
from wavetomo.analytic import helmholtz_residual
from wavetomo.simulate import forward_error_vs_analytic, simulate_measurements
from wavetomo.special import bessel_jn_all, bessel_yn_all, spherical_jn_all, spherical_yn_all

WL = 0.0749
KB = 2 * np.pi / WL


def _report(num, name, ok, detail, seconds, limit):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}: {detail} [{seconds:.1f}s"
          f" / limit {limit:.0f}s]")
    assert ok, f"criterion {num} failed: {detail}"
    assert seconds < limit, f"criterion {num} exceeded {limit}s ({seconds:.1f}s)"


def test_criterion_1_adjoint_identities():
    tic = time.perf_counter()
    rng = np.random.default_rng(11)
    grid = wt.centered_grid((32, 32), spacing=WL / 16, wavelength=WL)
    G = wt.build_domain_operator(grid)
    H = wt.build_sensor_operator(grid, wt.ring_sensors(24, radius=0.3))
    f = random_potential(rng, grid)
    worst = 0.0

    def gap(apply_fn, adjoint_fn, x, y):
        lhs = np.vdot(y, apply_fn(x))
        rhs = np.vdot(adjoint_fn(y), x)
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    for _ in range(10):
        x = random_field(rng, grid.shape)
        yg = random_field(rng, grid.shape)
        ys = random_field(rng, (24,))
        xr = rng.standard_normal(grid.shape)
        yr = rng.standard_normal((2,) + grid.shape)
        worst = max(worst, gap(G.apply, G.apply_adjoint, x, yg))
        worst = max(worst, gap(H.apply, H.apply_adjoint, x, ys))
        worst = max(worst, gap(lambda v: wt.apply_A(f, v, G),
                               lambda v: wt.apply_AH(f, v, G), x, yg))
        lhs = np.sum(wt.grad_op(xr) * yr)
        rhs = np.sum(xr * wt.grad_adjoint(yr))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(1, "adjoint identities", worst <= 1e-12,
            f"worst relative discrepancy {worst:.2e} <= 1e-12",
            time.perf_counter() - tic, 5.0)


def test_criterion_2_gradient_correctness():
    tic = time.perf_counter()
    rng = np.random.default_rng(5)
    # lambda/32 sampling keeps the ignored adaptive-step dependence well
    # inside its 1e-3 budget (the discrepancy scales with per-pixel coupling)
    grid = wt.centered_grid((10, 10), spacing=WL / 32, wavelength=WL)
    G = wt.build_domain_operator(grid)
    extent = 10 * grid.spacing
    sensors = wt.ring_sensors(16, radius=2.5 * extent)
    H = wt.build_sensor_operator(grid, sensors)
    u_in = wt.Transmitter("point",
                          position=(3.0 * extent, 0.1 * extent)).field_on_grid(grid)

    def fd(f, y, cfg, delta):
        out = np.zeros(grid.shape)
        for idx in np.ndindex(grid.shape):
            fp = f.copy()
            fp[idx] += delta
            fm = f.copy()
            fm[idx] -= delta
            zp = wt.forward_solve(fp, u_in, G, H, cfg).z
            zm = wt.forward_solve(fm, u_in, G, H, cfg).z
            out[idx] = (wt.data_fidelity(zp, y) - wt.data_fidelity(zm, y)) / (2 * delta)
        return out

    worst_fixed = 0.0
    worst_adaptive = 0.0
    for K in (1, 3, 8):
        for _ in range(2):
            f = random_potential(rng, grid, contrast=0.2)
            z0 = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=K)).z
            y = z0 + 0.3 * np.mean(np.abs(z0)) * random_field(rng, (16,))
            delta = 1e-5 * np.max(np.abs(f))
            cfg_f = wt.ForwardConfig(K=K, nu=wt.estimate_fixed_step(f, G))
            gf = wt.gradient_from_trace(f, y, G, H, wt.forward_solve(f, u_in, G, H, cfg_f))
            ef = fd(f, y, cfg_f, delta)
            worst_fixed = max(worst_fixed,
                              np.linalg.norm(gf - ef) / np.linalg.norm(ef))
            cfg_a = wt.ForwardConfig(K=K)
            ga = wt.gradient_from_trace(f, y, G, H, wt.forward_solve(f, u_in, G, H, cfg_a))
            ea = fd(f, y, cfg_a, delta)
            worst_adaptive = max(worst_adaptive,
                                 np.linalg.norm(ga - ea) / np.linalg.norm(ea))
    ok = worst_fixed <= 1e-6 and worst_adaptive <= 1e-3
    _report(2, "reverse-mode gradient vs finite differences", ok,
            f"fixed-step {worst_fixed:.2e} <= 1e-6, "
            f"adaptive {worst_adaptive:.2e} <= 1e-3",
            time.perf_counter() - tic, 60.0)


def test_criterion_3_forward_vs_analytic():
    tic = time.perf_counter()
    grid = wt.centered_grid((64, 64), spacing=WL / 16, wavelength=WL)
    K_values = [1, 2, 4, 8, 16, 32, 64, 96, 128]
    results = {}
    for c in (0.05, 0.10, 0.20, 0.40):
        scene = wt.AnalyticScene(r_sph=WL, refractive_index=np.sqrt(1 + c),
                                 r_s=1.0, k_b=KB)
        results[c] = forward_error_vs_analytic(grid, scene, K_values, (1.0, 0.0))

    monotone = True
    for c, res in results.items():
        err = res["error"]
        plateau = 2.0 * err[-1]
        for a, b in zip(err, err[1:]):
            if a > plateau and b > a * (1 + 1e-12):
                monotone = False
    beats_born = all(results[c]["error"][-1] < results[c]["born_error"]
                     for c in (0.10, 0.20, 0.40))
    bound10 = results[0.10]["error"][-1]
    ok = monotone and beats_born and bound10 <= 3e-2
    _report(3, "forward model vs closed form", ok,
            f"non-increasing to plateau: {monotone}; beats first Born at "
            f">=10%: {beats_born}; 10%-contrast plateau {bound10:.2e} <= 3e-2",
            time.perf_counter() - tic, 300.0)


# Beside criterion 3, whose bounds sit far above the model's error: each
# level's error against the closed form, bounded at DISCRETIZATION_MARGIN
# times the value measured on this code.  A cylinder or sphere of radius
# 0.4 wavelengths, the point source 4 wavelengths out, a grid 2 wavelengths
# wide, K = 60.  Rows: (ndim, points per wavelength, contrast, measured).
DISCRETIZATION_ERRORS = [
    (2, 8, 0.1, 2.853e-6), (2, 16, 0.1, 3.835e-7),
    (2, 8, 0.4, 7.099e-5), (2, 16, 0.4, 8.737e-6),
    (3, 8, 0.1, 1.063e-6), (3, 12, 0.1, 5.417e-7),
    (3, 8, 0.4, 3.604e-5), (3, 12, 0.4, 1.677e-5),
]
# below the 2.6x the 3D self-term with exponent 2/3 for 1/3 reads at 12
# points per wavelength and 10% (2.6-4.6x over the 3D rows); the 2D one with
# a = h / pi for h / sqrt(pi) reads 9-12x
DISCRETIZATION_MARGIN = 1.5


@pytest.mark.parametrize("ndim, per_wl, contrast, measured", DISCRETIZATION_ERRORS,
                         ids=[f"{d}d-{p}ppw-{c:.0%}" for d, p, c, _ in DISCRETIZATION_ERRORS])
def test_discretization_error_at_its_measured_level(ndim, per_wl, contrast, measured):
    wl, n = 0.5, 2 * per_wl
    grid = wt.centered_grid((n,) * ndim, spacing=wl / per_wl, wavelength=wl)
    n_index = np.sqrt(1.0 + contrast)
    if ndim == 2:
        scene = wt.AnalyticScene(r_sph=0.4 * wl, refractive_index=n_index, r_s=4 * wl,
                                 k_b=grid.k_b)
        err = forward_error_vs_analytic(grid, scene, [60], (scene.r_s, 0.0))["error"][0]
    else:
        scene = wt.AnalyticScene(r_sph=0.4 * wl, refractive_index=n_index, r_s=4 * wl,
                                 k_b=grid.k_b, truncation=40)
        f = wt.cylinders(grid, [((0.0, 0.0, 0.0), scene.r_sph, contrast)], supersample=4)
        u_in = wt.Transmitter("point", position=(0.0, 0.0, scene.r_s)).field_on_grid(grid)
        u_hat = wt.forward_solve(f, u_in, wt.build_domain_operator(grid), None,
                                 wt.ForwardConfig(K=60)).u_hat
        pts = grid.pixel_centers()
        r = np.linalg.norm(pts, axis=-1)
        theta = np.arccos(np.clip(pts[..., 2] / np.maximum(r, 1e-300), -1, 1))
        err = wt.normalized_error(u_hat, wt.analytic_field_3d(r, theta, scene))
    assert err <= DISCRETIZATION_MARGIN * measured


def test_criterion_4_tv_prox_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(0)
    # scale chosen so the prox solutions stay where the subgradient oracle
    # attains certified convergence (no flat gradient groups at the optimum)
    Z = 12.0 * rng.standard_normal((20, 5, 5))
    budgets = {0.01: 120000, 0.1: 150000, 1.0: 300000}
    worst = 0.0
    nonexpansive = True
    for tau, budget in budgets.items():
        prox = np.stack([wt.prox_tv(Z[i], tau, wt.BoxConstraint(), iters=2000)[0]
                         for i in range(Z.shape[0])])
        F_fgp = prox_objective_batch(prox, Z, tau)
        F_orc = subgradient_prox_batch(Z.copy(), tau, budget)
        worst = max(worst, float(np.max(np.abs(F_fgp - F_orc) / F_orc)))
        for i in range(Z.shape[0]):
            for j in range(i + 1, Z.shape[0]):
                lhs = np.linalg.norm(prox[i] - prox[j])
                rhs = np.linalg.norm(Z[i] - Z[j])
                if lhs > rhs * (1 + 1e-12):
                    nonexpansive = False
    ok = worst <= 1e-8 and nonexpansive
    _report(4, "TV prox vs projected-subgradient oracle", ok,
            f"worst objective mismatch {worst:.2e} <= 1e-8 over 20 instances x "
            f"tau in (0.01, 0.1, 1); nonexpansive on all pairs: {nonexpansive}",
            time.perf_counter() - tic, 120.0)


@pytest.fixture(scope="module")
def end_to_end_setup():
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
    mset, f_true = simulate_measurements(cfg)
    return cfg, mset, f_true


def test_criterion_5_end_to_end_reconstruction(end_to_end_setup):
    tic = time.perf_counter()
    cfg, mset, f_true = end_to_end_setup
    grid = fileio.grid_from_config(cfg)
    rcfg = fileio.recon_config_from_config(cfg)
    # any ConvergenceWarning fails the gate: a BiCGStab solve that reaches K,
    # or a rise of the objective that the step's halving did not handle
    with warnings.catch_warnings():
        warnings.simplefilter("error", wt.ConvergenceWarning)
        full = wt.fista_reconstruct(mset, grid, rcfg, ground_truth=f_true,
                                    model="full")
        born = wt.fista_reconstruct(mset, grid, rcfg, ground_truth=f_true,
                                    model="born")
    fit = full.data_fit_history[-1]
    err_full = full.recon_error_history[-1]
    err_born = born.recon_error_history[-1]
    ok = (fit <= 1e-2 and err_full < err_born
          and len(full.data_fit_history) <= 50)

    def steps(rep):
        h = rep.step_history
        halvings = sum(b < a for a, b in zip(h, h[1:]))
        return f"{h[0]:.3e} -> {h[-1]:.3e}, halvings: {halvings}"

    _report(5, "end-to-end reconstruction", ok,
            f"data fit {fit:.2e} <= 1e-2; recon error {err_full:.2e} < "
            f"first-Born {err_born:.2e}; iterations "
            f"{len(full.data_fit_history)} <= 50; step full {steps(full)}, "
            f"Born {steps(born)}",
            time.perf_counter() - tic, 600.0)


def test_zero_solve_tolerance_on_the_criterion_5_scene(end_to_end_setup):
    # delta_tol_rel 0 used to run BiCGStab on into underflow: NaN fields, and
    # a NumericalError at iteration 2
    cfg, mset, _ = end_to_end_setup
    rcfg = dataclasses.replace(fileio.recon_config_from_config(cfg), fista_iters=3,
                               forward=wt.ForwardConfig(K=60, delta_tol_rel=0.0))
    rep = wt.fista_reconstruct(mset, fileio.grid_from_config(cfg), rcfg)
    assert np.all(np.isfinite(rep.f_hat))
    assert rep.data_fit_history[-1] < rep.data_fit_history[0]


def test_criterion_6_analytic_self_consistency():
    tic = time.perf_counter()
    scene = wt.AnalyticScene(r_sph=3 * WL, refractive_index=np.sqrt(1.2),
                             r_s=1.0, k_b=KB)
    checks = {}

    # interface continuity of every retained order
    rho = KB * scene.r_sph
    n = scene.refractive_index
    mmax = 20
    j_in = bessel_jn_all(mmax, np.array([n * rho]))[:, 0]
    j_b = bessel_jn_all(mmax, np.array([rho]))[:, 0]
    y_b = bessel_yn_all(mmax, np.array([rho]))[:, 0]
    cont = max(abs(wt.radial_coeffs_2d(m, scene)[0] * j_in[m]
                   - (wt.radial_coeffs_2d(m, scene)[1] * j_b[m]
                      + wt.radial_coeffs_2d(m, scene)[2] * y_b[m]))
               / abs(wt.radial_coeffs_2d(m, scene)[0] * j_in[m])
               for m in range(mmax + 1))
    checks["interface continuity"] = cont <= 1e-10

    # source jump conditions (second-order one-sided stencils)
    def jump_of(R, r_s, h):
        d_out = (-2.5 * R(r_s + h) + 4 * R(r_s + 2 * h) - 1.5 * R(r_s + 3 * h)) / h
        d_in = (2.5 * R(r_s - h) - 4 * R(r_s - 2 * h) + 1.5 * R(r_s - 3 * h)) / h
        return d_out - d_in

    _, b2, c2 = wt.radial_coeffs_2d(2, scene)
    rho_s = KB * scene.r_s

    def R2(r):
        jr = bessel_jn_all(2, np.array([KB * r]))[2, 0]
        yr = bessel_yn_all(2, np.array([KB * r]))[2, 0]
        js = bessel_jn_all(2, np.array([rho_s]))[2, 0]
        ys = bessel_yn_all(2, np.array([rho_s]))[2, 0]
        if r < scene.r_s:
            return (b2 * jr + c2 * yr) * (js + 1j * ys)
        return (b2 * js + c2 * ys) * (jr + 1j * yr)

    jump2 = jump_of(R2, scene.r_s, 2e-6 * scene.r_s)
    checks["2D source jump"] = abs(jump2 + 1.0 / scene.r_s) <= 1e-6 / scene.r_s

    _, B1, C1 = wt.radial_coeffs_3d(1, scene)

    def R3(r):
        jr = spherical_jn_all(1, np.array([KB * r]))[1, 0]
        yr = spherical_yn_all(1, np.array([KB * r]))[1, 0]
        js = spherical_jn_all(1, np.array([rho_s]))[1, 0]
        ys = spherical_yn_all(1, np.array([rho_s]))[1, 0]
        if r < scene.r_s:
            return (B1 * jr + C1 * yr) * (js + 1j * ys)
        return (B1 * js + C1 * ys) * (jr + 1j * yr)

    jump3 = jump_of(R3, scene.r_s, 2e-6 * scene.r_s)
    checks["3D source jump"] = abs(jump3 + 1.0 / scene.r_s ** 2) <= 1e-6 / scene.r_s ** 2

    # reciprocity (both points outside the object)
    big = wt.AnalyticScene(r_sph=scene.r_sph, refractive_index=n, r_s=1.0,
                           k_b=KB, truncation=95)
    swap = wt.AnalyticScene(r_sph=scene.r_sph, refractive_index=n, r_s=0.5,
                            k_b=KB, truncation=95)
    fwd = wt.analytic_field_2d(0.5, 1.1, big)
    bwd = wt.analytic_field_2d(1.0, -1.1, swap)
    checks["reciprocity"] = abs(fwd - bwd) / abs(fwd) <= 1e-8

    # Helmholtz residual decays second order inside the object
    k_in_sq = (n * KB) ** 2
    inner = wt.AnalyticScene(r_sph=6 * WL, refractive_index=n, r_s=1.0, k_b=KB)

    def sampler(pts):
        r = np.linalg.norm(pts, axis=-1)
        th = np.arctan2(pts[..., 1], pts[..., 0])
        return wt.analytic_field_2d(r, th, inner)

    def residual(spacing, npix):
        grid = wt.DomainGrid((npix, npix), spacing,
                             (-0.5 * spacing * (npix - 1),) * 2, WL)
        return helmholtz_residual(sampler, lambda pts: k_in_sq, grid)

    r1 = residual(WL / 24, 16)
    r2 = residual(WL / 48, 32)
    checks["Helmholtz second-order decay"] = r2 <= r1 / 3.0

    ok = all(checks.values())
    _report(6, "analytic self-consistency", ok,
            "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()),
            time.perf_counter() - tic, 120.0)


def test_criterion_7_fresnel_protocol(tmp_path):
    tic = time.perf_counter()
    from test_io import write_fresnel

    path = tmp_path / "synthetic.txt"
    write_fresnel(path, n_tx=8, extra_freqs=(2.0,), scale=1.2)
    mset = fileio.load_fresnel_ascii(path, frequency_ghz=3.0)
    shape_ok = (mset.n_tx == 8
                and all(ix.size == 241 for ix in mset.active_indices)
                and mset.frequency_hz == pytest.approx(3e9))
    expected = {2: 120, 4: 60, 8: 30, 16: 15, 32: 8, 64: 4, 128: 2}
    counts_ok = True
    nesting_ok = True
    prev = set(mset.active_indices[0])
    for factor, count in expected.items():
        sub = mset.subsample(factor)
        counts_ok &= all(ix.size == count for ix in sub.active_indices)
        cur = set(sub.active_indices[0])
        nesting_ok &= cur <= prev
        prev = cur
    ok = shape_ok and counts_ok and nesting_ok
    _report(7, "Fresnel-protocol plumbing", ok,
            f"8x241 at 3 GHz: {shape_ok}; decimation counts "
            f"{list(expected.values())}: {counts_ok}; nested: {nesting_ok}",
            time.perf_counter() - tic, 60.0)


def test_criterion_8_metric_formulas():
    tic = time.perf_counter()
    rng = np.random.default_rng(2)
    u = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    f = rng.standard_normal(25)
    ok = (wt.normalized_error(u, u) == 0.0
          and wt.normalized_error(np.zeros(25), u) == 1.0
          and abs(wt.normalized_error(2 * u, u) - 1.0) < 1e-14
          and wt.snr_db(np.zeros(25), f) == pytest.approx(0.0)
          and wt.snr_db(f, f) == np.inf)
    scaled = f + 0.1 * np.linalg.norm(f) * np.ones(25) / np.sqrt(25)
    ok = ok and wt.snr_db(scaled, f) == pytest.approx(20.0)
    _report(8, "metric formulas", ok, "0 / 1 / 20 dB cases exact",
            time.perf_counter() - tic, 1.0)
