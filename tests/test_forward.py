import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import fd_gradient
from wavetomo.errors import ConfigError


class TestObjective:
    def test_zero_at_solution(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=300)
        u = wt.forward_solve(f, u_in, G, None, cfg).u_hat
        uin_sq = float(np.vdot(u_in, u_in).real)
        assert wt.scattering_objective(f, u, u_in, G) <= 1e-20 * uin_sq

    def test_trivial_values(self, small_setup):
        grid, G, _, u_in = small_setup
        f0 = np.zeros(grid.shape)
        assert wt.scattering_objective(f0, u_in, u_in, G) == 0.0
        expect = 0.5 * float(np.vdot(u_in, u_in).real)
        assert wt.scattering_objective(f0, 2.0 * u_in, u_in, G) == pytest.approx(expect)

    def test_gradient_trivial(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f0 = np.zeros(grid.shape)
        u = random_field(rng, grid.shape)
        assert np.allclose(wt.objective_gradient(f0, u, u_in, G), u - u_in)

    def test_gradient_directional_fd(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        u = random_field(rng, grid.shape)
        g = wt.objective_gradient(f, u, u_in, G)
        d = random_field(rng, grid.shape)
        d /= np.linalg.norm(d)
        eps = 1e-6 * np.linalg.norm(u)
        plus = wt.scattering_objective(f, u + eps * d, u_in, G)
        minus = wt.scattering_objective(f, u - eps * d, u_in, G)
        fd = (plus - minus) / (2 * eps)
        # derivative along a complex direction: Re<g, d>
        analytic = np.vdot(g, d).real
        assert fd == pytest.approx(analytic, rel=1e-6)


class TestForwardSolve:
    def test_zero_potential_stops_immediately(self, small_setup):
        grid, G, H, u_in = small_setup
        cfg = wt.ForwardConfig(K=50, delta_tol=1e-14)
        trace = wt.forward_solve(np.zeros(grid.shape), u_in, G, H, cfg)
        assert trace.K_effective == 1
        assert len(trace.s_history) == 1
        assert np.allclose(trace.u_hat, u_in)
        assert np.allclose(trace.z, 0.0)

    def test_t_sequence(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3))
        # t0 = 0 -> t1 = 1, t2 = (1+sqrt(5))/2; mu1 = 1, mu2 = 0
        assert trace.mu_history[0] == pytest.approx(1.0)
        assert trace.mu_history[1] == pytest.approx(0.0)
        t2 = 0.5 * (1 + np.sqrt(5.0))
        mu3 = (1 - t2) / (0.5 * (1 + np.sqrt(1 + 4 * t2 ** 2)))
        assert trace.mu_history[2] == pytest.approx(mu3)

    def test_prediction_examples(self, small_setup, rng):
        grid, _, H, _ = small_setup
        u = random_field(rng, grid.shape)
        assert np.all(wt.predict_scattered(u, np.zeros(grid.shape), H) == 0)
        assert np.all(wt.predict_scattered(np.zeros(grid.shape), u.real, H) == 0)
        f = np.zeros(grid.shape)
        f[4, 5] = 2.5
        got = wt.predict_scattered(u, f, H)
        expect = 2.5 * u[4, 5] * H.matrix[:, 4 * grid.shape[1] + 5]
        assert np.allclose(got, expect)

    def test_cylinder_objective_decreases_and_hits_tolerance(self):
        # 64x64 cylinder at 10% contrast: monotone decrease after the first
        # few iterations and objective below 5e-7 ||u_in||^2 within K = 120
        wl = 0.0749
        grid = wt.centered_grid((64, 64), spacing=wl / 16, wavelength=wl)
        f = wt.cylinders(grid, [((0.0, 0.0), 2 * wl / 2, 0.10)])
        G = wt.build_domain_operator(grid)
        u_in = wt.Transmitter("point", position=(1.0, 0.0)).field_on_grid(grid)
        uin_sq = float(np.vdot(u_in, u_in).real)
        tol = dict(delta_tol=5e-7 * uin_sq, stop_on="objective")
        trace = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=120, **tol))
        # S(u^k) by prefix replay: a solve capped at K = k ends at u^k
        obj = []
        for k in range(1, trace.K_effective + 1):
            short = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=k, **tol))
            assert short.K_effective == k
            obj.append(wt.scattering_objective(f, short.u_hat, u_in, G))
        obj = np.array(obj)
        assert obj[-1] < 5e-7 * uin_sq
        assert trace.K_effective < 120
        tail = obj[3:]
        assert np.all(np.diff(tail) <= 1e-12 * tail[:-1])

    def test_deterministic_prefix_replay(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        long = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=9))
        short = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=4))
        for k in range(4):
            assert np.array_equal(short.s_history[k], long.s_history[k])
            assert short.gamma_history[k] == long.gamma_history[k]
            assert short.mu_history[k] == long.mu_history[k]

    def test_fixed_step_matches_adaptive_limit(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        u_adapt = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=400)).u_hat
        nu = wt.estimate_fixed_step(f, G)
        cfg = wt.ForwardConfig(K=4000, delta_tol=1e-11, step_mode="fixed", nu=nu)
        u_fixed = wt.forward_solve(f, u_in, G, None, cfg).u_hat
        rel = np.linalg.norm(u_fixed - u_adapt) / np.linalg.norm(u_adapt)
        assert rel <= 1e-6

    def test_consistency_at_tolerance_settings(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=120, delta_tol_rel=5e-7, stop_on="objective")
        trace = wt.forward_solve(f, u_in, G, None, cfg)
        resid = wt.apply_A(f, trace.u_hat, G) - u_in
        assert np.linalg.norm(resid) / np.linalg.norm(u_in) <= 1e-4

    @pytest.mark.parametrize("case", ["random20", "cyl50", "cyl100"])
    def test_convergence_invariant_32(self, rng, case):
        # objective at K = 200 below 1e-10 ||u_in||^2; convergence slows with
        # the coupling strength, so the 100% case uses a sub-wavelength object
        spacing = 0.5 / (32 if case == "cyl100" else 16)
        grid = wt.centered_grid((32, 32), spacing=spacing, wavelength=0.5)
        G = wt.build_domain_operator(grid)
        u_in = wt.Transmitter("point", position=(1.5, 0.1)).field_on_grid(grid)
        if case == "random20":
            f = random_potential(rng, grid, contrast=0.2)
        elif case == "cyl50":
            f = wt.cylinders(grid, [((0.0, 0.0), 0.25, 0.5)])
        else:
            f = wt.cylinders(grid, [((0.0, 0.0), 0.15, 1.0)])
        trace = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=200))
        obj = wt.scattering_objective(f, trace.u_hat, u_in, G)
        assert obj <= 1e-10 * float(np.vdot(u_in, u_in).real)

    def test_warm_start_option(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        u0 = random_field(rng, grid.shape)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=2), u_init=u0)
        # s^1 = u0 for any momentum, since u^0 = u^-1 = u0
        assert np.allclose(trace.s_history[0], u0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            wt.ForwardConfig(K=0)
        with pytest.raises(ConfigError):
            wt.ForwardConfig(K=5, step_mode="fixed")
        with pytest.raises(ConfigError):
            wt.ForwardConfig(K=5, delta_tol=-1.0)
        with pytest.raises(ConfigError):
            wt.ForwardConfig(K=5, delta_tol=1.0, delta_tol_rel=1.0)


class TestEstimateStep:
    def test_step_bounds_operator_norm(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        nu = wt.estimate_fixed_step(f, G, iters=60, tol=1e-8)
        # ||A x|| <= ||A|| ||x|| with ||A||^2 ~ 1/nu
        for _ in range(5):
            x = random_field(rng, grid.shape)
            assert np.linalg.norm(wt.apply_A(f, x, G)) <= np.sqrt(1.05 / nu) * np.linalg.norm(x)


def test_objective_fd_consistency(small_setup, rng):
    # data-fidelity of forward prediction is smooth in f; spot-check one pixel
    grid, G, H, u_in = small_setup
    f = random_potential(rng, grid)
    y = random_field(rng, (len(H.sensors),))
    cfg = wt.ForwardConfig(K=3, step_mode="fixed", nu=wt.estimate_fixed_step(f, G))

    def D_of(fv):
        return wt.data_fidelity(wt.forward_solve(fv, u_in, G, H, cfg).z, y)

    delta = 1e-5 * np.max(np.abs(f))
    grad = wt.gradient_data_fidelity(f, y, u_in, G, H, cfg)
    fd = fd_gradient(D_of, f, delta)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6
