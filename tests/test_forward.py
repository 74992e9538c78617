import contextlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import dense_A_matrix, fd_gradient, objective_gradient, scattering_objective
from wavetomo.errors import (ConfigError, ConvergenceWarning, DimensionError,
                             NumericalError, StepDegeneracyError)


class TestObjective:
    def test_zero_at_solution(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=300)
        u = wt.forward_solve(f, u_in, G, None, cfg).u_hat
        uin_sq = float(np.vdot(u_in, u_in).real)
        assert scattering_objective(f, u, u_in, G) <= 1e-20 * uin_sq

    def test_trivial_values(self, small_setup):
        grid, G, _, u_in = small_setup
        f0 = np.zeros(grid.shape)
        assert scattering_objective(f0, u_in, u_in, G) == 0.0
        expect = 0.5 * float(np.vdot(u_in, u_in).real)
        assert scattering_objective(f0, 2.0 * u_in, u_in, G) == pytest.approx(expect)

    def test_gradient_trivial(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f0 = np.zeros(grid.shape)
        u = random_field(rng, grid.shape)
        assert np.allclose(objective_gradient(f0, u, u_in, G), u - u_in)

    def test_gradient_directional_fd(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        u = random_field(rng, grid.shape)
        g = objective_gradient(f, u, u_in, G)
        d = random_field(rng, grid.shape)
        d /= np.linalg.norm(d)
        eps = 1e-6 * np.linalg.norm(u)
        plus = scattering_objective(f, u + eps * d, u_in, G)
        minus = scattering_objective(f, u - eps * d, u_in, G)
        fd = (plus - minus) / (2 * eps)
        # derivative along a complex direction: Re<g, d>
        analytic = np.vdot(g, d).real
        assert fd == pytest.approx(analytic, rel=1e-6)


class TestForwardSolve:
    def test_zero_potential_stops_immediately(self, small_setup):
        grid, G, H, u_in = small_setup
        # the tightest objective tolerance allowed: A = I makes S(s^1) exactly 0
        cfg = wt.ForwardConfig(K=50, delta_tol_rel=1e-26)
        trace = wt.forward_solve(np.zeros(grid.shape), u_in, G, H, cfg)
        assert trace.K_effective == 1
        assert len(trace.steps) == 1
        assert np.allclose(trace.u_hat, u_in)
        assert np.allclose(trace.z, 0.0)

    def test_vanishing_A_g_raises(self, small_setup):
        # a stub G with G v = v and G^H = 0 and f = 1 make A = 0: the first
        # gradient A^H (A u_in - u_in) = -u_in is nonzero, and A g vanishes
        grid, _, _, u_in = small_setup
        G = SimpleNamespace(grid=grid, apply=lambda v: v, apply_adjoint=np.zeros_like)
        # the solve restricts G to f's support, here the whole grid
        G.column_block = lambda f: (tuple(slice(0, n) for n in grid.shape), G)
        with pytest.raises(StepDegeneracyError, match=r"\|\|A g\|\| vanished"):
            wt.forward_solve(np.ones(grid.shape), u_in, G, None, wt.ForwardConfig(K=5))

    def test_t_sequence(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3))
        mu = [mu_k for _, _, mu_k, _ in trace.steps]
        # t0 = 0 -> t1 = 1, t2 = (1+sqrt(5))/2; mu1 = 1, mu2 = 0
        assert mu[0] == pytest.approx(1.0)
        assert mu[1] == pytest.approx(0.0)
        t2 = 0.5 * (1 + np.sqrt(5.0))
        mu3 = (1 - t2) / (0.5 * (1 + np.sqrt(1 + 4 * t2 ** 2)))
        assert mu[2] == pytest.approx(mu3)

    def test_prediction_examples(self, small_setup, rng):
        grid, _, H, _ = small_setup
        u = random_field(rng, grid.shape)
        assert np.all(wt.born_predict(np.zeros(grid.shape), u, H) == 0)
        assert np.all(wt.born_predict(u.real, np.zeros(grid.shape), H) == 0)
        f = np.zeros(grid.shape)
        f[4, 5] = 2.5
        got = wt.born_predict(f, u, H)
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
        tol = dict(delta_tol_rel=5e-7)
        trace = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=120, **tol))
        # S(u^k) by prefix replay: a solve capped at K = k ends at u^k
        obj = []
        for k in range(1, trace.K_effective + 1):
            # capped short of K_effective, a solve misses its tolerance and warns
            capped = (pytest.warns(ConvergenceWarning, match=f"reached K = {k} ")
                      if k < trace.K_effective else contextlib.nullcontext())
            with capped:
                short = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=k, **tol))
            assert short.K_effective == k
            obj.append(scattering_objective(f, short.u_hat, u_in, G))
        obj = np.array(obj)
        assert obj[-1] < 5e-7 * uin_sq
        assert trace.K_effective < 120
        tail = obj[3:]
        assert np.all(np.diff(tail) <= 1e-12 * tail[:-1])

    def test_carried_residual_tracks_direct(self, small_setup, rng):
        # the adaptive step extrapolates A s^k from the carried A u^k instead
        # of applying A to s^k; its round-off must stay far below any tolerance
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid, contrast=0.3)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=200))
        assert trace.K_effective == 200
        bound = 1e-12 * np.linalg.norm(u_in)
        for s_k, _, _, GHr_k in trace.steps:
            direct = G.apply_adjoint(wt.apply_A(f, s_k, G) - u_in)
            assert np.linalg.norm(GHr_k - direct) <= bound

    def test_carried_residual_floor_64(self):
        # a long solve drives the true residual ||A u_hat - u_in|| down to the
        # carry's round-off floor, about 1e-13 ||u_in|| on this scene
        wl = 0.0749
        grid = wt.centered_grid((64, 64), spacing=wl / 16, wavelength=wl)
        f = wt.cylinders(grid, [((0.0, 0.0), 2 * wl / 2, 0.10)])
        G = wt.build_domain_operator(grid)
        u_in = wt.Transmitter("point", position=(1.0, 0.0)).field_on_grid(grid)
        u_hat = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=600)).u_hat
        resid = wt.apply_A(f, u_hat, G) - u_in
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(u_in)

    def test_capped_solve_warns(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=3, delta_tol_rel=1e-12)
        with pytest.warns(ConvergenceWarning,
                          match="reached K = 3 without meeting delta_tol_rel = 1e-12 "
                                "on the objective"):
            trace = wt.forward_solve(f, u_in, G, H, cfg)
        assert trace.K_effective == 3

    def test_no_tolerance_never_warns(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in (1, 3, 40):
                cfg = wt.ForwardConfig(K=K, delta_tol_rel=0.0)
                assert wt.forward_solve(f, u_in, G, H, cfg).K_effective == K

    def test_tolerance_met_on_last_iteration_does_not_warn(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        tol = dict(delta_tol_rel=1e-10)
        K_eff = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=200, **tol)).K_effective
        assert 1 < K_eff < 200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=K_eff, **tol))
        assert trace.K_effective == K_eff

    def test_deterministic_prefix_replay(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        long = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=9))
        short = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=4))
        for k in range(4):
            assert np.array_equal(short.steps[k][0], long.steps[k][0])
            assert short.steps[k][1:3] == long.steps[k][1:3]

    def test_fixed_step_matches_adaptive_limit(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        u_adapt = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=400)).u_hat
        nu = wt.estimate_fixed_step(f, G)
        # a relative residual of sqrt(2e-22) = 1.4e-11
        cfg = wt.ForwardConfig(K=4000, delta_tol_rel=1e-22, nu=nu)
        u_fixed = wt.forward_solve(f, u_in, G, None, cfg).u_hat
        rel = np.linalg.norm(u_fixed - u_adapt) / np.linalg.norm(u_adapt)
        assert rel <= 1e-6

    def test_consistency_at_tolerance_settings(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=120, delta_tol_rel=5e-7)
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
        obj = scattering_objective(f, trace.u_hat, u_in, G)
        assert obj <= 1e-10 * float(np.vdot(u_in, u_in).real)

    def test_nu_alone_selects_fixed_step(self, small_setup, rng):
        # a nu without a separate mode switch used to run the adaptive step
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3, nu=0.5))
        assert [gamma for _, gamma, _, _ in trace.steps] == [0.5, 0.5, 0.5]

    def test_gradient_needs_one_datum_per_sensor(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3))
        with pytest.raises(DimensionError, match=r"^sensor counts differ: \(12,\) vs \(11,\)$"):
            wt.gradient_from_trace(f, np.zeros(11), G, H, trace)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            wt.ForwardConfig(K=0)
        # K=2.5 used to pass and then fail with a TypeError inside range()
        with pytest.raises(ConfigError, match="^K must be an integer$"):
            wt.ForwardConfig(K=2.5)
        with pytest.raises(ConfigError):
            wt.ForwardConfig(K=5, delta_tol_rel=-1.0)

    def test_objective_tolerance_floor(self):
        # below the carried residual's round-off floor a stop used to be
        # reported as met although the true objective never reached it
        assert wt.ForwardConfig(K=5, delta_tol_rel=1e-26).delta_tol_rel == 1e-26
        with pytest.raises(ConfigError, match="^delta_tol_rel must be 0 or >= 1e-26 "):
            wt.ForwardConfig(K=5, delta_tol_rel=1e-27)


class TestColumnBlocks:
    """Solves on A built from G's column block on f's support, against the
    same solves with G applied on the whole grid."""

    def test_sphere_sweep_keeps_K_eff(self, whole_grid_G):
        # the benchmark's 3D contrast sweep on a 16^3 grid: the sphere's 8^3
        # box convolves with period 24 instead of 32, and the fields change
        # by round-off only, so every solve stops at the same iteration
        wl = 0.5
        grid = wt.centered_grid((16, 16, 16), spacing=wl / 8, wavelength=wl)
        unit = wt.cylinders(grid, [((0.0, 0.0, 0.0), 0.5 * wl, 1.0)], supersample=4)
        G = wt.build_domain_operator(grid)
        _, block = G.column_block(unit)
        assert block._kernel_hat.shape == (24, 24, 24)
        u_in = wt.Transmitter("point", position=(0.0, 0.0, 8 * wl)).field_on_grid(grid)
        cfg = wt.ForwardConfig(K=240, delta_tol_rel=5e-7)
        contrasts = [0.05 * i for i in range(1, 9)]
        blocked = [wt.forward_solve(c * unit, u_in, G, None, cfg) for c in contrasts]
        whole_grid_G()
        whole = [wt.forward_solve(c * unit, u_in, G, None, cfg) for c in contrasts]
        assert len({t.K_effective for t in whole}) > 4
        for a, b in zip(blocked, whole):
            assert a.K_effective == b.K_effective
            assert np.linalg.norm(a.u_hat - b.u_hat) <= 1e-12 * np.linalg.norm(b.u_hat)

    def test_H_free_solve_matches_H_given(self, rng):
        # the H-free step forms f G^H r on the box only, the H-given step on
        # the whole grid, where its backward pass reads it
        grid = wt.centered_grid((12, 12), spacing=0.5 / 16, wavelength=0.5)
        G = wt.build_domain_operator(grid)
        f = np.zeros(grid.shape)
        f[3:7, 4:9] = random_potential(rng, grid)[3:7, 4:9]
        assert G.column_block(f)[1] is not G
        H = wt.build_sensor_operator(grid, wt.ring_sensors(10, radius=0.45))
        u_in = wt.Transmitter("point", position=(0.5, 0.1)).field_on_grid(grid)
        for nu in (None, wt.estimate_fixed_step(f, G)):
            cfg = wt.ForwardConfig(K=30, nu=nu)
            free = wt.forward_solve(f, u_in, G, None, cfg).u_hat
            given = wt.forward_solve(f, u_in, G, H, cfg).u_hat
            assert np.linalg.norm(free - given) <= 1e-13 * np.linalg.norm(given)


class TestBicgstab:
    """The Krylov solve of the adjoint-state gradient, on small matrices."""

    @staticmethod
    def counted(M):
        calls = []

        def op(x):
            calls.append(1)
            return M @ x
        return op, calls

    @staticmethod
    def system(rng, n=12):
        M = np.eye(n) + 0.3 * (random_field(rng, (n, n))) / np.sqrt(n)
        return M, random_field(rng, (n,))

    def test_meets_residual_bound(self, rng):
        M, b = self.system(rng)
        op, calls = self.counted(M)
        x, applies = wt.bicgstab(op, b, np.zeros_like(b), 1e-10, 50)
        assert np.linalg.norm(b - M @ x) <= 1e-10 * np.linalg.norm(b)
        assert applies == len(calls) < 2 * 50

    def test_nonzero_start_costs_one_apply(self, rng):
        M, b = self.system(rng)
        op, calls = self.counted(M)
        x0 = np.linalg.solve(M, b)
        # the initial residual is round-off, so a loose bound stops at once
        x, applies = wt.bicgstab(op, b, x0, 1e-8, 50)
        assert applies == len(calls) == 1
        assert np.array_equal(x, x0)

    def test_scaled_identity_one_apply(self, rng):
        # one half step solves 2 x = b exactly: an extra apply fails here
        b = random_field(rng, (5,))
        op, calls = self.counted(2.0 * np.eye(5))
        x, applies = wt.bicgstab(op, b, np.zeros_like(b), 1e-3, 10)
        assert applies == len(calls) == 1
        assert np.array_equal(x, 0.5 * b)

    @pytest.mark.parametrize("M, b, cause", [
        # <r0, A r0> = 0 for a rotation, so the first step is undefined
        ([[0.0, 1.0], [-1.0, 0.0]], [1, 0], "<r0, A p> vanished"),
        # with b = e1 one exact iteration leaves r = (0, -1/2, 1/2), nonzero
        # and orthogonal to r0
        ([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, -1.0, 1.0]], [1, 0, 0],
         "<r0, r> vanished"),
        # one half step leaves r = (-1, 1) with A r = 0, so omega is 0/0
        ([[1.0, 1.0], [0.0, 0.0]], [1, 1], "the stabilizing step is undefined"),
        # one exact step leaves r = (0, -1), and A r = (-1, 0) is orthogonal
        # to it, so omega is 0 while r is not
        ([[1.0, 1.0], [1.0, 0.0]], [1, 0], "the stabilizing step vanished"),
    ], ids=["r0 orthogonal to A p", "r0 orthogonal to r", "A r vanished",
            "A r orthogonal to r"])
    def test_breakdown_raises(self, M, b, cause):
        op, _ = self.counted(np.array(M))
        b = np.array(b, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^BiCGStab breakdown: {cause}$"):
                wt.bicgstab(op, b, np.zeros_like(b), 1e-8, 10)

    def test_cap_with_tolerance_warns(self, rng):
        M, b = self.system(rng)
        op, calls = self.counted(M)
        with pytest.warns(ConvergenceWarning, match="BiCGStab reached 2 iterations"):
            wt.bicgstab(op, b, np.zeros_like(b), 1e-12, 2)
        assert len(calls) == 4

    def test_zero_tolerance_runs_the_cap_silently(self, rng):
        # like forward_solve with delta_tol_rel = 0: no early stop, no warning
        M, b = self.system(rng)
        op, calls = self.counted(M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, applies = wt.bicgstab(op, b, np.zeros_like(b), 0.0, 3)
        assert applies == len(calls) == 6

    def test_zero_tolerance_stops_at_the_round_off_floor(self):
        # it used to iterate on until the residual underflowed: omega
        # overflowed and x came back NaN after all 61 applies
        grid = wt.centered_grid((8, 8), spacing=0.5 / 16, wavelength=0.5)
        f = wt.cylinders(grid, [((0.0, 0.0), 0.08, 0.05)])
        u_in = wt.Transmitter("point", position=(0.45, 0.0)).field_on_grid(grid)
        op = wt.greens.SystemOperator(f, wt.build_domain_operator(grid)).apply
        x, applies = wt.bicgstab(op, u_in, u_in, 0.0, 30)
        assert applies < 61
        assert np.linalg.norm(op(x) - u_in) <= 1e-15 * np.linalg.norm(u_in)

    @pytest.mark.parametrize("nan_apply, step", [(1, "alpha"), (2, "omega")])
    def test_non_finite_step_raises(self, rng, nan_apply, step):
        # a NaN apply, as from an overflow, passed every breakdown check and
        # returned a NaN x
        M, b = self.system(rng)
        calls = []

        def op(x):
            calls.append(1)
            return np.full_like(x, np.nan) if len(calls) == nan_apply else M @ x
        # numpy warns of the NaN division first; the guard is what follows it
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match=f"^BiCGStab step {step} is not finite$"):
            wt.bicgstab(op, b, np.zeros_like(b), 1e-8, 10)

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_zero_residual_returns(self, tol):
        op, calls = self.counted(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        b = np.zeros(2, dtype=complex)
        x, applies = wt.bicgstab(op, b, np.zeros_like(b), tol, 10)
        assert applies == len(calls) == 0 and not np.any(x)
        # a start that solves the system exactly costs its residual only
        x0 = np.array([0.0, -1.0], dtype=complex)
        x, applies = wt.bicgstab(op, op(x0), x0, tol, 10)
        assert applies == 1 and np.array_equal(x, x0)


class TestEstimateStep:
    def test_step_bounds_operator_norm(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        nu = wt.estimate_fixed_step(f, G, iters=60, tol=1e-8)
        # ||A x|| <= ||A|| ||x|| with ||A||^2 ~ 1/nu
        for _ in range(5):
            x = random_field(rng, grid.shape)
            assert np.linalg.norm(wt.apply_A(f, x, G)) <= np.sqrt(1.05 / nu) * np.linalg.norm(x)

    # (shape, contrast) -> how far short of the dense ||A||_2^2 the power
    # iteration's estimate may come; it never exceeds it.  At the default
    # tolerance it came 0.60%, 0.28%, 5.0% and 8.8% short, and two steps
    # alone were 56% and 37% short on the first two scenes.  The last two
    # are bound at 1.5 times their shortfall
    SHORTFALL = {((12, 10), 1.0): 2e-2, ((9, 11), 0.5): 2e-2,
                 ((12, 10), 0.2): 7.5e-2, ((6, 5, 4), 0.5): 1.3e-1}

    @pytest.mark.parametrize("shape, contrast", list(SHORTFALL))
    def test_estimate_against_dense_norm(self, shape, contrast):
        grid = wt.centered_grid(shape, spacing=0.5 / 16, wavelength=0.5)
        f = random_potential(np.random.default_rng(5), grid, contrast)
        norm_sq = np.linalg.norm(dense_A_matrix(grid, f), 2) ** 2
        estimate = 1.0 / wt.estimate_fixed_step(f, wt.build_domain_operator(grid))
        short = self.SHORTFALL[shape, contrast]
        assert (1 - short) * norm_sq <= estimate <= (1 + 1e-12) * norm_sq


def test_objective_fd_consistency(small_setup, rng):
    # data-fidelity of forward prediction is smooth in f; spot-check one pixel
    grid, G, H, u_in = small_setup
    f = random_potential(rng, grid)
    y = random_field(rng, (len(H.sensors),))
    cfg = wt.ForwardConfig(K=3, nu=wt.estimate_fixed_step(f, G))

    def D_of(fv):
        return wt.data_fidelity(wt.forward_solve(fv, u_in, G, H, cfg).z, y)

    delta = 1e-5 * np.max(np.abs(f))
    grad = wt.gradient_from_trace(f, y, G, H, wt.forward_solve(f, u_in, G, H, cfg))
    fd = fd_gradient(D_of, f, delta)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6
