import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import fd_gradient
from wavetomo.errors import ConfigError, TransformError
from wavetomo.recon import ScatteringProblem


def tiny_problem(rng, n_tx=2, n=8, wl=0.5):
    grid = wt.centered_grid((n, n), spacing=wl / 16, wavelength=wl)
    ring = wt.ring_sensors(10, radius=0.4)
    tx = [wt.Transmitter("point", position=(0.45 * np.cos(a), 0.45 * np.sin(a)))
          for a in np.linspace(0, 2 * np.pi, n_tx, endpoint=False)]
    y = [random_field(rng, (10,)) for _ in tx]
    mset = wt.MeasurementSet(transmitters=tx, receivers=ring,
                             active_indices=[np.arange(10)] * n_tx, y=y)
    return grid, mset


class TestMeasurementSet:
    def test_length_validation(self, rng):
        grid, mset = tiny_problem(rng)
        with pytest.raises(ConfigError):
            wt.MeasurementSet(transmitters=mset.transmitters,
                              receivers=mset.receivers,
                              active_indices=mset.active_indices[:1],
                              y=mset.y)

    def test_subsample_nesting(self, rng):
        _, mset = tiny_problem(rng, n_tx=1)
        s2 = mset.subsample(2)
        s4 = mset.subsample(4)
        assert set(s4.active_indices[0]) <= set(s2.active_indices[0])
        with pytest.raises(ConfigError):
            mset.subsample(3)


class TestTotalGradient:
    def test_zero_residual(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        mset.y[:] = wt.predict_all(f, problem, cfg)
        assert np.allclose(wt.total_gradient(f, problem, cfg), 0.0)

    def test_single_tx_matches_module(self, rng):
        grid, mset = tiny_problem(rng, n_tx=1)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=5), tau=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        got = wt.total_gradient(f, problem, cfg)
        expect = wt.gradient_data_fidelity(f, mset.y[0], problem.u_in[0],
                                           problem.G, problem.H[0], cfg.forward)
        assert np.array_equal(got, expect)

    def test_duplicate_tx_doubles(self, rng):
        grid, mset1 = tiny_problem(rng, n_tx=1)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=5), tau=0.0)
        mset2 = wt.MeasurementSet(
            transmitters=mset1.transmitters * 2,
            receivers=mset1.receivers,
            active_indices=mset1.active_indices * 2,
            y=mset1.y * 2)
        f = random_potential(rng, grid)
        g1 = wt.total_gradient(f, ScatteringProblem(mset1, grid), cfg)
        g2 = wt.total_gradient(f, ScatteringProblem(mset2, grid), cfg)
        assert np.allclose(g2, 2.0 * g1)

    def test_predict_all_equals_differentiable_solve(self, rng):
        # predict_all solves without H and applies H afterwards: same z
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20, delta_tol_rel=1e-3),
                             tau=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        expect = [wt.forward_solve(f, u_in, problem.G, H, cfg.forward).z
                  for u_in, H in zip(problem.u_in, problem.H)]
        got = wt.predict_all(f, problem, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    def test_workers_give_same_sum(self, rng):
        grid, mset = tiny_problem(rng, n_tx=3)
        f = random_potential(rng, grid)
        cfg1 = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau=0.0, workers=1)
        cfg2 = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau=0.0, workers=3)
        p = ScatteringProblem(mset, grid)
        assert np.array_equal(wt.total_gradient(f, p, cfg1),
                              wt.total_gradient(f, p, cfg2))


class TestFista:
    def test_null_measurements_give_zero_image(self, rng):
        grid, mset = tiny_problem(rng)
        mset.y[:] = [np.zeros(10, dtype=complex) for _ in mset.y]
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau_rel=1.5e-9,
                             fista_iters=1, step_gamma=1.0)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert np.all(rep.f_hat == 0.0)
        assert rep.data_fit_history == [0.0]

    def test_deterministic_replay(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=3)
        r1 = wt.fista_reconstruct(mset, grid, cfg)
        r2 = wt.fista_reconstruct(mset, grid, cfg)
        assert np.array_equal(r1.f_hat, r2.f_hat)
        assert r1.data_fit_history == r2.data_fit_history

    def test_iterates_stay_in_box(self, rng):
        grid, mset = tiny_problem(rng)
        box = wt.BoxConstraint(0.0, 0.5 * grid.k_b ** 2)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=4, box=box)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert np.all(rep.f_hat >= box.a) and np.all(rep.f_hat <= box.b)

    def test_data_fit_decreases_on_synthetic(self, rng):
        grid, mset = tiny_problem(rng)
        f_true = wt.cylinders(grid, [((0.0, 0.0), 0.08, 0.15)])
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=30), tau_rel=1e-10,
                             fista_iters=8)
        problem = ScatteringProblem(mset, grid)
        mset.y[:] = wt.predict_all(f_true, problem, cfg)
        rep = wt.fista_reconstruct(mset, grid, cfg, ground_truth=f_true)
        assert rep.data_fit_history[-1] < 1.0
        assert rep.recon_error_history[-1] < 1.0

    def test_tau_config_validation(self):
        with pytest.raises(ConfigError):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3))
        with pytest.raises(ConfigError):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau=1.0, tau_rel=1.0)

    @pytest.mark.parametrize("field, value", [
        ("tv_variant", "foo"), ("fista_iters", 1.5), ("tv_iters", 2.0)])
    def test_loop_config_validation(self, field, value):
        # rejected at construction, not at the first prox or range() call
        with pytest.raises(ConfigError, match=field):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau=1.0, **{field: value})


class TestLinearBaselines:
    def test_born_trivial(self, small_setup, rng):
        grid, _, H, u_in = small_setup
        assert np.all(wt.born_predict(np.zeros(grid.shape), u_in, H) == 0)
        f = random_potential(rng, grid)
        assert np.allclose(wt.born_predict(2 * f, u_in, H),
                           2 * wt.born_predict(f, u_in, H))

    def test_born_gradient_fd(self, small_setup, rng):
        grid, _, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        grad = wt.born_gradient(f, y, u_in, H)

        def D_of(fv):
            return wt.data_fidelity(wt.born_predict(fv, u_in, H), y)

        # D is exactly quadratic in f, so central differences carry no
        # truncation error; a large step just suppresses roundoff
        fd = fd_gradient(D_of, f, 1e-2 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-8

    def test_rytov_trivial(self, rng):
        u_in = random_field(rng, (12,))
        assert np.allclose(wt.rytov_transform(u_in, u_in), 0.0)
        phi = 1e-3
        got = wt.rytov_transform(u_in * np.exp(1j * phi), u_in)
        assert np.allclose(got, 1j * phi * u_in, rtol=1e-6)

    def test_rytov_zero_incident_rejected(self, rng):
        u_in = random_field(rng, (5,))
        u_in[2] = 0.0
        with pytest.raises(TransformError):
            wt.rytov_transform(u_in + 1.0, u_in)

    def test_rytov_matches_born_weak_scattering(self):
        # 1% contrast cylinder: complex-log data ~ Born prediction of true f
        wl = 0.5
        grid = wt.centered_grid((24, 24), spacing=wl / 16, wavelength=wl)
        f = wt.cylinders(grid, [((0.0, 0.0), 0.18, 0.01)])
        G = wt.build_domain_operator(grid)
        ring = wt.ring_sensors(24, radius=1.1)
        H = wt.build_sensor_operator(grid, ring)
        tx = wt.Transmitter("point", position=(1.2, 0.0))
        u_in = tx.field_on_grid(grid)
        z = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=60)).z
        u_in_sens = tx.field_at(ring.positions, grid.k_b)
        y_rytov = wt.rytov_transform(z + u_in_sens, u_in_sens)
        z_born = wt.born_predict(f, u_in, H)
        rel = np.linalg.norm(y_rytov - z_born) / np.linalg.norm(z_born)
        assert rel <= 0.05
