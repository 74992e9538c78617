import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import dense_A_matrix, fd_gradient
from wavetomo import adjoint, recon
from wavetomo.errors import ConfigError, TransformError
from wavetomo.greens import (DomainGreensOperator, MaskedSensorOperator,
                             build_sensor_operator)
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


def masked_problem(rng, n=12, slots=12):
    """Three transmitters that record different receiver slots; none records slot 0.

    Each measurement is the incident field at its receiver times a factor
    within 0.3 of 1, so the Rytov transform of y + u_in unwraps cleanly.
    """
    grid = wt.centered_grid((n, n), spacing=0.5 / 16, wavelength=0.5)
    ring = wt.ring_sensors(slots, radius=0.4)
    tx = [wt.Transmitter("point", position=(0.45 * np.cos(a), 0.45 * np.sin(a)))
          for a in (0.3, 2.4, 4.5)]
    active = [np.arange(1, slots), np.arange(2, slots, 3), np.array([1, 4, 5, 11])]
    y = [t.field_at(ring.positions[ix], grid.k_b) * 0.2
         * (rng.uniform(-1, 1, ix.size) + 1j * rng.uniform(-1, 1, ix.size))
         for t, ix in zip(tx, active)]
    return grid, wt.MeasurementSet(transmitters=tx, receivers=ring,
                                   active_indices=active, y=y)


def rel_err(got, expect):
    return np.linalg.norm(got - expect) / np.linalg.norm(expect)


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

    def test_transmitter_without_receivers_rejected(self, rng):
        # it used to be accepted and fail later, building the sensor operator
        _, mset = tiny_problem(rng)
        with pytest.raises(ConfigError, match="^transmitter 1: no receivers$"):
            wt.MeasurementSet(transmitters=mset.transmitters, receivers=mset.receivers,
                              active_indices=[np.arange(10), []], y=[mset.y[0], []])

    def test_subsample_that_empties_a_transmitter_rejected(self, rng):
        # subsampling keeps positions 1, 1 + factor, ...: none of one receiver
        _, mset = tiny_problem(rng)
        one = wt.MeasurementSet(transmitters=mset.transmitters, receivers=mset.receivers,
                                active_indices=[np.arange(10), [3]],
                                y=[mset.y[0], mset.y[1][:1]])
        with pytest.raises(ConfigError,
                           match="^subsampling by 2 leaves transmitter 1 no receivers$"):
            one.subsample(2)


class TestTransmitter:
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.0])
    def test_plane_direction_extreme_scale(self, scale):
        # a finite direction normalizes without overflow or underflow
        tx = wt.Transmitter("plane", direction=(scale, scale))
        assert np.allclose(tx.direction, (np.sqrt(0.5), np.sqrt(0.5)), rtol=1e-15)

    @pytest.mark.parametrize("direction", [
        (0.0, 0.0), (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)])
    def test_plane_direction_rejected(self, direction):
        with pytest.raises(ConfigError, match="direction"):
            wt.Transmitter("plane", direction=direction)


class TestTotalGradient:
    def test_zero_residual(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        mset.y[:] = wt.predict_all(f, problem, cfg)
        grad, _ = wt.total_gradient(f, problem, cfg)
        assert np.allclose(grad, 0.0)

    def test_single_tx_matches_module(self, rng):
        grid, mset = tiny_problem(rng, n_tx=1)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=5), tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        got, D = wt.total_gradient(f, problem, cfg)
        expect, D_expect = wt.adjoint_state_gradient(
            f, mset.y[0], problem.u_in[0], problem.G, problem.H[0], cfg.forward)
        assert np.array_equal(got, expect)
        assert D == D_expect

    def test_duplicate_tx_doubles(self, rng):
        grid, mset1 = tiny_problem(rng, n_tx=1)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=5), tau_rel=0.0)
        mset2 = wt.MeasurementSet(
            transmitters=mset1.transmitters * 2,
            receivers=mset1.receivers,
            active_indices=mset1.active_indices * 2,
            y=mset1.y * 2)
        f = random_potential(rng, grid)
        g1, _ = wt.total_gradient(f, ScatteringProblem(mset1, grid), cfg)
        g2, _ = wt.total_gradient(f, ScatteringProblem(mset2, grid), cfg)
        assert np.allclose(g2, 2.0 * g1)

    def test_G_apply_budget(self, rng, monkeypatch):
        # per transmitter, a gradient costs exactly the applies its u and x
        # BiCGStab solves report and applies no G^H, and a prediction repeats
        # the u solve and costs nothing more; at f = 0, A = I and each solve
        # stops after its initial residual, so a gradient costs two applies.
        # An extra apply per solve fails here
        grid, mset = tiny_problem(rng, n=16)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=60, delta_tol_rel=5e-7),
                             tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        calls, adjoint_calls, solves = [], [], []
        apply, apply_adjoint, krylov = (
            DomainGreensOperator.apply, DomainGreensOperator.apply_adjoint,
            adjoint.bicgstab)

        def counted(self, v):
            calls.append(1)
            return apply(self, v)

        def counted_adjoint(self, v):
            adjoint_calls.append(1)
            return apply_adjoint(self, v)

        def recorded_krylov(op, b, x0, tol, maxiter):
            before = len(calls)
            x, applies = krylov(op, b, x0, tol, maxiter)
            assert len(calls) - before == applies
            solves.append(applies)
            return x, applies

        monkeypatch.setattr(DomainGreensOperator, "apply", counted)
        monkeypatch.setattr(DomainGreensOperator, "apply_adjoint", counted_adjoint)
        monkeypatch.setattr(adjoint, "bicgstab", recorded_krylov)
        wt.total_gradient(f, problem, cfg)
        gradient_calls = len(calls)
        # u and x for each of the two transmitters
        assert len(solves) == 4 and min(solves) > 1
        assert gradient_calls == sum(solves)
        wt.predict_all(f, problem, cfg)
        # the two u solves again
        assert solves[4:] == solves[0:4:2]
        assert len(calls) - gradient_calls == sum(solves[4:])
        assert adjoint_calls == []
        del calls[:], solves[:]
        wt.total_gradient(np.zeros(grid.shape), problem, cfg)
        assert solves == [1, 1, 1, 1] and len(calls) == 4
        assert adjoint_calls == []

    def test_predict_all_equals_direct_solve(self, rng):
        # predict_all's fields solve A u = u_in to the loop's residual
        # sqrt(2 delta_tol_rel) = 1e-3, so z = H(f u) is within about that
        # of the prediction from a dense direct solve
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20, delta_tol_rel=5e-7),
                             tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        A = dense_A_matrix(grid, f)
        for z, u_in, H in zip(wt.predict_all(f, problem, cfg), problem.u_in, problem.H):
            u = np.linalg.solve(A, u_in.ravel()).reshape(grid.shape)
            assert rel_err(z, H.apply(f * u)) <= 1e-3

    @staticmethod
    def D_gap(rng, delta_tol_rel):
        grid, mset = tiny_problem(rng, n_tx=3)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=200, delta_tol_rel=delta_tol_rel),
                             tau_rel=0.0)
        problem = ScatteringProblem(mset, grid)
        f = random_potential(rng, grid)
        _, D = wt.total_gradient(f, problem, cfg)
        z = wt.predict_all(f, problem, cfg)
        D_pred = sum(wt.data_fidelity(zt, yt) for zt, yt in zip(z, mset.y))
        return abs(D - D_pred) / D_pred

    def test_returned_D_matches_prediction(self, rng):
        # the gradient and predict_all take z from one u solve, so the D
        # the gradient returns is the D of the prediction, bit for bit
        assert self.D_gap(rng, 1e-3) == 0.0

    def test_returned_D_converges_to_prediction(self, rng):
        assert self.D_gap(rng, 1e-20) <= 1e-9


class TestLinearModel:
    """The Born and Rytov loop's two-GEMM model against ``born_gradient`` and
    ``born_predict`` applied one transmitter at a time."""

    @pytest.mark.parametrize("model", ["born", "rytov"])
    def test_batched_matches_per_transmitter_sums(self, rng, model):
        grid, mset = masked_problem(rng)
        problem = ScatteringProblem(mset, grid)
        data = mset.y
        if model == "rytov":
            data = [wt.rytov_transform(y + u, u)
                    for y, u in zip(mset.y, problem.u_in_sensors)]
        f = random_potential(rng, grid)
        parts = [wt.born_gradient(f, y, u, h)
                 for y, u, h in zip(data, problem.u_in, problem.H)]
        grad, D = recon._linear_gradient(f, problem, data)
        assert rel_err(grad, np.sum([g for g, _ in parts], axis=0)) <= 1e-13
        assert abs(D - sum(d for _, d in parts)) <= 1e-13 * D
        z = recon._linear_predict(f, problem)
        for zt, u, h in zip(z, problem.u_in, problem.H):
            assert rel_err(zt, wt.born_predict(f, u, h)) <= 1e-13


class TestRecordedRows:
    """H is built only for the receiver slots some transmitter recorded."""

    def test_subsampled_set_builds_the_union(self, rng):
        grid, mset = masked_problem(rng)
        sub = mset.subsample(2)
        problem = ScatteringProblem(sub, grid)
        recorded = np.unique(np.concatenate(sub.active_indices))
        assert problem._H_ring.matrix.shape[0] == recorded.size < len(sub.receivers)
        # the same problem with every transmitter masked out of the whole ring
        ring_H = build_sensor_operator(grid, sub.receivers)
        ref = ScatteringProblem(sub, grid)
        ref.H = [MaskedSensorOperator(ring_H, ix) for ix in sub.active_indices]
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=20, delta_tol_rel=1e-3))
        f = random_potential(rng, grid)
        for got, expect in zip(wt.predict_all(f, problem, cfg),
                               wt.predict_all(f, ref, cfg)):
            assert rel_err(got, expect) <= 1e-13
        grad, D = wt.total_gradient(f, problem, cfg)
        grad_ref, D_ref = wt.total_gradient(f, ref, cfg)
        assert rel_err(grad, grad_ref) <= 1e-13
        assert abs(D - D_ref) <= 1e-13 * D_ref

    def test_all_recorded_keeps_the_ring_matrix(self, rng):
        grid, mset = tiny_problem(rng)
        problem = ScatteringProblem(mset, grid)
        ring_H = build_sensor_operator(grid, mset.receivers)
        assert np.array_equal(problem._H_ring.matrix, ring_H.matrix)


class TestFista:
    def test_null_measurements_give_zero_image(self, rng):
        grid, mset = tiny_problem(rng)
        mset.y[:] = [np.zeros(10, dtype=complex) for _ in mset.y]
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=4), tau_rel=1.5e-9,
                             fista_iters=1)
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
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=-1.0)
        with pytest.raises(ConfigError):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("fista_iters", 1.5), ("tv_iters", 2.0)])
    def test_loop_config_validation(self, field, value):
        # rejected at construction, not at the first prox or range() call
        with pytest.raises(ConfigError, match=field):
            wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1.0, **{field: value})


class TestMonitoring:
    """The loop's data fit costs one H-free prediction per reconstruction;
    the step search at f = 0 makes predictions of its own."""

    @staticmethod
    def count_calls(monkeypatch, name):
        """Count the calls of ``recon.<name>`` made outside the step search."""
        calls = []
        searching = []
        fn = getattr(recon, name)
        backtrack = recon._backtrack_step

        def counted(*args):
            if not searching:
                calls.append(1)
            return fn(*args)

        def backtrack_step(*args):
            searching.append(1)
            try:
                return backtrack(*args)
            finally:
                searching.pop()

        monkeypatch.setattr(recon, name, counted)
        monkeypatch.setattr(recon, "_backtrack_step", backtrack_step)
        return calls

    @staticmethod
    def final_fit(rep, mset, grid, cfg):
        problem = ScatteringProblem(mset, grid)
        z = wt.predict_all(rep.f_hat, problem, cfg)
        D = sum(wt.data_fidelity(zt, yt) for zt, yt in zip(z, mset.y))
        return 2.0 * D / mset.y_norm_sq()

    @pytest.mark.parametrize("iters", [1, 4])
    def test_one_prediction_with_fixed_step(self, rng, monkeypatch, iters):
        # the step the search at f = 0 finds stays fixed for every iteration
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=iters)
        calls = self.count_calls(monkeypatch, "predict_all")
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert len(calls) == 1
        assert len(rep.data_fit_history) == iters

    def test_one_linear_prediction_with_fixed_step(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=4)
        calls = self.count_calls(monkeypatch, "_linear_predict")
        wt.fista_reconstruct(mset, grid, cfg, model="born")
        assert len(calls) == 1

    def test_last_entry_is_fit_at_f_hat(self, rng):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=4)
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert rep.data_fit_history[-1] == self.final_fit(rep, mset, grid, cfg)
        # entry 1 is at f~_1 = 0, where z = 0 fits ||y||^2 exactly
        assert rep.data_fit_history[0] == 1.0

    def test_backtracking_gradient_is_iteration_one(self, rng, monkeypatch):
        # the step search's gradient at f = 0 is reused, not recomputed
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=3)
        calls = self.count_calls(monkeypatch, "total_gradient")
        wt.fista_reconstruct(mset, grid, cfg)
        assert len(calls) == 3

    def test_early_stop_keeps_one_entry_per_iteration(self, rng, monkeypatch):
        grid, mset = tiny_problem(rng)
        cfg = wt.ReconConfig(forward=wt.ForwardConfig(K=3), tau_rel=1e-10,
                             fista_iters=6)
        # any step below 10x the iterate's norm stops the loop at iteration 2
        monkeypatch.setattr(recon, "STOP_REL_CHANGE", 10.0)
        calls = self.count_calls(monkeypatch, "predict_all")
        rep = wt.fista_reconstruct(mset, grid, cfg)
        assert len(rep.data_fit_history) == len(rep.iter_seconds) == 2
        assert len(calls) == 1
        assert rep.data_fit_history[-1] == self.final_fit(rep, mset, grid, cfg)


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
        grad, _ = wt.born_gradient(f, y, u_in, H)

        def D_of(fv):
            return wt.data_fidelity(wt.born_predict(fv, u_in, H), y)

        # D is exactly quadratic in f, so central differences carry no
        # truncation error; a large step just suppresses roundoff
        fd = fd_gradient(D_of, f, 1e-2 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-8

    def test_born_gradient_returns_D(self, small_setup, rng):
        grid, _, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        _, D = wt.born_gradient(f, y, u_in, H)
        assert D == wt.data_fidelity(wt.born_predict(f, u_in, H), y)

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
