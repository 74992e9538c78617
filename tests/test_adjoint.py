import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import (adjoint_state_gradient_AH, apply_Sk, apply_Tk,
                       backprop_three_vector, backprop_two_term_naive,
                       dense_A_matrix, dense_domain_matrix, fd_gradient)
from wavetomo.errors import ConfigError, DimensionError
from wavetomo.greens import DomainGreensOperator


class TestDataFidelity:
    def test_values(self, rng):
        y = random_field(rng, (9,))
        assert wt.data_fidelity(y, y) == 0.0
        assert wt.data_fidelity(np.zeros(9), y) == pytest.approx(
            0.5 * float(np.vdot(y, y).real))

    def test_normalized_fit_algebra(self, rng):
        z = random_field(rng, (7,))
        y = random_field(rng, (7,))
        ratio = wt.data_fidelity(z, y) / wt.data_fidelity(np.zeros(7), y)
        expect = float(np.vdot(z - y, z - y).real / np.vdot(y, y).real)
        assert ratio == pytest.approx(expect, rel=1e-12)

    def test_sensor_count_mismatch(self, rng):
        with pytest.raises(DimensionError):
            wt.data_fidelity(np.zeros(5), np.zeros(6))


class TestBackpropOperators:
    def test_Sk_trivial(self, small_setup, rng):
        grid, G, _, _ = small_setup
        v = random_field(rng, grid.shape)
        f = random_potential(rng, grid)
        assert np.allclose(apply_Sk(f, 0.0, v, G), v)
        got = apply_Sk(np.zeros(grid.shape), 0.3, v, G)
        assert np.allclose(got, 0.7 * v)

    def test_Sk_dense_oracle(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        v = random_field(rng, grid.shape)
        A = dense_A_matrix(grid, f)
        S = np.eye(grid.size) - 0.8 * (A.conj().T @ A)
        expect = (S @ v.ravel()).reshape(grid.shape)
        got = apply_Sk(f, 0.8, v, G)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)

    def test_Tk_trivial(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        s = random_field(rng, grid.shape)
        assert np.all(apply_Tk(f, s, np.zeros(grid.shape, dtype=complex),
                               u_in, G) == 0)
        # s = u_in with f = 0 kills the residual term
        v = random_field(rng, grid.shape)
        got = apply_Tk(np.zeros(grid.shape), u_in, v, u_in, G)
        expect = np.conj(u_in) * G.apply_adjoint(v)
        assert np.allclose(got, expect)

    def test_Tk_dense_oracle(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        s = random_field(rng, grid.shape)
        v = random_field(rng, grid.shape)
        Gd = dense_domain_matrix(grid)
        A = dense_A_matrix(grid, f)
        resid = A @ s.ravel() - u_in.ravel()
        T = (np.diag(Gd.conj().T @ resid).conj().T
             + np.diag(s.ravel()).conj().T @ Gd.conj().T @ A)
        expect = (T @ v.ravel()).reshape(grid.shape)
        got = apply_Tk(f, s, v, u_in, G)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


class TestGradient:
    def test_zero_residual_gives_zero(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=6)
        z = wt.forward_solve(f, u_in, G, H, cfg).z
        grad = wt.gradient_from_trace(f, z, G, H, wt.forward_solve(f, u_in, G, H, cfg))
        assert np.all(grad == 0)

    def test_f_zero_closed_form(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        y = random_field(rng, (len(H.sensors),))
        cfg = wt.ForwardConfig(K=4)
        f = np.zeros(grid.shape)
        grad = wt.gradient_from_trace(f, y, G, H, wt.forward_solve(f, u_in, G, H, cfg))
        expect = -np.real(np.conj(u_in) * H.apply_adjoint(y))
        assert np.allclose(grad, expect, rtol=1e-12, atol=1e-14)
        assert grad.dtype.kind == "f"

    @pytest.mark.parametrize("K", [1, 5])
    def test_fixed_step_fd_match(self, small_setup, rng, K):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        y *= np.mean(np.abs(wt.forward_solve(f, u_in, G, H,
                                             wt.ForwardConfig(K=K)).z))
        cfg = wt.ForwardConfig(K=K, nu=wt.estimate_fixed_step(f, G))
        grad = wt.gradient_from_trace(f, y, G, H, wt.forward_solve(f, u_in, G, H, cfg))

        def D_of(fv):
            return wt.data_fidelity(wt.forward_solve(fv, u_in, G, H, cfg).z, y)

        fd = fd_gradient(D_of, f, 1e-5 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6

    def test_linearity_in_residual(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=5)
        trace = wt.forward_solve(f, u_in, G, H, cfg)
        y1 = random_field(rng, (len(H.sensors),))
        # y2 doubles the residual z - y at the same trace
        y2 = trace.z - 2.0 * (trace.z - y1)
        g1 = wt.gradient_from_trace(f, y1, G, H, trace)
        g2 = wt.gradient_from_trace(f, y2, G, H, trace)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-12)

    def test_matches_three_vector_form(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        for K in (1, 2, 6):
            cfg = wt.ForwardConfig(K=K)
            trace = wt.forward_solve(f, u_in, G, H, cfg)
            got = wt.gradient_from_trace(f, y, G, H, trace)
            expect = backprop_three_vector(f, y, u_in, G, H, trace)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-13)

    def test_K1_boundary_case(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        cfg = wt.ForwardConfig(K=1, nu=wt.estimate_fixed_step(f, G))
        grad = wt.gradient_from_trace(f, y, G, H, wt.forward_solve(f, u_in, G, H, cfg))

        def D_of(fv):
            return wt.data_fidelity(wt.forward_solve(fv, u_in, G, H, cfg).z, y)

        fd = fd_gradient(D_of, f, 1e-5 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6


@pytest.fixture
def one_tx(small_grid):
    """small_setup's scene as a one-transmitter problem; its own y is unused."""
    sensors = wt.ring_sensors(12, radius=0.45)
    tx = wt.Transmitter("point", position=(0.5, 0.05))
    mset = wt.MeasurementSet(transmitters=[tx], receivers=sensors,
                             active_indices=[np.arange(12)], y=[np.zeros(12)])
    return wt.ScatteringProblem(mset, small_grid)


def loop_config(**kw):
    return wt.ReconConfig(forward=wt.ForwardConfig(**kw))


class TestAdjointStateGradient:
    """The loop's gradient, ``total_gradient`` on one transmitter:
    A u = u_in and A x = conj(H^H r) by BiCGStab."""

    def test_fd_match_with_tight_solves(self, one_tx, rng):
        f = random_potential(rng, one_tx.grid)
        y = random_field(rng, (12,))
        cfg = loop_config(K=200, delta_tol_rel=1e-26)
        grad, _ = wt.total_gradient(f, one_tx, cfg, [y])

        def D_of(fv):
            return wt.total_gradient(fv, one_tx, cfg, [y])[1]

        # central differences of D on solved fields: 1.6e-7 measured, the
        # differences' own truncation error
        fd = fd_gradient(D_of, f, 1e-5 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6

    def test_agrees_with_unrolled_as_tolerances_shrink(self, one_tx, rng):
        # both gradients tend to the gradient of D on the exact field
        f = random_potential(rng, one_tx.grid)
        y = random_field(rng, (12,))
        gaps = []
        for tol in (1e-6, 1e-14, 1e-26):
            cfg = loop_config(K=2000, delta_tol_rel=tol)
            adjoint_state, _ = wt.total_gradient(f, one_tx, cfg, [y])
            G, H = one_tx.G, one_tx.H[0]
            unrolled = wt.gradient_from_trace(
                f, y, G, H, wt.forward_solve(f, one_tx.u_in[0], G, H, cfg.forward))
            gaps.append(np.linalg.norm(adjoint_state - unrolled) / np.linalg.norm(unrolled))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-11

    def test_agrees_with_A_H_form(self, one_tx, rng):
        # reciprocity: w = f conj(x) solves A^H w = f H^H r, so the two forms
        # differ only by their solves' residuals
        f = random_potential(rng, one_tx.grid)
        y = random_field(rng, (12,))
        cfg = loop_config(K=200, delta_tol_rel=1e-26)
        got, _ = wt.total_gradient(f, one_tx, cfg, [y])
        expect = adjoint_state_gradient_AH(f, y, one_tx.u_in[0], one_tx.G, one_tx.H[0],
                                           cfg.forward)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)

    def test_f_zero_closed_form(self, one_tx, rng):
        y = random_field(rng, (12,))
        grad, D = wt.total_gradient(np.zeros(one_tx.grid.shape), one_tx,
                                    loop_config(K=4), [y])
        # A = I, so u = u_in and x = conj(H^H r) with r = -y: each solve
        # returns after its initial residual
        u_in, H = one_tx.u_in[0], one_tx.H[0]
        assert np.array_equal(grad, np.real(np.conj(u_in) * H.apply_adjoint(-y)))
        assert D == wt.data_fidelity(np.zeros_like(y), y)

    def test_zero_residual_gives_zero(self, one_tx, rng):
        # the data are the loop's own prediction: R sums its pixel blocks'
        # products, so H.apply(f * u), one product, differs in the last bits
        f = random_potential(rng, one_tx.grid)
        cfg = loop_config(K=6)
        grad, D = wt.total_gradient(f, one_tx, cfg, wt.predict_all(f, one_tx, cfg))
        assert np.all(grad == 0) and D == 0.0


FUSED_CASES = {
    "adaptive": dict(K=12),
    "fixed": dict(K=12, nu=wt.estimate_fixed_step),
    "K_eff 1": dict(K=1),
}


def _forward_config(case, f, G):
    kw = dict(FUSED_CASES[case])
    if "nu" in kw:
        kw["nu"] = kw["nu"](f, G)
    return wt.ForwardConfig(**kw)


class TestFusedBackward:
    """The fused backward pass against the unfused S^k / T^k recursion."""

    @pytest.mark.parametrize("case", list(FUSED_CASES))
    def test_bit_identical_to_naive_recursion(self, small_setup, rng, case):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid, contrast=0.3)
        y = random_field(rng, (len(H.sensors),))
        cfg = _forward_config(case, f, G)
        trace = wt.forward_solve(f, u_in, G, H, cfg)
        assert trace.K_effective == FUSED_CASES[case]["K"]
        got = wt.gradient_from_trace(f, y, G, H, trace)
        expect = backprop_two_term_naive(f, y, u_in, G, H, trace)
        if cfg.nu is None and trace.K_effective > 1:
            # the trace's residuals come from the carried A s^k, the oracle's
            # from a direct A s^k: they agree to round-off, not bit for bit
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        else:
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("case", list(FUSED_CASES))
    def test_G_apply_count(self, small_setup, rng, monkeypatch, case):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid, contrast=0.3)
        y = random_field(rng, (len(H.sensors),))
        cfg = _forward_config(case, f, G)
        calls = []
        apply = DomainGreensOperator.apply

        def counted(self, v):
            calls.append(1)
            return apply(self, v)

        monkeypatch.setattr(DomainGreensOperator, "apply", counted)
        trace = wt.forward_solve(f, u_in, G, H, cfg)
        forward_calls = len(calls)
        wt.gradient_from_trace(f, y, G, H, trace)
        K = trace.K_effective
        # the adaptive step applies A to g, and to s^k only at k = 1: later
        # A s^k are extrapolated from the carried A u^k
        assert forward_calls == (2 * K if cfg.nu is not None else 2 * K + 1)
        assert len(calls) - forward_calls == 2 * K
        del calls[:]
        assert wt.forward_solve(f, u_in, G, None, cfg).K_effective == K
        assert len(calls) == forward_calls

    def test_trace_without_H_is_rejected(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=3))
        # an H-free trace keeps the final field and nothing to differentiate
        assert trace.K_effective == 3 and trace.u_hat.shape == grid.shape
        assert trace.steps is None and trace.z is None
        trace.validate()
        with pytest.raises(DimensionError, match="without a sensor operator"):
            wt.gradient_from_trace(f, np.zeros(len(H.sensors)), G, H, trace)

    def test_residual_history_length_checked(self, small_setup, rng):
        # a trace missing a step record used to end in an IndexError inside
        # the backward loop; the gradient checks the trace it reads
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3))
        assert len(trace.steps) == trace.K_effective == 3
        trace.steps.pop()
        with pytest.raises(ConfigError, match="^trace step records disagree with K_effective$"):
            wt.gradient_from_trace(f, np.zeros(len(H.sensors)), G, H, trace)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, np.nan])
    def test_nonpositive_step_rejected(self, small_setup, rng, gamma):
        # a negative step used to be differentiated silently
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3))
        s_k, _, mu_k, GHr_k = trace.steps[1]
        trace.steps[1] = (s_k, gamma, mu_k, GHr_k)
        with pytest.raises(ConfigError, match="^trace contains a nonpositive step size$"):
            wt.gradient_from_trace(f, np.zeros(len(H.sensors)), G, H, trace)
