import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import (backprop_three_vector, backprop_two_term_naive,
                       backprop_unrolled_plain, dense_A_matrix,
                       dense_domain_matrix, fd_gradient)
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
        assert np.allclose(wt.apply_Sk(f, 0.0, v, G), v)
        got = wt.apply_Sk(np.zeros(grid.shape), 0.3, v, G)
        assert np.allclose(got, 0.7 * v)

    def test_Sk_dense_oracle(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        v = random_field(rng, grid.shape)
        A = dense_A_matrix(grid, f)
        S = np.eye(grid.size) - 0.8 * (A.conj().T @ A)
        expect = (S @ v.ravel()).reshape(grid.shape)
        got = wt.apply_Sk(f, 0.8, v, G)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)

    def test_Tk_trivial(self, small_setup, rng):
        grid, G, _, u_in = small_setup
        f = random_potential(rng, grid)
        s = random_field(rng, grid.shape)
        assert np.all(wt.apply_Tk(f, s, np.zeros(grid.shape, dtype=complex),
                                  u_in, G) == 0)
        # s = u_in with f = 0 kills the residual term
        v = random_field(rng, grid.shape)
        got = wt.apply_Tk(np.zeros(grid.shape), u_in, v, u_in, G)
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
        got = wt.apply_Tk(f, s, v, u_in, G)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


class TestGradient:
    def test_zero_residual_gives_zero(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        cfg = wt.ForwardConfig(K=6)
        z = wt.forward_solve(f, u_in, G, H, cfg).z
        grad = wt.gradient_data_fidelity(f, z, u_in, G, H, cfg)
        assert np.all(grad == 0)

    def test_f_zero_closed_form(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        y = random_field(rng, (len(H.sensors),))
        cfg = wt.ForwardConfig(K=4)
        grad = wt.gradient_data_fidelity(np.zeros(grid.shape), y, u_in, G, H, cfg)
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
        cfg = wt.ForwardConfig(K=K, step_mode="fixed",
                               nu=wt.estimate_fixed_step(f, G))
        grad = wt.gradient_data_fidelity(f, y, u_in, G, H, cfg)

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

    def test_zero_momentum_matches_unrolled_chain_rule(self, rng):
        grid = wt.centered_grid((6, 6), spacing=0.5 / 16, wavelength=0.5)
        G = wt.build_domain_operator(grid)
        sensors = wt.ring_sensors(9, radius=0.35)
        H = wt.build_sensor_operator(grid, sensors)
        u_in = wt.Transmitter("point", position=(0.4, 0.03)).field_on_grid(grid)
        f = random_potential(rng, grid)
        y = random_field(rng, (9,))
        cfg = wt.ForwardConfig(K=7, momentum=False)
        trace = wt.forward_solve(f, u_in, G, H, cfg)
        got = wt.gradient_from_trace(f, y, G, H, trace)
        expect = backprop_unrolled_plain(f, y, u_in, G, H, trace)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-13)

    def test_K1_boundary_case(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        y = random_field(rng, (len(H.sensors),))
        cfg = wt.ForwardConfig(K=1, step_mode="fixed",
                               nu=wt.estimate_fixed_step(f, G))
        grad = wt.gradient_data_fidelity(f, y, u_in, G, H, cfg)

        def D_of(fv):
            return wt.data_fidelity(wt.forward_solve(fv, u_in, G, H, cfg).z, y)

        fd = fd_gradient(D_of, f, 1e-5 * np.max(np.abs(f)))
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-6


FUSED_CASES = {
    "adaptive": dict(K=12),
    "fixed": dict(K=12, step_mode="fixed"),
    "no momentum": dict(K=12, momentum=False),
    "K_eff 1": dict(K=1),
}


def _forward_config(case, f, G):
    kw = dict(FUSED_CASES[case])
    if kw.get("step_mode") == "fixed":
        kw["nu"] = wt.estimate_fixed_step(f, G)
    return wt.ForwardConfig(**kw)


class TestFusedBackward:
    """The fused backward pass against the unfused S^k / T^k recursion."""

    @pytest.mark.parametrize("case", list(FUSED_CASES))
    def test_bit_identical_to_naive_recursion(self, small_setup, rng, case):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid, contrast=0.3)
        y = random_field(rng, (len(H.sensors),))
        trace = wt.forward_solve(f, u_in, G, H, _forward_config(case, f, G))
        assert trace.K_effective == FUSED_CASES[case]["K"]
        got = wt.gradient_from_trace(f, y, G, H, trace)
        assert np.array_equal(got, backprop_two_term_naive(f, y, u_in, G, H, trace))

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
        # the adaptive step costs one more apply (A g) per iteration
        assert forward_calls == (2 if cfg.step_mode == "fixed" else 3) * K
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
        assert all(h is None for h in (trace.s_history, trace.gamma_history,
                                       trace.mu_history, trace.GHr_history, trace.z))
        trace.validate()
        with pytest.raises(DimensionError, match="without a sensor operator"):
            wt.gradient_from_trace(f, np.zeros(len(H.sensors)), G, H, trace)

    def test_residual_history_length_checked(self, small_setup, rng):
        grid, G, H, u_in = small_setup
        f = random_potential(rng, grid)
        trace = wt.forward_solve(f, u_in, G, H, wt.ForwardConfig(K=3))
        assert len(trace.GHr_history) == trace.K_effective == 3
        trace.GHr_history.pop()
        with pytest.raises(ConfigError):
            trace.validate()
