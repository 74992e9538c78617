import numpy as np
import pytest

import wavetomo as wt
from reference import dual_objective, subgradient_prox_batch
from wavetomo.errors import ConfigError


def composite_objective(f, z, tau):
    return 0.5 * float(np.sum((f - z) ** 2)) + tau * wt.tv_value(f)


class TestGradOperator:
    def test_constant_image(self):
        assert np.all(wt.grad_op(np.full((6, 5), 3.2)) == 0)

    def test_ramp_neumann_closure(self):
        g = wt.grad_op(np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 4))
        assert np.allclose(g[0, :, 1], [1, 1, 1, 0])
        assert np.all(g[..., 0] == 0)

    def test_adjoint_identity(self, rng):
        for shape in [(7, 5), (4, 4, 3)]:
            for _ in range(5):
                a = rng.standard_normal(shape)
                b = rng.standard_normal(shape + (len(shape),))
                lhs = np.sum(wt.grad_op(a) * b)
                rhs = np.sum(a * wt.grad_adjoint(b))
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestTvValue:
    def test_constant_zero(self):
        assert wt.tv_value(np.full((5, 5), 1.7)) == 0.0

    def test_single_axis_step(self):
        # each row steps by 1 along the second axis: two unit gradients
        f = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert wt.tv_value(f) == 2.0


class TestProjections:
    def test_box(self):
        box = wt.BoxConstraint(-1.0, 2.0)
        f = np.array([-5.0, 0.3, 7.0])
        got = wt.proj_box(f, box)
        assert np.allclose(got, [-1.0, 0.3, 2.0])
        assert np.allclose(wt.proj_box(got, box), got)
        assert np.allclose(wt.proj_box(np.full(4, -1e30), box), -1.0)

    def test_box_validation(self):
        with pytest.raises(ConfigError):
            wt.BoxConstraint(2.0, 1.0)

    @pytest.mark.parametrize("bounds,got", [((True, 2.0), "true"), ((0.0, False), "false"),
                                            (("0", 1.0), '"0"')])
    def test_box_rejects_non_numbers(self, bounds, got):
        # bool is a Real; the words are the config file's for recon.box
        with pytest.raises(ConfigError, match=f"expected a number, got {got}$"):
            wt.BoxConstraint(*bounds)

    def test_dual_iso(self):
        g = np.zeros((1, 1, 2))
        g[0, 0] = [3.0, 4.0]
        assert np.allclose(wt.proj_dual(g)[0, 0], [0.6, 0.8])
        small = np.full((2, 2, 2), 0.3)
        assert np.allclose(wt.proj_dual(small), small)


class TestProx:
    def test_tau_zero_is_box_projection(self, rng):
        z = rng.standard_normal((5, 5))
        box = wt.BoxConstraint(0.0, np.inf)
        f, g = wt.prox_tv(z, 0.0, box)
        assert np.allclose(f, np.clip(z, 0.0, np.inf))
        assert g.shape == (5, 5, 2) and not np.any(g)

    def test_constant_inside_box_unchanged(self):
        z = np.full((5, 5), 1.3)
        got, _ = wt.prox_tv(z, 2.0, wt.BoxConstraint(0.0, 5.0), iters=40)
        assert np.allclose(got, z, atol=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            wt.prox_tv(np.zeros((3, 3)), -0.1)

    def test_matches_subgradient_oracle(self, rng):
        # single spec-level instance; the acceptance suite runs the full set
        z = 12.0 * rng.standard_normal((5, 5))
        tau = 0.1 * 12.0
        got, _ = wt.prox_tv(z, tau, iters=2000)
        F_got = composite_objective(got, z, tau)
        F_orc = subgradient_prox_batch(z[None], tau, 150000)[0]
        assert abs(F_got - F_orc) <= 1e-8 * F_orc

    def test_duality_gap_certificate(self, rng):
        # F(f) - q(g) >= F(f) - F*; at convergence the gap vanishes
        z = rng.standard_normal((6, 6))
        tau = 0.4
        f, g = wt.prox_tv(z, tau, iters=6000)
        q = tau * np.sum(z * wt.grad_adjoint(g)) - 0.5 * np.sum(
            (tau * wt.grad_adjoint(g)) ** 2)
        gap = composite_objective(f, z, tau) - q
        assert 0 <= gap <= 1e-9 * composite_objective(f, z, tau)

    def test_nonexpansiveness(self, rng):
        box = wt.BoxConstraint(-2.0, 2.0)
        for _ in range(8):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6))
            pa, _ = wt.prox_tv(a, 0.3, box, iters=3000)
            pb, _ = wt.prox_tv(b, 0.3, box, iters=3000)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1 + 1e-10)

    def test_dual_objective_not_increased(self, rng):
        z = rng.standard_normal((7, 7))
        tau = 0.5
        box = wt.BoxConstraint(-1.0, 1.0)
        q0 = dual_objective(np.zeros((7, 7, 2)), z, tau, box)
        _, g = wt.prox_tv(z, tau, box, iters=200)
        assert dual_objective(g, z, tau, box) <= q0 + 1e-12 * abs(q0)

    def test_output_in_box(self, rng):
        box = wt.BoxConstraint(0.0, 0.5)
        z = rng.standard_normal((6, 6))
        f, _ = wt.prox_tv(z, 0.2, box, iters=15)
        assert np.array_equal(wt.proj_box(f, box), f)

    def test_translation_covariance(self, rng):
        z = rng.standard_normal((6, 6))
        base, _ = wt.prox_tv(z, 0.3, iters=4000)
        shifted, _ = wt.prox_tv(z + 5.0, 0.3, iters=4000)
        assert np.allclose(shifted, base + 5.0, atol=1e-8)

    def test_warm_start_accepted(self, rng):
        z = rng.standard_normal((5, 5))
        f1, g = wt.prox_tv(z, 0.3, iters=10)
        f2, _ = wt.prox_tv(z, 0.3, iters=10, dual_init=g)
        f_long, _ = wt.prox_tv(z, 0.3, iters=4000)
        # warm-started pass gets closer than a cold 10-iteration pass
        assert np.linalg.norm(f2 - f_long) <= np.linalg.norm(f1 - f_long)

    def test_runs_exactly_iters_steps(self, rng, monkeypatch):
        # one grad_op per FGP step; a converged warm start changes the dual
        # by almost nothing per step, and still every step runs
        z = rng.standard_normal((6, 6))
        _, g = wt.prox_tv(z, 0.3, iters=4000)
        calls = []
        real = wt.tv.grad_op
        monkeypatch.setattr(wt.tv, "grad_op", lambda f: calls.append(1) or real(f))
        wt.prox_tv(z, 0.3, iters=50, dual_init=g)
        assert len(calls) == 50
