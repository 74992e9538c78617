import numpy as np
import pytest

import wavetomo as wt
from conftest import random_field, random_potential
from reference import (dense_A_matrix, dense_domain_matrix, mp_j, mp_y,
                       padded_fft_apply)
from wavetomo.analytic import helmholtz_residual
from wavetomo.errors import ConfigError, DimensionError, SingularityError


def adjoint_gap(apply_fn, adjoint_fn, x, y):
    lhs = np.vdot(y, apply_fn(x))
    rhs = np.vdot(adjoint_fn(y), x)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


class TestPointGreens:
    def test_green_2d_unit_argument(self):
        # (j/4) H0^(1)(1) with J0(1), Y0(1) from the arbitrary-precision oracle
        val = wt.green_2d(np.array([1.0, 0.0]), k_b=1.0)
        expect = 0.25j * (mp_j(0, 1.0) + 1j * mp_y(0, 1.0))
        assert val == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.25j * (0.7651976866 + 1j * 0.0882569642),
                                       rel=1e-9)

    def test_green_2d_asymptotic_decay(self):
        # |g| ~ r^(-1/2): fit the log-slope over a decade
        r = np.logspace(2.0, 3.0, 24)
        disp = np.stack([r, np.zeros_like(r)], axis=-1)
        mags = np.abs(wt.green_2d(disp, k_b=1.0))
        slope = np.polyfit(np.log(r), np.log(mags), 1)[0]
        assert slope == pytest.approx(-0.5, abs=1e-3)

    def test_green_2d_singularity(self):
        with pytest.raises(SingularityError):
            wt.green_2d(np.zeros(2), k_b=5.0)

    def test_green_3d_values(self):
        assert wt.green_3d(np.array([1.0, 0, 0]), k_b=0.0) == pytest.approx(
            1.0 / (4 * np.pi))
        assert wt.green_3d(np.array([1.0, 0, 0]), k_b=np.pi) == pytest.approx(
            -1.0 / (4 * np.pi))
        one = wt.green_3d(np.array([0.7, 0, 0]), k_b=2.0)
        two = wt.green_3d(np.array([1.4, 0, 0]), k_b=2.0)
        assert abs(two) == pytest.approx(0.5 * abs(one), rel=1e-12)
        with pytest.raises(SingularityError):
            wt.green_3d(np.zeros(3), k_b=1.0)


class TestDomainOperator:
    def test_zero_maps_to_zero(self, small_setup):
        _, G, _, _ = small_setup
        out = G.apply(np.zeros(G.grid.shape, dtype=complex))
        assert np.all(out == 0)

    def test_adjoint_identity(self, rng):
        grid = wt.centered_grid((16, 16), spacing=0.03, wavelength=0.4)
        G = wt.build_domain_operator(grid)
        for _ in range(10):
            x = random_field(rng, grid.shape)
            y = random_field(rng, grid.shape)
            assert adjoint_gap(G.apply, G.apply_adjoint, x, y) <= 1e-12

    def test_linearity(self, small_setup, rng):
        _, G, _, _ = small_setup
        x = random_field(rng, G.grid.shape)
        y = random_field(rng, G.grid.shape)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = G.apply(a * x + b * y)
        rhs = a * G.apply(x) + b * G.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_impulse_gives_weighted_green(self):
        grid = wt.centered_grid((12, 12), spacing=0.05, wavelength=0.5)
        G = wt.build_domain_operator(grid)
        v = np.zeros(grid.shape)
        v[6, 6] = 1.0
        out = G.apply(v)
        pts = grid.pixel_centers()
        src = pts[6, 6]
        for ij in [(0, 0), (2, 9), (11, 3), (6, 7)]:
            expect = wt.green_2d(pts[ij] - src, grid.k_b) * grid.pixel_volume
            assert out[ij] == pytest.approx(expect, rel=1e-12)

    def test_fft_matches_direct_sum(self, rng):
        for shape in [(9, 7), (16, 16)]:
            grid = wt.centered_grid(shape, spacing=0.04, wavelength=0.45)
            G = wt.build_domain_operator(grid)
            dense = dense_domain_matrix(grid)
            v = random_field(rng, grid.shape)
            got = G.apply(v)
            expect = (dense @ v.ravel()).reshape(grid.shape)
            assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_fft_matches_direct_sum_3d(self, rng):
        grid = wt.DomainGrid((5, 4, 4), 0.05, (-0.1, -0.075, -0.075), 0.4)
        G = wt.build_domain_operator(grid)
        dense = dense_domain_matrix(grid)
        v = random_field(rng, grid.shape)
        got = G.apply(v)
        expect = (dense @ v.ravel()).reshape(grid.shape)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    @staticmethod
    def fft_grid_operator(shape):
        origin = tuple(-0.02 * n for n in shape)
        return wt.build_domain_operator(wt.DomainGrid(shape, 0.04, origin, 0.45))

    @pytest.mark.parametrize("shape", [(9, 7), (16, 16), (5, 4, 4), (7, 9, 6)])
    def test_bit_identical_to_padded_fftn(self, rng, shape):
        # per-axis transforms that skip zero lines and crop as they go feed
        # every kept line the inputs fftn gives it over the reversed axes
        G = self.fft_grid_operator(shape)
        for v in (random_field(rng, shape), rng.standard_normal(shape)):
            before = v.copy()
            got = G.apply(v)
            assert got.shape == shape
            assert np.array_equal(v, before)
            assert np.array_equal(got, padded_fft_apply(G, v))
            assert np.array_equal(G.apply_adjoint(v),
                                  np.conj(padded_fft_apply(G, np.conj(v))))
            assert np.array_equal(v, before)

    @pytest.mark.parametrize("shape", [(9, 7), (16, 16), (5, 4, 4), (7, 9, 6), (32, 32, 32)])
    def test_close_to_default_order_fftn(self, rng, shape):
        # the axis order of the forward passes changes only round-off
        G = self.fft_grid_operator(shape)
        v = random_field(rng, shape)
        expect = padded_fft_apply(G, v, axes_order=range(len(shape)))
        assert np.max(np.abs(G.apply(v) - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_forward_passes_run_first_axis_first(self, rng, monkeypatch):
        # pocketfft gathers strided lines one at a time, so the largest
        # forward pass has to run on the contiguous last axis
        shape = (5, 4, 3)
        n0, n1, n2 = shape
        G = self.fft_grid_operator(shape)
        passes = []
        for name in ("fft", "ifft"):
            def record(a, *args, _name=name, _fn=getattr(np.fft, name), **kw):
                passes.append((_name, kw["axis"], a.shape))
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np.fft, name, record)
        G.apply(random_field(rng, shape))
        assert passes == [
            ("fft", 0, (n0, n1, n2)),
            ("fft", 1, (2 * n0, n1, n2)),
            ("fft", 2, (2 * n0, 2 * n1, n2)),
            ("ifft", 2, (2 * n0, 2 * n1, 2 * n2)),
            ("ifft", 1, (2 * n0, 2 * n1, n2)),
            ("ifft", 0, (2 * n0, n1, n2)),
        ]

    def test_too_small_grid_rejected(self):
        grid = wt.centered_grid((1, 8), spacing=0.05, wavelength=0.5)
        with pytest.raises(ConfigError):
            wt.build_domain_operator(grid)


class TestSensorOperator:
    def test_zero_field(self, small_setup):
        _, _, H, _ = small_setup
        assert np.all(H.apply(np.zeros(H.grid.shape, dtype=complex)) == 0)

    def test_single_pixel_single_sensor(self):
        grid = wt.centered_grid((6, 6), spacing=0.05, wavelength=0.5)
        sensors = wt.SensorSet(np.array([[0.9, -0.2]]))
        H = wt.build_sensor_operator(grid, sensors)
        v = np.zeros(grid.shape)
        v[2, 3] = 1.0
        expect = wt.green_2d(sensors.positions[0] - grid.pixel_centers()[2, 3],
                             grid.k_b) * grid.pixel_volume
        assert H.apply(v)[0] == pytest.approx(expect, rel=1e-12)

    def test_adjoint_identity(self, small_setup, rng):
        _, _, H, _ = small_setup
        for _ in range(10):
            x = random_field(rng, H.grid.shape)
            y = random_field(rng, (len(H.sensors),))
            assert adjoint_gap(H.apply, H.apply_adjoint, x, y) <= 1e-12

    def test_sensor_on_pixel_center_rejected(self):
        grid = wt.centered_grid((6, 6), spacing=0.05, wavelength=0.5)
        center = grid.pixel_centers()[3, 3]
        with pytest.warns(UserWarning):
            with pytest.raises(SingularityError):
                wt.build_sensor_operator(grid, wt.SensorSet(center[None, :]))

    def test_sensor_inside_domain_warns(self):
        grid = wt.centered_grid((6, 6), spacing=0.05, wavelength=0.5)
        inside = grid.pixel_centers()[3, 3] + 0.4 * grid.spacing
        with pytest.warns(UserWarning, match="inside"):
            wt.build_sensor_operator(grid, wt.SensorSet(inside[None, :]))

    def test_masked_operator(self, small_setup, rng):
        _, _, H, _ = small_setup
        mask = np.array([0, 3, 7])
        Hm = wt.MaskedSensorOperator(H, mask)
        x = random_field(rng, H.grid.shape)
        assert np.allclose(Hm.apply(x), H.apply(x)[mask])
        y = random_field(rng, (3,))
        assert adjoint_gap(Hm.apply, Hm.apply_adjoint, x, y) <= 1e-12

    def test_no_unread_attributes(self):
        # ``kind`` and the masked operator's ``len`` had no reader
        for cls in (wt.DomainGreensOperator, wt.SensorGreensOperator,
                    wt.MaskedSensorOperator):
            assert not hasattr(cls, "kind")
        assert not hasattr(wt.MaskedSensorOperator, "__len__")

    def test_adjoint_equals_conjugate_transpose_product(self, small_setup, rng):
        # the adjoint forms (y^H M)^H without copying M^H; same numbers
        _, _, H, _ = small_setup
        for y in (random_field(rng, (len(H.sensors),)),
                  rng.standard_normal(len(H.sensors))):
            expect = (H.matrix.conj().T @ y).reshape(H.grid.shape)
            assert np.array_equal(H.apply_adjoint(y), expect)


class TestScatteringOperator:
    def test_identity_when_f_zero(self, small_setup, rng):
        grid, G, _, _ = small_setup
        u = random_field(rng, grid.shape)
        assert np.allclose(wt.apply_A(np.zeros(grid.shape), u, G), u)
        assert np.allclose(wt.apply_AH(np.zeros(grid.shape), u, G), u)

    def test_zero_field(self, small_setup):
        grid, G, _, _ = small_setup
        f = np.ones(grid.shape)
        assert np.all(wt.apply_A(f, np.zeros(grid.shape, dtype=complex), G) == 0)

    def test_dense_oracle(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        u = random_field(rng, grid.shape)
        A = dense_A_matrix(grid, f)
        got = wt.apply_A(f, u, G)
        expect = (A @ u.ravel()).reshape(grid.shape)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)
        gotH = wt.apply_AH(f, u, G)
        expectH = (A.conj().T @ u.ravel()).reshape(grid.shape)
        assert np.linalg.norm(gotH - expectH) <= 1e-11 * np.linalg.norm(expectH)

    def test_adjoint_identity(self, small_setup, rng):
        grid, G, _, _ = small_setup
        f = random_potential(rng, grid)
        for _ in range(10):
            u = random_field(rng, grid.shape)
            v = random_field(rng, grid.shape)
            gap = adjoint_gap(lambda w: wt.apply_A(f, w, G),
                              lambda w: wt.apply_AH(f, w, G), u, v)
            assert gap <= 1e-12

    def test_shape_mismatch(self, small_setup):
        grid, G, _, _ = small_setup
        with pytest.raises(DimensionError):
            wt.apply_A(np.zeros((3, 3)), np.zeros(grid.shape), G)


class TestHelmholtzConsistency:
    def test_sampled_green_second_order_residual(self):
        # residual of the discrete Laplacian on the sampled 2D Green's field
        # decays second order under spacing halving (patch away from source)
        k_b = 2 * np.pi / 0.5
        src = np.array([-0.9, -0.85])

        def run(spacing, n):
            grid = wt.DomainGrid((n, n), spacing, (0.3, 0.3), 0.5)
            sampler = lambda pts: wt.green_2d(pts - src, k_b)
            return helmholtz_residual(sampler, lambda pts: k_b ** 2, grid)

        r1 = run(0.02, 12)
        r2 = run(0.01, 24)
        assert r2 <= r1 / 3.0  # second order would give /4

    def test_exclusion_band_around_interior_source(self):
        # with the source inside the patch, excluding a band around it (3
        # coarse pixels, held at fixed physical radius across the halving so
        # the retained region is identical) restores second-order decay
        k_b = 2 * np.pi / 0.5
        band = 3 * 0.01

        def run(spacing, n):
            grid = wt.DomainGrid((n, n), spacing,
                                 (-0.5 * spacing * (n - 1),) * 2, 0.5)
            src = np.array([0.31 * spacing, 0.17 * spacing])
            sampler = lambda pts: wt.green_2d(pts - src, k_b)
            dist = np.linalg.norm(grid.pixel_centers() - src, axis=-1)
            return helmholtz_residual(sampler, lambda pts: k_b ** 2, grid,
                                      exclude=dist <= band)

        r1 = run(0.01, 20)
        r2 = run(0.005, 40)
        assert r2 <= r1 / 3.0

    def test_sampled_green_3d_second_order_residual(self):
        k_b = 2 * np.pi / 0.5
        src = np.array([-0.8, -0.8, -0.7])

        def run(spacing, n):
            grid = wt.DomainGrid((n, n, n), spacing, (0.3, 0.3, 0.3), 0.5)
            sampler = lambda pts: wt.green_3d(pts - src, k_b)
            return helmholtz_residual(sampler, lambda pts: k_b ** 2, grid)

        r1 = run(0.02, 8)
        r2 = run(0.01, 16)
        assert r2 <= r1 / 3.0
