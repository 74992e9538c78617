import numpy as np
import pytest

import wavetomo as wt
from reference import dense_A_matrix, dense_domain_matrix, full_grid_cylinders
from wavetomo.analytic import helmholtz_residual
from wavetomo.errors import ConfigError, ConvergenceWarning, ResonanceError
from wavetomo.special import (bessel_jn_all, bessel_yn_all, spherical_jn_all,
                              spherical_yn_all)

WL = 0.0749
KB = 2 * np.pi / WL


def scene_2d(n=np.sqrt(1.2), r_sph=3 * WL, r_s=1.0, truncation=None):
    return wt.AnalyticScene(r_sph=r_sph, refractive_index=n, r_s=r_s, k_b=KB,
                            truncation=truncation)


def _one_sided_slope_jump(R, r_s, h):
    """Second-order one-sided derivatives extrapolated to r_s from each side."""
    d_out = (-2.5 * R(r_s + h) + 4.0 * R(r_s + 2 * h) - 1.5 * R(r_s + 3 * h)) / h
    d_in = (2.5 * R(r_s - h) - 4.0 * R(r_s - 2 * h) + 1.5 * R(r_s - 3 * h)) / h
    return d_out - d_in


# name -> (call, error, message): each rejection of analytic.py; a refractive
# index of 1e-6 underflows J_m(n k_b r_sph) to zero from order 44 on, and the
# CLI reaches it as `analytic --index 1e-6 --truncation 50`
ANALYTIC_REJECTIONS = {
    "truncation below 1": (
        lambda: scene_2d(truncation=0), ConfigError, "truncation must be >= 1"),
    "degenerate determinant": (
        lambda: wt.analytic_field_2d(3.0, 0.3, wt.AnalyticScene(
            r_sph=1.0, refractive_index=1e-6, r_s=2.0, k_b=1.0, truncation=50)),
        ResonanceError, "degenerate radial determinant at order 44"),
    "sampler of the wrong shape": (
        lambda: helmholtz_residual(lambda pts: np.ones(3), lambda pts: 1.0,
                                   wt.centered_grid((6, 6), spacing=0.1, wavelength=1.0)),
        ConfigError, "sampler did not return one value per pixel"),
    "every pixel excluded": (
        lambda: helmholtz_residual(lambda pts: np.ones(pts.shape[:-1]), lambda pts: 1.0,
                                   wt.centered_grid((6, 6), spacing=0.1, wavelength=1.0),
                                   exclude=np.ones((6, 6), dtype=bool)),
        ConfigError, "no interior pixels left after exclusion"),
}


@pytest.mark.parametrize("case", list(ANALYTIC_REJECTIONS))
def test_rejections(case):
    call, error, message = ANALYTIC_REJECTIONS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestCoefficients2D:
    def test_free_space_reduction(self, rng):
        scene = scene_2d(n=1.0, r_sph=WL, truncation=90)
        r = rng.uniform(0.02, 0.4, 40)
        th = rng.uniform(-np.pi, np.pi, 40)
        E = wt.analytic_field_2d(r, th, scene)
        disp = np.stack([r * np.cos(th) - scene.r_s, r * np.sin(th)], axis=-1)
        g = wt.green_2d(disp, KB)
        assert np.max(np.abs(E - g) / np.abs(g)) <= 1e-9

    def test_order_symmetry(self):
        scene = scene_2d()
        for m in (1, 4, 11):
            assert wt.radial_coeffs_2d(m, scene) == wt.radial_coeffs_2d(-m, scene)

    def test_interface_continuity(self):
        scene = scene_2d()
        rho = KB * scene.r_sph
        n = scene.refractive_index
        mmax = 25
        j_in = bessel_jn_all(mmax, np.array([n * rho]))[:, 0]
        j_b = bessel_jn_all(mmax, np.array([rho]))[:, 0]
        y_b = bessel_yn_all(mmax, np.array([rho]))[:, 0]
        for m in range(mmax + 1):
            a, b, c = wt.radial_coeffs_2d(m, scene)
            lhs = a * j_in[m]
            rhs = b * j_b[m] + c * y_b[m]
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @pytest.mark.parametrize("field, value", [
        ("k_b", np.inf), ("r_sph", np.nan), ("r_s", np.inf),
        ("refractive_index", np.inf), ("truncation", 1001), ("k_b", 1e300)])
    def test_scene_rejects_non_finite_and_huge_orders(self, field, value):
        # 1000 is the highest harmonic order a scene may need
        kwargs = dict(r_sph=3 * WL, refractive_index=1.1, r_s=1.0, k_b=KB)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            wt.AnalyticScene(**kwargs)

    def test_scene_accepts_the_maximum_order(self):
        scene = wt.AnalyticScene(r_sph=3 * WL, refractive_index=1.1, r_s=1.0, k_b=KB,
                                 truncation=1000)
        assert scene.order_cutoff == 1000

    @pytest.mark.parametrize("coeffs", [wt.radial_coeffs_2d, wt.radial_coeffs_3d])
    def test_overflowing_determinant_raises(self, coeffs):
        # a size parameter k_b r_sph of 1e-3 far below the truncation: Y_m and
        # y_l overflow at order 66, and the error says so with no numpy
        # RuntimeWarning first (tier-1 turns warnings into errors)
        scene = wt.AnalyticScene(r_sph=1e-3, refractive_index=1.5, r_s=1.0, k_b=1.0,
                                 truncation=200)
        with pytest.raises(ResonanceError, match=r"second kind overflow at order 66 "
                                                 r"\(truncation 200, size parameter "
                                                 r"k_b r_sph = 0\.001\)"):
            coeffs(200, scene)

    def test_truncation_out_of_range(self):
        scene = scene_2d(truncation=5)
        with pytest.raises(ConfigError):
            wt.radial_coeffs_2d(9, scene)


class TestField2D:
    def test_continuity_across_source_radius(self):
        # the 2e-6 r_s radial gap itself moves the field by ~ k_b r_s * 2e-6,
        # so the 1e-4 agreement needs a moderate size parameter
        scene = wt.AnalyticScene(r_sph=0.1, refractive_index=np.sqrt(1.2),
                                 r_s=0.3, k_b=KB, truncation=80)
        th = np.array([0.4, 1.2, 3.0])
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore", ConvergenceWarning)  # slow tail at r ~ r_s
            below = wt.analytic_field_2d(np.full(3, scene.r_s * (1 - 1e-6)), th, scene)
            above = wt.analytic_field_2d(np.full(3, scene.r_s * (1 + 1e-6)), th, scene)
        assert np.max(np.abs(below - above) / np.abs(below)) <= 1e-4

    def test_derivative_continuity_at_interface(self):
        scene = scene_2d()
        eps = 1e-7 * scene.r_sph
        th = 0.9
        d_in = (wt.analytic_field_2d(scene.r_sph - eps, th, scene)
                - wt.analytic_field_2d(scene.r_sph - 3 * eps, th, scene)) / (2 * eps)
        d_out = (wt.analytic_field_2d(scene.r_sph + 3 * eps, th, scene)
                 - wt.analytic_field_2d(scene.r_sph + eps, th, scene)) / (2 * eps)
        assert abs(d_in - d_out) / abs(d_in) <= 1e-4

    def test_source_jump_condition_2d(self):
        # the radial factor of each order jumps in slope by -1/r_s at the source
        scene = scene_2d(truncation=60)
        for m in (0, 3):
            _, b, c = wt.radial_coeffs_2d(m, scene)
            rho_s = KB * scene.r_s

            def R(r):
                rho = KB * r
                jr = bessel_jn_all(max(m, 1), np.array([rho]))[m, 0]
                yr = bessel_yn_all(max(m, 1), np.array([rho]))[m, 0]
                js = bessel_jn_all(max(m, 1), np.array([rho_s]))[m, 0]
                ys = bessel_yn_all(max(m, 1), np.array([rho_s]))[m, 0]
                if r < scene.r_s:
                    return (b * jr + c * yr) * (js + 1j * ys)
                return (b * js + c * ys) * (jr + 1j * yr)

            jump = _one_sided_slope_jump(R, scene.r_s, 2e-6 * scene.r_s)
            assert jump == pytest.approx(-1.0 / scene.r_s, rel=1e-6)

    def test_reciprocity(self):
        scene = scene_2d(truncation=95)
        r_obs, th_obs = 0.5, 1.1
        forward = wt.analytic_field_2d(r_obs, th_obs, scene)
        swapped_scene = wt.AnalyticScene(r_sph=scene.r_sph,
                                         refractive_index=scene.refractive_index,
                                         r_s=r_obs, k_b=KB, truncation=95)
        backward = wt.analytic_field_2d(scene.r_s, -th_obs, swapped_scene)
        assert abs(forward - backward) / abs(forward) <= 1e-8

    @pytest.mark.filterwarnings("ignore::wavetomo.errors.ConvergenceWarning")
    def test_truncation_doubling_stable(self):
        # the default cutoff targets object-scale observation radii; the tail
        # flag is conservative near field nulls, which the doubling check covers
        scene = scene_2d()
        r = np.linspace(0.02, 1.5 * scene.r_sph, 25)
        th = np.linspace(-np.pi, np.pi, 25)
        base = wt.analytic_field_2d(r, th, scene)
        doubled = wt.analytic_field_2d(
            r, th, scene_2d(truncation=2 * scene.order_cutoff))
        assert np.max(np.abs(base - doubled) / np.abs(doubled)) <= 1e-8

    def test_convergence_warning_fires(self):
        scene = scene_2d(truncation=6)
        with pytest.warns(ConvergenceWarning):
            wt.analytic_field_2d(0.9, 2.0, scene)

    def test_finite_at_center(self):
        scene = scene_2d()
        val = wt.analytic_field_2d(0.0, 0.0, scene)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_source_point_rejected(self):
        scene = scene_2d()
        with pytest.raises(ConfigError):
            wt.analytic_field_2d(scene.r_s, 0.0, scene)

    def test_forward_model_error_decreases_with_K(self):
        # 6-wavelength cylinder, source 1 m away, wavelength 74.9 mm
        from wavetomo.simulate import forward_error_vs_analytic

        grid = wt.centered_grid((128, 128), spacing=9 * WL / 128, wavelength=WL)
        scene = scene_2d(n=np.sqrt(1.1), r_sph=3 * WL, truncation=80)
        res = forward_error_vs_analytic(grid, scene, [2, 8, 32, 64], (1.0, 0.0))
        err = res["error"]
        assert all(err[i + 1] < err[i] for i in range(len(err) - 1))

    def test_forward_errors_against_dense_fields_off_the_x_axis(self):
        # a source at 2 rad rotates the closed form's frame; the errors are
        # those of the dense solve and of u_in + G (u_in f) with the dense G,
        # each against the closed form in that frame.  The expansion stops
        # near the solve (6e-10 relative at K = 40); a rotation the wrong
        # way, or a Born field with -G, misses by orders of magnitude
        from wavetomo.metrics import normalized_error
        from wavetomo.simulate import forward_error_vs_analytic

        grid = wt.centered_grid((24, 24), spacing=WL / 16, wavelength=WL)
        scene = scene_2d(n=np.sqrt(1.1), r_sph=0.5 * WL, truncation=40)
        source = np.array([np.cos(2.0), np.sin(2.0)])
        res = forward_error_vs_analytic(grid, scene, [40], source)
        pts = grid.pixel_centers()
        u_true = wt.analytic_field_2d(np.linalg.norm(pts, axis=-1),
                                      np.arctan2(pts[..., 1], pts[..., 0]) - 2.0, scene)
        f = full_grid_cylinders(grid, [((0.0, 0.0), scene.r_sph, 0.1)], supersample=8).ravel()
        u_in = wt.green_2d(pts - source, KB).ravel()
        u_born = u_in + dense_domain_matrix(grid) @ (u_in * f)
        u = np.linalg.solve(dense_A_matrix(grid, f.reshape(grid.shape)), u_in)
        assert res["born_error"] == pytest.approx(
            normalized_error(u_born.reshape(grid.shape), u_true), rel=1e-9)
        assert res["error"][0] == pytest.approx(
            normalized_error(u.reshape(grid.shape), u_true), rel=1e-6)

    def test_forward_error_needs_the_scene_source(self):
        from wavetomo.simulate import forward_error_vs_analytic

        grid = wt.centered_grid((8, 8), spacing=WL / 8, wavelength=WL)
        with pytest.raises(ConfigError, match="^source distance does not match scene.r_s$"):
            forward_error_vs_analytic(grid, scene_2d(), [2], (0.9, 0.0))


class TestField3D:
    def test_free_space_reduction(self, rng):
        scene = wt.AnalyticScene(r_sph=WL, refractive_index=1.0, r_s=1.0,
                                 k_b=KB, truncation=90)
        r = rng.uniform(0.02, 0.4, 30)
        th = rng.uniform(0.0, np.pi, 30)
        E = wt.analytic_field_3d(r, th, scene)
        disp = np.stack([r * np.sin(th), np.zeros_like(r),
                         r * np.cos(th) - scene.r_s], axis=-1)
        g = wt.green_3d(disp, KB)
        assert np.max(np.abs(E - g) / np.abs(g)) <= 1e-9

    def test_source_jump_condition_3d(self):
        scene = wt.AnalyticScene(r_sph=3 * WL, refractive_index=np.sqrt(1.2),
                                 r_s=1.0, k_b=KB, truncation=60)
        for l in (0, 2):
            _, B, C = wt.radial_coeffs_3d(l, scene)
            rho_s = KB * scene.r_s

            def R(r):
                rho = KB * r
                jr = spherical_jn_all(l, np.array([rho]))[l, 0]
                yr = spherical_yn_all(l, np.array([rho]))[l, 0]
                js = spherical_jn_all(l, np.array([rho_s]))[l, 0]
                ys = spherical_yn_all(l, np.array([rho_s]))[l, 0]
                if r < scene.r_s:
                    return (B * jr + C * yr) * (js + 1j * ys)
                return (B * js + C * ys) * (jr + 1j * yr)

            jump = _one_sided_slope_jump(R, scene.r_s, 2e-6 * scene.r_s)
            assert jump == pytest.approx(-1.0 / scene.r_s ** 2, rel=1e-6)

    def test_reciprocity_3d(self):
        scene = wt.AnalyticScene(r_sph=2 * WL, refractive_index=1.15, r_s=0.8,
                                 k_b=KB, truncation=80)
        r_obs, th_obs = 0.5, 0.7
        forward = wt.analytic_field_3d(r_obs, th_obs, scene)
        swapped = wt.AnalyticScene(r_sph=scene.r_sph, refractive_index=1.15,
                                   r_s=r_obs, k_b=KB, truncation=80)
        backward = wt.analytic_field_3d(scene.r_s, th_obs, swapped)
        assert abs(forward - backward) / abs(forward) <= 1e-8

    def test_forward_model_matches_sphere_solution(self):
        # 3D closure: expansion field vs closed-form sphere at 10% contrast
        from wavetomo.phantoms import cylinders as render_balls

        wl = 0.5
        n = 16
        grid = wt.DomainGrid((n, n, n), wl / 8, (-(n - 1) * wl / 16,) * 3, wl)
        scene = wt.AnalyticScene(r_sph=0.4 * wl, refractive_index=np.sqrt(1.1),
                                 r_s=4 * wl, k_b=grid.k_b, truncation=40)
        f = render_balls(grid, [((0.0, 0.0, 0.0), scene.r_sph, 0.1)],
                         supersample=4)
        G = wt.build_domain_operator(grid)
        tx = wt.Transmitter("point", position=(0.0, 0.0, scene.r_s))
        u_in = tx.field_on_grid(grid)
        u_hat = wt.forward_solve(f, u_in, G, None, wt.ForwardConfig(K=60)).u_hat
        pts = grid.pixel_centers()
        r = np.linalg.norm(pts, axis=-1)
        th = np.arccos(np.clip(pts[..., 2] / np.maximum(r, 1e-300), -1, 1))
        u_true = wt.analytic_field_3d(r, th, scene)
        assert wt.normalized_error(u_hat, u_true) <= 1e-4

    def test_outgoing_far_field_phase(self):
        scene = wt.AnalyticScene(r_sph=WL, refractive_index=1.2, r_s=0.5,
                                 k_b=KB, truncation=100)
        r = 5.0
        dr = 1e-4
        e1 = wt.analytic_field_3d(r, 2.0, scene)
        e2 = wt.analytic_field_3d(r + dr, 2.0, scene)
        # outgoing wave: phase advances like exp(+j k_b r) up to O(1/r) terms
        assert np.angle(e2 / e1) == pytest.approx(KB * dr, rel=5e-2)
        assert np.angle(e2 / e1) > 0


# Values recorded from the separate cylinder and sphere solvers that the
# shared series solver replaced.  The points lie inside the object
# (r = 0, 0.1, 0.25), in the annulus (0.4, 0.5) and beyond the source
# (1.4, 2.0); the orders run up to the truncation.
FROZEN_R = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 1.4, 2.0])
FROZEN_THETA = np.array([0.0, 0.3, 2.5, 1.2, 1.9, 0.7, 3.0])
FROZEN_FIELD_2D = [
    (0.013619601079614218-0.06413899065105902j),
    (-0.05743838833843926-0.028613237719869924j),
    (0.0056346218791725146+0.059253189953807586j),
    (-0.042614231288405593-0.04387522410953747j),
    (-0.01414979665960363+0.04699851029732166j),
    (0.05829618771217316+0.0008874586529333707j),
    (0.011639058553415522-0.04063030642948432j),
]
FROZEN_FIELD_3D = [
    (-0.04639950523357071-0.10190588831923982j),
    (-0.11516706078942805+0.017695200666785472j),
    (0.04460454037160741+0.09239572514980147j),
    (-0.09560994118909094-0.0019433257930732283j),
    (0.031164041207296347+0.06238422159021947j),
    (0.06200276594195435-0.05726049816484548j),
    (-0.025805963391256695-0.0378207330324253j),
]
FROZEN_COEFFS_2D = {
    0: ((-0.6056272946024936+1.5220860363001005j),
        (-0.5395826935564143+1.3561001801123793j),
        (0.21469614668251719-0.5395826935564144j)),
    1: ((-0.4838424464906957+1.4286215314518866j),
        (-0.47725183581643377+1.4091617085633459j),
        (0.1616346182315508-0.47725183581643377j)),
    5: ((-0.006587784898925736+1.190686129803621j),
        (-0.008690578736088911+1.57074824387705j),
        (4.808291784668232e-05-0.00869057873608891j)),
    60: ((-3.431126704228602e-135+0.00669625005054204j),
         (-8.048685731701276e-133+1.5707963267948966j),
         (4.124108320260313e-265-8.048685731701276e-133j)),
}
FROZEN_COEFFS_3D = {
    0: ((-6.969759990107077+12.30927791726392j),
        (-5.387932222876675+9.515615347574064j),
        (3.050755266785108-5.387932222876674j)),
    1: ((-6.58407915687014+10.63688841771651j),
        (-5.623713988560066+9.085373484164007j),
        (3.4809971301951665-5.623713988560067j)),
    5: ((-0.02372256185607399+8.03205906872258j),
        (-0.037114256913886624+12.56626099797714j),
        (0.00010961638203215099-0.03711425691388663j)),
    60: ((-7.436718517758963e-137+0.0029212867606741534j),
         (-3.19902045587817e-133+12.566370614359172j),
         (8.143745072609294e-267-3.1990204558781696e-133j)),
}


def frozen_scene(n):
    return wt.AnalyticScene(r_sph=0.3, refractive_index=n, r_s=0.8,
                            k_b=2 * np.pi / 0.5, truncation=60)


class TestFrozenValues:
    def test_field_2d(self):
        got = wt.analytic_field_2d(FROZEN_R, FROZEN_THETA, frozen_scene(np.sqrt(1.2)))
        np.testing.assert_allclose(got, FROZEN_FIELD_2D, rtol=1e-13, atol=0)

    def test_field_3d(self):
        got = wt.analytic_field_3d(FROZEN_R, FROZEN_THETA, frozen_scene(1.15))
        np.testing.assert_allclose(got, FROZEN_FIELD_3D, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m", list(FROZEN_COEFFS_2D))
    def test_coeffs_2d(self, m):
        got = wt.radial_coeffs_2d(m, frozen_scene(np.sqrt(1.2)))
        np.testing.assert_allclose(got, FROZEN_COEFFS_2D[m], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("l", list(FROZEN_COEFFS_3D))
    def test_coeffs_3d(self, l):
        got = wt.radial_coeffs_3d(l, frozen_scene(1.15))
        np.testing.assert_allclose(got, FROZEN_COEFFS_3D[l], rtol=1e-13, atol=0)

    def test_3d_order_checks(self):
        scene = frozen_scene(1.15)
        with pytest.raises(ConfigError, match="order must be >= 0"):
            wt.radial_coeffs_3d(-1, scene)
        with pytest.raises(ConfigError, match="order 61 exceeds truncation 60"):
            wt.radial_coeffs_3d(61, scene)


class TestHelmholtzResidual:
    def test_constant_field_zero_k(self):
        grid = wt.centered_grid((8, 8), spacing=0.01, wavelength=1.0)
        res = helmholtz_residual(lambda pts: np.ones(pts.shape[:-1], dtype=complex),
                                 lambda pts: np.zeros(pts.shape[:-1]), grid)
        assert res == 0.0

    def test_inside_cylinder_second_order(self):
        scene = scene_2d(n=np.sqrt(1.2), r_sph=6 * WL)
        k_in_sq = (scene.refractive_index * KB) ** 2

        def sampler(pts):
            r = np.linalg.norm(pts, axis=-1)
            th = np.arctan2(pts[..., 1], pts[..., 0])
            return wt.analytic_field_2d(r, th, scene)

        def run(spacing, n):
            grid = wt.DomainGrid((n, n), spacing, (-0.5 * spacing * (n - 1),) * 2, WL)
            return helmholtz_residual(sampler, lambda pts: k_in_sq, grid)

        r1 = run(WL / 24, 16)
        r2 = run(WL / 48, 32)
        assert r2 <= r1 / 3.0
