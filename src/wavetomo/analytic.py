"""Closed-form scattering of a point source by a homogeneous cylinder (2D)
or sphere (3D).

One separation-of-variables solver serves both, with two harmonic bases:
Bessel functions J_m, Y_m with cos(m theta) for the cylinder, spherical
Bessel functions j_l, y_l with Legendre polynomials P_l(cos theta) for the
sphere.  In each order the radial factor is pieced together in three regions
(inside the object, between object and source radius, beyond the source),
and the coefficients follow from continuity at the interface plus the source
jump condition.  The object has radius ``r_sph`` and real refractive index
``n`` relative to the background; the source sits at distance ``r_s`` from
the center (on the positive x-axis in 2D, on the zenith axis in 3D).

With ``n = 1`` the whole construction collapses to the free-space Green's
function, which the tests exploit as an oracle.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceWarning, ResonanceError
from .special import (bessel_jn_all, bessel_yn_all, legendre_all,
                      spherical_jn_all, spherical_yn_all)


# highest harmonic order a scene may need: the radial tables hold one row per
# order and evaluation point, so the cutoff bounds their time and memory
_MAX_ORDER = 1000


@dataclass(frozen=True)
class AnalyticScene:
    """Geometry of the closed-form scattering problem.

    truncation: highest retained harmonic order; ``order_cutoff`` derives
    the default.  The cutoff, given or derived, must not exceed 1000.
    """

    r_sph: float
    refractive_index: float
    r_s: float
    k_b: float
    truncation: int | None = None

    def __post_init__(self):
        if not (np.inf > self.r_s > self.r_sph > 0):
            raise ConfigError("need finite source distance r_s > object radius "
                              "r_sph > 0")
        if not np.inf > self.refractive_index > 0:
            raise ConfigError("refractive index must be positive and finite")
        if not np.inf > self.k_b > 0:
            raise ConfigError("background wavenumber must be positive and finite")
        if self.truncation is not None and self.truncation < 1:
            raise ConfigError("truncation must be >= 1")
        self.order_cutoff  # raises when the cutoff exceeds the maximum

    @property
    def order_cutoff(self):
        """The truncation, or ceil(k_b * r_sph) + 30: size parameter plus margin."""
        cutoff = self.truncation or np.ceil(self.k_b * self.r_sph) + 30
        # checked as a float: int() overflows on a huge size parameter
        if not cutoff <= _MAX_ORDER:
            raise ConfigError(f"harmonic order cutoff {cutoff:.6g} exceeds the "
                              f"maximum {_MAX_ORDER}")
        return int(cutoff)


# What the cylinder's and the sphere's series do not share: the radial basis
# (jn, yn); the highest table order that orders 0..n need, and the neighbour
# order the interface conditions pair with each order; the prefactors
# (k_b, rho_sph, delta) -> (inside coefficient, annulus scale); the angular
# basis with its weights, (n, theta) -> (basis, weights).  The field is
# sum(weights * R * basis) / norm, and the series tail weighs the last two
# radial factors only when weighted_tail is set.
_Harmonics = namedtuple("_Harmonics", "jn yn table_order neighbour prefactors "
                                      "angular norm weighted_tail")

_CYLINDER = _Harmonics(
    jn=bessel_jn_all, yn=bessel_yn_all, table_order=lambda n: max(n, 1),
    neighbour=lambda tab: np.concatenate((-tab[1:2], tab[:-1])),  # J_{m-1}, J_{-1} = -J_1
    prefactors=lambda k_b, rho, delta: (-1.0 / (rho * delta), np.pi / (2.0 * delta)),
    angular=lambda n, theta: (np.cos(np.outer(np.arange(n + 1), theta)),
                              np.concatenate(([1.0], np.full(n, 2.0)))),
    norm=2.0 * np.pi, weighted_tail=False)

_SPHERE = _Harmonics(
    jn=spherical_jn_all, yn=spherical_yn_all, table_order=lambda n: n + 1,
    neighbour=lambda tab: tab[1:],  # j_{l+1}
    prefactors=lambda k_b, rho, delta: (k_b / (rho ** 2 * delta), k_b / delta),
    angular=lambda n, theta: (legendre_all(n, np.cos(theta)),
                              (2.0 * np.arange(n + 1) + 1.0) / (4.0 * np.pi)),
    norm=1.0, weighted_tail=True)


def _coeff_tables(harm, scene, nmax):
    """Inside, annulus-regular and annulus-irregular coefficients, orders 0..nmax."""
    n = scene.refractive_index
    rho_sph = scene.k_b * scene.r_sph
    top = harm.table_order(nmax)
    j_in = harm.jn(top, np.array([n * rho_sph]))[:, 0]
    j_b = harm.jn(top, np.array([rho_sph]))[:, 0]
    # the second-kind functions grow like (2 m / rho)^m past the size
    # parameter, so a truncation far above it overflows them
    with np.errstate(over="ignore", invalid="ignore"):
        y_b = harm.yn(top, np.array([rho_sph]))[:, 0]
    overflow = ~np.isfinite(y_b)
    if np.any(overflow):
        raise ResonanceError(
            f"radial functions of the second kind overflow at order "
            f"{int(np.argmax(overflow))} (truncation {nmax}, size parameter "
            f"k_b r_sph = {rho_sph:.3g}); lower the truncation")

    def minor(tab):  # j_in(m) tab(m') - n j_in(m') tab(m), m' the neighbour of m
        return (j_in[:nmax + 1] * harm.neighbour(tab)[:nmax + 1]
                - harm.neighbour(j_in)[:nmax + 1] * n * tab[:nmax + 1])

    delta = minor(j_b + 1j * y_b)
    bad = ~np.isfinite(delta) | (delta == 0)
    if np.any(bad):
        raise ResonanceError(f"degenerate radial determinant at order {int(np.argmax(bad))}")
    a, scale = harm.prefactors(scene.k_b, rho_sph, delta)
    return a, -scale * minor(y_b), scale * minor(j_b)


def _coeffs_at(harm, order, scene):
    if order > scene.order_cutoff:
        raise ConfigError(f"order {order} exceeds truncation {scene.order_cutoff}")
    return tuple(tab[order] for tab in _coeff_tables(harm, scene, order))


def radial_coeffs_2d(m, scene):
    """(a_m, b_m, c_m) of the 2D three-region radial solution; m may be signed."""
    return _coeffs_at(_CYLINDER, abs(int(m)), scene)


def radial_coeffs_3d(l, scene):
    """(A_l, B_l, C_l) of the 3D three-region radial solution."""
    l = int(l)
    if l < 0:
        raise ConfigError("order must be >= 0")
    return _coeffs_at(_SPHERE, l, scene)


def _radial(harm, scene, nmax, r, coeffs):
    """R_n(r, r_s) for n = 0..nmax at the (flat) radii r; shape (nmax+1, P)."""
    a, b, c = coeffs
    n = scene.refractive_index
    rho = scene.k_b * r
    rho_s = np.array([scene.k_b * scene.r_s])
    j_s = harm.jn(nmax, rho_s)[:, 0]
    y_s = harm.yn(nmax, rho_s)[:, 0]
    h_s = j_s + 1j * y_s

    out = np.zeros((nmax + 1, r.size), dtype=complex)
    inside = r < scene.r_sph
    annulus = (~inside) & (r < scene.r_s)
    beyond = r >= scene.r_s
    if np.any(inside):
        out[:, inside] = a[:, None] * harm.jn(nmax, n * rho[inside]) * h_s[:, None]
    if np.any(annulus):
        j_r = harm.jn(nmax, rho[annulus])
        y_r = harm.yn(nmax, rho[annulus])
        out[:, annulus] = (b[:, None] * j_r + c[:, None] * y_r) * h_s[:, None]
    if np.any(beyond):
        j_r = harm.jn(nmax, rho[beyond])
        y_r = harm.yn(nmax, rho[beyond])
        amp = b * j_s + c * y_s
        out[:, beyond] = amp[:, None] * (j_r + 1j * y_r)
    return out


# points per block of the series: the radial and angular tables hold
# (order cutoff + 1) values per point, so blocks bound their memory
_BLOCK = 2048


def _series(harm, r, theta, scene):
    """Sum the harmonic series at broadcast (r, theta); warn on a slow tail."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    r, theta = np.broadcast_arrays(r, theta)
    shape = r.shape
    r = r.ravel().copy()
    theta = theta.ravel()
    if np.any((r == scene.r_s) & (np.cos(theta) == 1.0)):
        raise ConfigError("observation point coincides with the source")
    r = np.maximum(r, 1e-9 * scene.r_sph)  # nudge exact-center evaluations
    nmax = scene.order_cutoff
    coeffs = _coeff_tables(harm, scene, nmax)
    total = np.empty(r.size, dtype=complex)
    n_bad = 0
    for lo in range(0, r.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        radial = _radial(harm, scene, nmax, r[part], coeffs)
        basis, weights = harm.angular(nmax, theta[part])
        total[part] = (weights[:, None] * radial * basis).sum(axis=0) / harm.norm

        tail_w = weights if harm.weighted_tail else np.ones_like(weights)
        tail = (np.abs(radial[-1] * tail_w[-1])
                + np.abs(radial[-2] * tail_w[-2])) / harm.norm
        mag = np.abs(total[part])
        n_bad += int(np.count_nonzero(tail > 1e-8 * np.maximum(mag, 1e-300)))
    if n_bad:
        warnings.warn(
            f"harmonic series tail above 1e-8 of the field at {n_bad} "
            f"point(s); raise truncation (currently {nmax})", ConvergenceWarning,
            stacklevel=3)
    return total.reshape(shape) if shape else complex(total[0])


def analytic_field_2d(r, theta, scene):
    """Total field of a unit line source scattered by the cylinder.

    ``r`` and ``theta`` are broadcast-compatible arrays (or scalars) of polar
    coordinates about the cylinder center, with the source at theta = 0.
    Warns with ConvergenceWarning when the series tail is not below 1e-8 of
    the running field magnitude.
    """
    return _series(_CYLINDER, r, theta, scene)


def analytic_field_3d(r, theta, scene):
    """Total field of a unit point source on the zenith axis scattered by the
    sphere, at spherical coordinates (r, zenith angle theta)."""
    return _series(_SPHERE, r, theta, scene)


def helmholtz_residual(sampler, k_sq, grid, exclude=None):
    """Max pointwise Helmholtz residual |lap E + k^2 E| / |k^2 E| on the grid.

    ``sampler`` maps physical points of shape (..., ndim) to the complex
    field; ``k_sq`` maps points to the local k^2 (scalar or array).  The
    five-point (2D) / seven-point (3D) Laplacian is formed on interior pixels;
    ``exclude`` optionally masks out pixels (e.g. a band around a source or a
    material interface) in grid shape.
    """
    pts = grid.pixel_centers()
    E = np.asarray(sampler(pts), dtype=complex)
    if E.shape != grid.shape:
        raise ConfigError("sampler did not return one value per pixel")
    ksq = np.broadcast_to(np.asarray(k_sq(pts), dtype=float), grid.shape)

    h2 = grid.spacing ** 2
    lap = np.zeros_like(E)
    interior = np.ones(grid.shape, dtype=bool)
    for d in range(grid.ndim):
        lap += (np.roll(E, 1, axis=d) + np.roll(E, -1, axis=d) - 2.0 * E) / h2
        idx_lo = tuple(0 if a == d else slice(None) for a in range(grid.ndim))
        idx_hi = tuple(-1 if a == d else slice(None) for a in range(grid.ndim))
        interior[idx_lo] = False
        interior[idx_hi] = False
    if exclude is not None:
        interior &= ~np.asarray(exclude, dtype=bool)
    if not np.any(interior):
        raise ConfigError("no interior pixels left after exclusion")
    resid = np.abs(lap + ksq * E)
    scale = np.abs(ksq * E)
    scale = np.where(scale > 0, scale, np.inf)
    return float(np.max(resid[interior] / scale[interior]))
