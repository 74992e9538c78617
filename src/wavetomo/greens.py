"""Outgoing-wave Green's functions and their discretized grid operators.

The domain-to-domain operator G applies the convolution with the Helmholtz
Green's function over the pixel grid.  It is realized as a circulant embedding
on a grid of doubled extent per axis, so one apply costs a forward and an
inverse FFT of the padded grid instead of a dense N x N product (which would
not fit in memory for production grid sizes).  The transforms run one axis at
a time, skip the lines that are all zero and crop each axis as soon as it is
inverse-transformed, so no padded buffer is zero-filled.  The forward passes
run first axis first, so the largest one runs on the contiguous last axis;
the result matches the padded fftn over the reversed axes bit for bit, and
the default-order fftn to round-off.  The domain-to-sensor operator H is a
small dense M x N matrix, built by ``green_matrix``: in 2D, the rows of
points well outside the grid come from Graf's addition theorem as one real
GEMM, and the rest from direct Hankel evaluations.

Discretization convention (used consistently package-wide): off-center kernel
entries are midpoint samples of g times the pixel area/volume; the zero-offset
entry is the analytic integral of g over a disk (2D) or ball (3D) whose
area/volume equals one pixel, which removes the singularity at second-order
accuracy.
"""

import numpy as np

from .errors import ConfigError, DimensionError, SingularityError
from .special import bessel_jn_all, hankel1_0, hankel1_1, hankel1_all


def green_2d(r, k_b):
    """2D outgoing Green's function (j/4) H0^(1)(k_b * |r|).

    ``r`` holds displacement vectors in the trailing axis ((..., 2) or (..., 3)
    works; only the norm matters).  Raises SingularityError at zero separation.
    """
    if not k_b > 0:
        raise ConfigError("k_b must be positive")
    r = np.asarray(r, dtype=float)
    dist = np.linalg.norm(np.atleast_1d(r), axis=-1) if r.ndim else np.abs(r)
    if np.any(dist == 0.0):
        raise SingularityError("green_2d evaluated at zero separation")
    return 0.25j * hankel1_0(k_b * dist)


def green_3d(r, k_b):
    """3D outgoing Green's function exp(j k_b |r|) / (4 pi |r|)."""
    if k_b < 0:
        raise ConfigError("k_b must be nonnegative")
    r = np.asarray(r, dtype=float)
    dist = np.linalg.norm(np.atleast_1d(r), axis=-1) if r.ndim else np.abs(r)
    if np.any(dist == 0.0):
        raise SingularityError("green_3d evaluated at zero separation")
    return np.exp(1j * k_b * dist) / (4.0 * np.pi * dist)


def self_interaction(grid):
    """Pixel self-term: integral of g over the equal-area disk / equal-volume ball.

    2D: radius a with pi a^2 = h^2 gives (j pi a / (2 k)) H1^(1)(k a) - 1/k^2.
    3D: radius a with (4/3) pi a^3 = h^3 gives (exp(jka)(1 - jka) - 1)/k^2.
    """
    h = grid.spacing
    k = grid.k_b
    if grid.ndim == 2:
        a = h / np.sqrt(np.pi)
        return 0.5j * np.pi * a / k * hankel1_1(k * a) - 1.0 / k ** 2
    a = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    return (np.exp(1j * k * a) * (1.0 - 1j * k * a) - 1.0) / k ** 2


def _point_green(grid):
    return green_2d if grid.ndim == 2 else green_3d


# a 2D point takes the Graf rows when (rho_max / r)^L < GRAF_TAIL and
# r > 2 rho_max (see green_matrix)
GRAF_TAIL = 1e-16


def green_matrix(grid, points, weights):
    """weights[p] * g(points[p] - x_n) over the pixel centers x_n.

    Returns a C-contiguous complex (P, N) array.  About the grid center c,
    with s - c = r e^{j theta} and x - c = rho e^{j phi}, Graf's addition
    theorem (DLMF 10.23.7) gives for rho < r

        H0(k |s - x|) = sum_l eps_l H_l(k r) J_l(k rho) cos(l (phi - theta)),

    eps_0 = 1 and eps_l = 2 otherwise.  Truncated at
    L = ceil(k rho_max + 12 (k rho_max)^(1/3) + 10), where rho_max is the
    largest pixel-center distance from c, the matrix is one real GEMM: the
    (2P, 2L+2) real and imaginary parts of the point factor
    (j/4) w_p eps_l H_l(k r_p) [cos(l theta_p), sin(l theta_p)] times the
    (2L+2, N) grid table J_l(k rho_n) [cos(l phi_n); sin(l phi_n)].

    A 2D point takes that path when r > rho_max max(2, GRAF_TAIL^(-1/L)).
    Past order k r the terms fall like (rho_max / r)^l, so the first bound
    keeps the dropped tail below round-off.  Alone it lets r close in on
    rho_max as L grows, and then the orders just past L, where J_l(k rho)
    decays and H_l(k r) grows at nearly the same rate, are not negligible:
    2.5e-11 relative at k rho_max = 280 and 8e-10 at 560.  The second bound
    keeps them at round-off.  Every other point, and every 3D point, evaluates g directly;
    that path is also the test oracle.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != grid.ndim:
        raise DimensionError(f"points have shape {points.shape}, expected "
                             f"(P, {grid.ndim})")
    weights = np.broadcast_to(np.asarray(weights, dtype=complex), points.shape[:1])
    centers = grid.pixel_centers().reshape(-1, grid.ndim)
    out = np.empty((len(points), grid.size), dtype=complex)
    far = np.zeros(len(points), dtype=bool)
    if grid.ndim == 2:
        far = _graf_rows(grid, centers, points, weights, out)
    if not np.all(far):
        disp = points[~far, None, :] - centers[None, :, :]
        out[~far] = weights[~far, None] * _point_green(grid)(disp, grid.k_b)
    return out


def _graf_rows(grid, centers, points, weights, out):
    """Fill the rows of ``out`` whose point is far enough for the Graf
    expansion (see ``green_matrix``); returns their mask."""
    k = grid.k_b
    center = np.asarray(grid.origin) + 0.5 * grid.spacing * (np.asarray(grid.shape) - 1)
    pix = (centers[:, 0] - center[0]) + 1j * (centers[:, 1] - center[1])
    src = (points[:, 0] - center[0]) + 1j * (points[:, 1] - center[1])
    rho, r = np.abs(pix), np.abs(src)
    k_rho = k * np.max(rho)
    order = int(np.ceil(k_rho + 12.0 * np.cbrt(k_rho) + 10.0))
    far = (r > np.max(rho) * max(2.0, GRAF_TAIL ** (-1.0 / order))) & (k_rho > 0)
    if not np.any(far):
        return far
    ls = np.arange(order + 1)

    # grid table: one row per order and trig; e^{j l phi} by recurrence, the
    # pixel at the center (rho = 0, if any) has J_0 = 1 and J_l = 0 beyond
    at_center = rho == 0.0
    rho_safe = np.where(at_center, 1.0, rho)
    bessel = bessel_jn_all(order, k * rho_safe)
    rot = np.where(at_center, 1.0, pix / rho_safe)
    table = np.empty((2 * order + 2, grid.size))
    phase = np.ones(grid.size, dtype=complex)
    for l in ls:
        np.multiply(bessel[l], phase.real, out=table[l])
        np.multiply(bessel[l], phase.imag, out=table[order + 1 + l])
        phase *= rot
    del bessel
    table[:, at_center] = 0.0
    table[0, at_center] = 1.0

    # point factor: the weights, j/4 and eps_l fold in here, on 2L+2 columns
    src, r = src[far], r[far]
    eps = np.where(ls == 0, 1.0, 2.0)
    coef = (0.25j * weights[far])[:, None] * eps * hankel1_all(order, k * r).T
    trig = np.exp(1j * np.angle(src)[:, None] * ls)
    factor = np.concatenate([coef * trig.real, coef * trig.imag], axis=1)
    prod = np.concatenate([factor.real, factor.imag]) @ table
    n_far = int(np.count_nonzero(far))
    out.real[far] = prod[:n_far]
    out.imag[far] = prod[n_far:]
    return far


class DomainGreensOperator:
    """Domain-to-domain operator: v -> integral of g(x - x') v(x') over the grid.

    Applies as an FFT convolution on the zero-padded doubled grid; cost
    O(N log N) per apply.  The transforms run axis by axis, skipping lines
    that are all zero and cropping as they go: a 2D apply runs 6 and a 3D
    apply 14 of the 8 and 24 half-grid line transforms the full padded
    fftn/ifftn pair would.  The output is bit-identical to
    ifftn(fftn(pad(v), axes=reversed(range(ndim))) * K_hat), cropped.
    Immutable after construction and safe to share across threads.
    """

    def __init__(self, grid):
        if any(n < 2 for n in grid.shape):
            raise ConfigError("domain operator needs every grid dim >= 2")
        self.grid = grid
        padded = tuple(2 * n for n in grid.shape)
        offsets = [np.where(np.arange(2 * n) < n,
                            np.arange(2 * n),
                            np.arange(2 * n) - 2 * n) * grid.spacing
                   for n in grid.shape]
        mesh = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
        dist_sq = np.sum(mesh * mesh, axis=-1)
        kernel = np.zeros(padded, dtype=complex)
        nonzero = dist_sq > 0
        kernel[nonzero] = _point_green(grid)(mesh[nonzero], grid.k_b)
        kernel *= grid.pixel_volume
        kernel[(0,) * grid.ndim] = self_interaction(grid)
        self._kernel_hat = np.fft.fftn(kernel)

    def apply(self, v):
        # forward passes first axis first: each pass doubles the lines the
        # next one transforms, so the largest pass runs on the last axis,
        # whose lines are contiguous (pocketfft gathers strided lines one at
        # a time).  fft(n=2n) pads only the lines earlier passes made
        # nonzero.  The inverse passes run last axis first, each cropping its
        # axis so the next one runs on fewer lines.  The bits match fftn over
        # the reversed axes, followed by the padded ifftn.
        shape = self.grid.shape
        spec = self.grid.check_field(v)
        for ax in range(len(shape)):
            spec = np.fft.fft(spec, n=2 * shape[ax], axis=ax)
        spec *= self._kernel_hat
        for ax in reversed(range(len(shape))):
            spec = np.fft.ifft(spec, axis=ax)
            spec = spec[(slice(None),) * ax + (slice(0, shape[ax]),)]
        return spec

    def apply_adjoint(self, v):
        # the kernel is even in the offset, so the matrix is complex symmetric
        # and the adjoint is conj o apply o conj
        return np.conj(self.apply(np.conj(v)))


def sensor_rows(grid, sensors, sources=None, amplitudes=()):
    """H's rows on ``sensors``, then amplitudes[j] * g(sources[j] - x_n).

    ``sources`` is an (S, ndim) array of point-source positions, if any.
    One ``green_matrix`` call builds both, so the grid table of its Graf path
    is built once per grid.  Warns when a sensor lies inside the domain, and
    raises SingularityError when one sits on a pixel center.
    """
    sensors.warn_if_inside(grid)
    # the nearest pixel center, axis by axis
    lo = np.asarray(grid.origin)
    index = np.clip(np.rint((sensors.positions - lo) / grid.spacing),
                    0, np.asarray(grid.shape) - 1)
    nearest = lo + grid.spacing * index
    if np.any(np.linalg.norm(sensors.positions - nearest, axis=1) < 1e-9 * grid.spacing):
        raise SingularityError("a sensor coincides with a pixel center")
    if sources is None:
        sources = np.empty((0, grid.ndim))
    points = np.concatenate([sensors.positions, sources])
    weights = np.concatenate([np.full(len(sensors), grid.pixel_volume),
                              np.asarray(amplitudes, dtype=complex)])
    return green_matrix(grid, points, weights)


class SensorGreensOperator:
    """Domain-to-sensor operator: dense M x N matrix of pixel-weighted g values.

    ``matrix``, when given, is the sensors' block of a ``sensor_rows`` call
    that also built point sources' rows; otherwise the operator calls it.
    """

    def __init__(self, grid, sensors, matrix=None):
        self.grid = grid
        self.sensors = sensors
        self._matrix = sensor_rows(grid, sensors) if matrix is None else matrix

    @property
    def matrix(self):
        return self._matrix

    def apply(self, v):
        v = self.grid.check_field(v)
        return self._matrix @ v.ravel()

    def apply_adjoint(self, y):
        y = np.asarray(y)
        if y.shape != (len(self.sensors),):
            raise DimensionError(
                f"sensor vector has shape {y.shape}, expected ({len(self.sensors)},)")
        # (y^H M)^H: the product reads M in place instead of building M^H
        return (y.conj() @ self._matrix).conj().reshape(self.grid.shape)


class MaskedSensorOperator:
    """Row subset of a shared SensorGreensOperator (per-transmitter active receivers)."""

    def __init__(self, base, indices):
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1 or indices.size < 1:
            raise ConfigError("mask needs at least one receiver index")
        if np.any(indices < 0) or np.any(indices >= len(base.sensors)):
            raise ConfigError("receiver index out of range")
        self.grid = base.grid
        self.base = base
        self.indices = indices

    def apply(self, v):
        return self.base.apply(v)[self.indices]

    def apply_adjoint(self, y):
        y = np.asarray(y)
        if y.shape != (self.indices.size,):
            raise DimensionError(
                f"sensor vector has shape {y.shape}, expected ({self.indices.size},)")
        full = np.zeros(len(self.base.sensors), dtype=complex)
        full[self.indices] = y
        return self.base.apply_adjoint(full)


def build_domain_operator(grid):
    """Discretized Green's operator inside the domain (FFT-convolution backed)."""
    return DomainGreensOperator(grid)


def build_sensor_operator(grid, sensors):
    """Discretized Green's operator from the domain to a sensor set."""
    return SensorGreensOperator(grid, sensors)


def apply_A(f, u, G):
    """A u = u - G (f * u), with A = I - G diag(f)."""
    grid = G.grid
    f = grid.check_field(f, "potential")
    u = grid.check_field(u, "field")
    return u - G.apply(f * u)


def apply_AH(f, u, G):
    """A^H u = u - f * (G^H u); f is real so diag(f)^H = diag(f)."""
    grid = G.grid
    f = grid.check_field(f, "potential")
    u = grid.check_field(u, "field")
    return u - f * G.apply_adjoint(u)
