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
small dense M x N matrix.

Discretization convention (used consistently package-wide): off-center kernel
entries are midpoint samples of g times the pixel area/volume; the zero-offset
entry is the analytic integral of g over a disk (2D) or ball (3D) whose
area/volume equals one pixel, which removes the singularity at second-order
accuracy.
"""

import numpy as np

from .errors import ConfigError, DimensionError, SingularityError
from .special import hankel1_0, hankel1_1


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


class SensorGreensOperator:
    """Domain-to-sensor operator: dense M x N matrix of pixel-weighted g values."""

    def __init__(self, grid, sensors):
        self.grid = grid
        self.sensors = sensors
        sensors.warn_if_inside(grid)
        centers = grid.pixel_centers().reshape(-1, grid.ndim)
        disp = sensors.positions[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(disp, axis=-1)
        if np.any(dist < 1e-9 * grid.spacing):
            raise SingularityError("a sensor coincides with a pixel center")
        self._matrix = _point_green(grid)(disp, grid.k_b) * grid.pixel_volume

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
