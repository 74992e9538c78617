"""Imaging-domain grid and sensor geometry.

A ``DomainGrid`` is a uniform pixel grid in 2 or 3 dimensions.  Fields and
scattering potentials are plain numpy arrays shaped like ``grid.shape``;
``grid.pixel_centers()`` gives the physical coordinate of every pixel center.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError


def check_integer(name, value):
    """``value`` as an int, or ConfigError for a bool or a non-integral value;
    numpy integers pass."""
    # bool is an Integral, and the config file rejects it
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer")
    return int(value)


@dataclass(frozen=True)
class DomainGrid:
    """Uniform pixel grid over the imaging domain.

    Parameters
    ----------
    shape : tuple of int
        Pixel count per axis (2 or 3 axes).
    spacing : float
        Pixel pitch in meters (isotropic).
    origin : tuple of float
        Physical coordinate of the center of pixel (0, ..., 0), meters.
    wavelength : float
        Vacuum wavelength in meters.
    background_permittivity : float
        Relative permittivity of the surrounding medium (> 0).
    """

    shape: tuple
    spacing: float
    origin: tuple
    wavelength: float
    background_permittivity: float = 1.0

    def __post_init__(self):
        shape = tuple(check_integer("each grid dim", n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        if len(shape) not in (2, 3):
            raise ConfigError("grid must have 2 or 3 axes")
        if any(n < 1 for n in shape):
            raise ConfigError("all grid dims must be >= 1")
        if len(self.origin) != len(shape):
            raise ConfigError("origin length must match the number of axes")
        if not 0 < self.spacing < math.inf:
            raise ConfigError("spacing must be positive and finite")
        try:
            volume = self.pixel_volume
        except OverflowError:
            volume = math.inf
        if not 0 < volume < math.inf:
            raise ConfigError(f"pixel volume spacing**{len(shape)} must be positive "
                              "and finite")
        if not all(map(math.isfinite, self.origin)):
            raise ConfigError("origin must be finite")
        if not 0 < self.wavelength < math.inf:
            raise ConfigError("wavelength must be positive and finite")
        if not (self.background_permittivity > 0):
            raise ConfigError("background permittivity must be positive")
        if not (np.isfinite(self.k) and np.isfinite(self.k_b)):
            raise ConfigError("derived wavenumbers must be finite")

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def k(self):
        """Vacuum wavenumber 2*pi/wavelength."""
        return 2.0 * np.pi / self.wavelength

    @property
    def k_b(self):
        """Background wavenumber k * sqrt(eps_b)."""
        return self.k * np.sqrt(self.background_permittivity)

    @property
    def pixel_volume(self):
        """Pixel area (2D) or volume (3D)."""
        return self.spacing ** self.ndim

    @property
    def center(self):
        """Physical coordinates of the pixel block's center."""
        return tuple(c + 0.5 * self.spacing * (n - 1) for c, n in zip(self.origin, self.shape))

    def axis_coords(self, axis):
        n = self.shape[axis]
        return self.origin[axis] + self.spacing * np.arange(n)

    def pixel_centers(self):
        """Physical coordinates of all pixel centers, shape + (ndim,)."""
        axes = [self.axis_coords(d) for d in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def bounding_box(self):
        """(lower, upper) corners of the pixel-covered region."""
        lo = np.array(self.origin) - 0.5 * self.spacing
        hi = np.array(self.origin) + self.spacing * (np.array(self.shape) - 0.5)
        return lo, hi

    def check_field(self, u, name="field"):
        u = np.asarray(u)
        if u.shape != self.shape:
            raise DimensionError(
                f"{name} has shape {u.shape}, expected grid shape {self.shape}")
        return u


def centered_grid(shape, spacing, wavelength, background_permittivity=1.0):
    """Grid whose pixel block is centered on the coordinate origin."""
    shape = tuple(check_integer("each grid dim", n) for n in shape)
    origin = tuple(-0.5 * spacing * (n - 1) for n in shape)
    return DomainGrid(shape, spacing, origin, wavelength, background_permittivity)


def refined_grid(grid, refine):
    """Grid with ``refine`` x pixels per axis over the same physical extent."""
    refine = check_integer("grid refinement", refine)
    if refine < 1:
        raise ConfigError("grid refinement must be >= 1")
    spacing = grid.spacing / refine
    shape = tuple(n * refine for n in grid.shape)
    origin = tuple(c - 0.5 * grid.spacing + 0.5 * spacing for c in grid.origin)
    return DomainGrid(shape, spacing, origin, grid.wavelength,
                      grid.background_permittivity)


@dataclass(frozen=True)
class SensorSet:
    """Sensor (receiver) positions in physical coordinates, shape (M, ndim):
    M >= 1 points of 2 or 3 coordinates, the axis counts a grid may have."""

    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise ConfigError(f"sensor positions must have shape (M, 2) or (M, 3), "
                              f"got {pos.shape}")
        if pos.shape[0] < 1:
            raise ConfigError("sensor set needs at least one position")
        if not np.all(np.isfinite(pos)):
            raise ConfigError("sensor positions must be finite")
        object.__setattr__(self, "positions", pos)

    def __len__(self):
        return self.positions.shape[0]

    def warn_if_inside(self, grid):
        """Sensors inside the domain are unusual but allowed; warn once."""
        lo, hi = grid.bounding_box()
        inside = np.all((self.positions >= lo) & (self.positions <= hi), axis=1)
        if np.any(inside):
            warnings.warn(
                f"{int(inside.sum())} sensor(s) lie inside the imaging domain; "
                "proceeding anyway", stacklevel=2)


def ring_sensors(count, radius, phase=0.0):
    """2D ring of equally spaced sensors about the origin, from angle ``phase``."""
    if check_integer("ring sensor count", count) < 1:
        raise ConfigError("ring needs at least one sensor")
    if not (math.isfinite(radius) and math.isfinite(phase)):
        raise ConfigError("ring radius and phase must be finite")
    ang = phase + 2.0 * np.pi * np.arange(count) / count
    pos = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    return SensorSet(pos)
