"""Synthetic scattering-potential phantoms.

Potentials are returned in physical units (1/m^2): a region at relative
contrast c carries the value c * k_b^2, so that max|f| / k_b^2 equals the
peak contrast.  Cylinder edges are area-weighted by supersampling (4 sub-samples
per pixel axis by default), so the discrete image converges to the continuous
shape; the head phantom's unit square spans the domain.
"""

import numpy as np

from .errors import ConfigError


def contrast(f, grid):
    """Strength-of-scattering measure max|f| / k_b^2."""
    return float(np.max(np.abs(f))) / grid.k_b ** 2


def _subpixel_offsets(grid, supersample):
    h = grid.spacing
    step = h / supersample
    offs = -0.5 * h + step * (np.arange(supersample) + 0.5)
    return np.meshgrid(*([offs] * grid.ndim), indexing="ij")


def _shape_box(grid, center, radius):
    """Slices of the pixels whose centers lie within radius + h/2 of
    ``center`` on every axis, one pixel wider each side and clipped to the
    grid, or None when no pixel does."""
    box = []
    for ax, c in enumerate(center):
        near = np.abs(grid.axis_coords(ax) - c) <= radius + 0.5 * grid.spacing
        hit = np.flatnonzero(near)
        if hit.size == 0:
            return None
        box.append(slice(max(int(hit[0]) - 1, 0), min(int(hit[-1]) + 2, grid.shape[ax])))
    return tuple(box)


def check_cylinder(grid, center, radius, contrast):
    """One ``cylinders`` spec's center as a float array, or ConfigError."""
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.ndim,):
        raise ConfigError(f"cylinder center needs {grid.ndim} coordinates, "
                          f"got shape {center.shape}")
    if not np.all(np.isfinite(center)):
        raise ConfigError("cylinder center must be finite")
    if not 0 < radius < np.inf:
        raise ConfigError("cylinder radius must be positive and finite")
    if not np.isfinite(contrast):
        raise ConfigError("cylinder contrast must be finite")
    return center


def cylinders(grid, specs, supersample=4):
    """Sum of homogeneous disks (2D) or balls (3D).

    specs: iterable of (center, radius, contrast) with center in meters.
    Overlapping regions add.  ``supersample`` > 1 area-weights edge pixels.
    A sub-pixel point lies within h/2 of its pixel center on every axis, so
    each shape is supersampled only on the pixels within radius + h/2 of its
    center per axis, plus a one-pixel margin (``_shape_box``); a shape that
    misses the grid adds nothing.  ``check_cylinder`` vets each spec.
    """
    if supersample < 1:
        raise ConfigError("supersample must be >= 1")
    centers = grid.pixel_centers()
    f = np.zeros(grid.shape)
    subs = _subpixel_offsets(grid, supersample)
    for center, radius, c in specs:
        center = check_cylinder(grid, center, radius, c)
        box = _shape_box(grid, center, radius)
        if box is None:
            continue
        coverage = np.zeros(f[box].shape)
        for off in zip(*(s.ravel() for s in subs)):
            pts = centers[box] + np.asarray(off)
            dist_sq = np.sum((pts - center) ** 2, axis=-1)
            coverage += dist_sq <= radius * radius
        f[box] += c * coverage / supersample ** grid.ndim
    return f * grid.k_b ** 2


# classic head phantom: (intensity, semi-axes a, b, center x, y, rotation deg)
_SHEPP_LOGAN = [
    (2.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def check_shepp_logan(grid, peak_contrast):
    """Raise ConfigError unless ``shepp_logan`` takes these values."""
    if grid.ndim != 2:
        raise ConfigError(f"head phantom needs a 2D grid, got {grid.ndim} axes")
    if not np.isfinite(peak_contrast):
        raise ConfigError("head phantom contrast must be finite")


def shepp_logan(grid, peak_contrast):
    """Ten-ellipse head phantom (2D), scaled so max|f|/k_b^2 = peak_contrast.

    The unit phantom square spans the domain: its half-width maps to half the
    width of the first axis.  ``check_shepp_logan`` vets the input.
    """
    check_shepp_logan(grid, peak_contrast)
    # phantom defined on [-1, 1]^2
    centers = grid.pixel_centers() / (0.5 * grid.spacing * grid.shape[0])
    x = centers[..., 0]
    y = centers[..., 1]
    img = np.zeros(grid.shape)
    for amp, a, b, cx, cy, ang in _SHEPP_LOGAN:
        t = np.deg2rad(ang)
        xr = (x - cx) * np.cos(t) + (y - cy) * np.sin(t)
        yr = -(x - cx) * np.sin(t) + (y - cy) * np.cos(t)
        img += amp * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    peak = np.max(np.abs(img))
    if peak == 0:
        raise ConfigError("phantom does not intersect the grid")
    return img * (peak_contrast * grid.k_b ** 2 / peak)
