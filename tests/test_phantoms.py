import numpy as np
import pytest

import wavetomo as wt
from reference import full_grid_cylinders
from wavetomo.errors import ConfigError


@pytest.fixture
def grid():
    return wt.centered_grid((48, 48), spacing=0.5 / 16, wavelength=0.5)


def test_cylinder_contrast_and_area(grid):
    radius = 0.3
    f = wt.cylinders(grid, [((0.0, 0.0), radius, 0.2)], supersample=8)
    assert wt.contrast(f, grid) == pytest.approx(0.2)
    # supersampled coverage integrates to the disk area
    area = np.sum(f) / (0.2 * grid.k_b ** 2) * grid.pixel_volume
    assert area == pytest.approx(np.pi * radius ** 2, rel=5e-3)


def test_cylinder_edges_are_fractional(grid):
    f = wt.cylinders(grid, [((0.0, 0.0), 0.3, 0.2)], supersample=8)
    peak = 0.2 * grid.k_b ** 2
    frac = (f > 0.05 * peak) & (f < 0.95 * peak)
    assert np.count_nonzero(frac) > 0


def test_overlapping_regions_add(grid):
    f = wt.cylinders(grid, [((0.0, 0.0), 0.2, 0.1), ((0.0, 0.0), 0.1, 0.1)])
    assert wt.contrast(f, grid) == pytest.approx(0.2)


# (grid shape, spacing, specs, supersample) on grids centered at the origin:
# the 48^2 grid spans about +-0.73 m per axis, the 37 x 29 grid +-0.23 by
# +-0.18 m
RENDER_CASES = {
    "crosses_the_edge": ((48, 48), 0.5 / 16, [((0.7, 0.1), 0.2, 0.3)], 4),
    "outside_the_grid": ((48, 48), 0.5 / 16, [((5.0, 5.0), 0.2, 0.3)], 4),
    "sub_pixel_radius": ((48, 48), 0.5 / 16, [((0.01, -0.02), 0.004, 0.5)], 8),
    "overlapping": ((37, 29), 0.013, [((0.0, 0.0), 0.1, 0.1), ((0.05, 0.0), 0.05, -0.1),
                                      ((0.1, 0.1), 0.15, 0.25)], 5),
    "ball_3d": ((32, 32, 32), 0.5 / 8, [((0.03, -0.01, 0.02), 0.375, 1.0)], 4),
}


@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_render_on_shape_boxes_is_bit_identical(case):
    # supersampling only each shape's box adds exactly what the full grid
    # adds, and nothing elsewhere
    shape, h, specs, supersample = RENDER_CASES[case]
    grid = wt.DomainGrid(shape, h, tuple(-0.5 * h * (n - 1) for n in shape), 0.5)
    got = wt.cylinders(grid, specs, supersample=supersample)
    expect = full_grid_cylinders(grid, specs, supersample=supersample)
    assert got.tobytes() == expect.tobytes()
    assert np.any(got) == (case != "outside_the_grid")


@pytest.mark.parametrize("shape, center", [((8, 8, 8), (0.0, 0.0)), ((8, 8), (0.0, 0.0, 0.0))])
def test_center_with_wrong_axis_count(shape, center):
    grid = wt.DomainGrid(shape, 0.05, (-0.175,) * len(shape), 0.5)
    with pytest.raises(ConfigError, match=f"center needs {len(shape)} coordinates"):
        wt.cylinders(grid, [(center, 0.1, 0.2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_center(grid, bad):
    with pytest.raises(ConfigError, match="center must be finite"):
        wt.cylinders(grid, [((bad, 0.0), 0.1, 0.2)])


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_contrast(grid, bad):
    with pytest.raises(ConfigError, match="contrast must be finite"):
        wt.cylinders(grid, [((0.0, 0.0), 0.1, bad)])


@pytest.mark.parametrize("bad", [0, -2])
def test_cylinders_reject_supersample_below_one(grid, bad):
    with pytest.raises(ConfigError, match="^supersample must be >= 1$"):
        wt.cylinders(grid, [((0.0, 0.0), 0.1, 0.2)], supersample=bad)


def test_shepp_logan_peak_contrast(grid):
    f = wt.shepp_logan(grid, 0.2)
    assert wt.contrast(f, grid) == pytest.approx(0.2)
    # the head outline occupies a minority of the grid and has structure
    assert 0.05 < np.mean(f != 0.0) < 0.9
    assert len(np.unique(np.round(f / np.max(np.abs(f)), 6))) > 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shepp_logan_non_finite_contrast(grid, bad):
    # a NaN contrast used to return a NaN potential, an infinite one warned first
    with pytest.raises(ConfigError, match="^head phantom contrast must be finite$"):
        wt.shepp_logan(grid, bad)

