import numpy as np
import pytest

import wavetomo as wt


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def small_grid():
    # 8x8, 16 px per wavelength
    return wt.centered_grid((8, 8), spacing=0.5 / 16, wavelength=0.5)


@pytest.fixture
def small_setup(small_grid):
    grid = small_grid
    G = wt.build_domain_operator(grid)
    sensors = wt.ring_sensors(12, radius=0.45)
    H = wt.build_sensor_operator(grid, sensors)
    tx = wt.Transmitter("point", position=(0.5, 0.05))
    u_in = tx.field_on_grid(grid)
    return grid, G, H, u_in


def random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_potential(rng, grid, contrast=0.2):
    raw = rng.uniform(-1.0, 1.0, grid.shape)
    return contrast * grid.k_b ** 2 * raw / np.max(np.abs(raw))


@pytest.fixture
def whole_grid_G(monkeypatch):
    """Call it to make every A apply G on the whole grid, as A did before G
    was restricted to column blocks on f's support."""
    def whole(self, f):
        return tuple(slice(0, n) for n in self.grid.shape), self
    return lambda: monkeypatch.setattr(wt.DomainGreensOperator, "column_block", whole)
