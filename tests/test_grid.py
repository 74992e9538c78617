import dataclasses
import json
import re

import numpy as np
import pytest

import wavetomo as wt
from wavetomo import fileio
from wavetomo.errors import ConfigError
from wavetomo.grid import refined_grid


class TestSensorSet:
    @pytest.mark.parametrize("positions, shape", [
        ([], "(0,)"), ([[]], "(1, 0)"), (5.0, "()"),
        (np.zeros((3, 1)), "(3, 1)"), (np.zeros((3, 4)), "(3, 4)"),
    ], ids=["empty list", "empty point", "scalar", "1 coordinate", "4 coordinates"])
    def test_positions_no_grid_reads_rejected(self, positions, shape):
        # these used to be taken as sets of shape (1, 0), (1, 0), (1, 1), (3, 1)
        # and (3, 4)
        with pytest.raises(ConfigError, match=rf"^sensor positions must have shape "
                           rf"\(M, 2\) or \(M, 3\), got {re.escape(shape)}$"):
            wt.SensorSet(positions)

    def test_no_position_rejected(self):
        with pytest.raises(ConfigError, match="^sensor set needs at least one position$"):
            wt.SensorSet(np.zeros((0, 2)))


class TestIntegerArguments:
    @pytest.mark.parametrize("shape", [(8.7, 8), (8, 8.0), (True, 8)],
                             ids=["fractional", "integral float", "bool"])
    def test_grid_shape_must_be_integers(self, shape):
        # (8.7, 8) used to give an 8 x 8 grid, and True a 1-pixel axis
        with pytest.raises(ConfigError, match="^each grid dim must be an integer$"):
            wt.DomainGrid(shape, 0.1, (0.0, 0.0), 0.5)
        with pytest.raises(ConfigError, match="^each grid dim must be an integer$"):
            wt.centered_grid(shape, 0.1, 0.5)

    def test_numpy_integer_shape_accepted(self):
        shape = (np.int64(8), np.uint16(6))
        for grid in (wt.DomainGrid(shape, 0.1, (0.0, 0.0), 0.5),
                     wt.centered_grid(shape, 0.1, 0.5)):
            assert grid.shape == (8, 6) and all(type(n) is int for n in grid.shape)

    @pytest.mark.parametrize("count", [2.5, 3.0, True], ids=["fractional", "integral float", "bool"])
    def test_ring_count_must_be_an_integer(self, count):
        # 2.5 used to place 3 sensors at 0, 144 and 288 degrees
        with pytest.raises(ConfigError, match="^ring sensor count must be an integer$"):
            wt.ring_sensors(count, 1.0)

    def test_numpy_integer_ring_count_accepted(self):
        assert np.array_equal(wt.ring_sensors(np.int32(4), 1.0).positions,
                              wt.ring_sensors(4, 1.0).positions)

    @pytest.mark.parametrize("refine", [2.0, True], ids=["integral float", "bool"])
    def test_refinement_must_be_an_integer(self, refine):
        # True used to return the same grid, and 2.0 failed inside DomainGrid
        # with "each grid dim must be an integer", naming no refinement
        grid = wt.centered_grid((8, 8), 0.1, 0.5)
        with pytest.raises(ConfigError, match="^grid refinement must be an integer$"):
            refined_grid(grid, refine)


def test_wavelength_alone_sets_k_b():
    # the model sees the background medium only through k_b = 2 pi/wavelength;
    # k_b is a numpy float64, so its square overflows to inf with numpy's
    # warning where a plain float would raise OverflowError
    assert [f.name for f in dataclasses.fields(wt.DomainGrid)] == [
        "shape", "spacing", "origin", "wavelength"]
    grid = wt.centered_grid((4, 4), 0.1, 0.5)
    assert type(grid.k_b) is np.float64 and grid.k_b == 4 * np.pi
    tiny = wt.centered_grid((4, 4), 0.1, 1e-160)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert tiny.k_b ** 2 == np.inf


@pytest.mark.parametrize("section, key, value, message", [
    ("grid", "wavelength_m", 0.0, "grid: wavelength must be positive and finite"),
    ("grid", "wavelength_m", 1e-320, "grid: derived wavenumber must be finite"),
    ("receivers", "count", 0, "receivers: ring needs at least one sensor"),
], ids=["zero wavelength", "subnormal wavelength", "no receiver"])
def test_config_values_grid_rejects(section, key, value, message):
    cfg = {"grid": {"shape": [8, 8], "spacing_m": 0.05, "wavelength_m": 0.5},
           "receivers": {"count": 12, "ring_radius_m": 0.5}}
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=f"^{message}$"):
        fileio.parse_config(json.dumps(cfg))
