import json

import numpy as np
import pytest

import wavetomo as wt
from wavetomo import fileio
from wavetomo.cli import main


def write_config(path, overrides=None):
    cfg = {
        "grid": {"shape": [12, 12], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
        "transmitters": {"kind": "point-ring", "radius_m": 0.8, "count": 2},
        "receivers": {"ring_radius_m": 0.9, "count": 10, "subsample": 1},
        "phantom": {"kind": "none"},
        "recon": {"forward": {"K": 5}, "tau_rel": 1.5e-9, "fista_iters": 2},
        "generation": {"grid_refine": 2, "k_multiplier": 2},
    }
    if overrides:
        for key, val in overrides.items():
            cfg[key] = val
    path.write_text(fileio.serialize_config(cfg))
    return cfg


def _free_space_fields(tmp_path, dim, rows):
    """`wavetomo analytic` with index 1 at (r, theta) rows, source 1 m away."""
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(f"{r},{t}" for r, t in rows) + "\n")
    out = tmp_path / "field.csv"
    rc = main(["analytic", "--dim", str(dim), "--radius", "0.0749", "--index", "1.0",
               "--source-distance", "1.0", "--wavelength", "0.0749",
               "--truncation", "90",
               "--points", str(pts), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r_m,theta_rad,re,im"
    return [complex(*(float(v) for v in line.split(",")[2:])) for line in lines[1:]]


class TestAnalyticCommand:
    K_B = 2 * np.pi / 0.0749

    def test_free_space_matches_green(self, tmp_path):
        rows = [(0.21, 0.3), (0.15, -1.2), (0.33, 2.2)]
        for E, (r, t) in zip(_free_space_fields(tmp_path, 2, rows), rows):
            g = wt.green_2d(np.array([r * np.cos(t) - 1.0, r * np.sin(t)]), self.K_B)
            assert E == pytest.approx(g, rel=1e-9)

    def test_free_space_matches_green_3d(self, tmp_path):
        # the source sits on the zenith axis
        rows = [(0.21, 0.3), (0.15, 1.2), (0.33, 2.2)]
        for E, (r, t) in zip(_free_space_fields(tmp_path, 3, rows), rows):
            g = wt.green_3d(np.array([r * np.sin(t), 0.0, r * np.cos(t) - 1.0]), self.K_B)
            assert E == pytest.approx(g, rel=1e-9)


class TestSimulateReconstruct:
    def test_null_phantom_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(meas)]) == 0
        outdir = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--measurements", str(meas), "--out", str(outdir)]) == 0
        values, _ = fileio.load_grid_csv(outdir / "f_hat.csv")
        assert np.all(values == 0.0)
        assert (outdir / "f_hat.pgm").exists()
        assert (outdir / "report.json").exists()

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        main(["simulate", "--config", str(cfg_path), "--out", str(meas)])
        monkeypatch.setenv("WAVETOMO_OUTDIR", str(tmp_path / "envout"))
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--measurements", str(meas)]) == 0
        assert (tmp_path / "envout" / "report.json").exists()


class TestMetricsCommand:
    def test_json_output(self, tmp_path, rng):
        grid = wt.centered_grid((5, 5), spacing=0.01, wavelength=0.1)
        ref = rng.standard_normal(grid.shape)
        fileio.emit_grid_csv(ref, grid, tmp_path / "ref.csv")
        fileio.emit_grid_csv(0.0 * ref, grid, tmp_path / "est.csv")
        out = tmp_path / "m.json"
        rc = main(["metrics", "--estimate", str(tmp_path / "est.csv"),
                   "--reference", str(tmp_path / "ref.csv"), "--out", str(out)])
        assert rc == 0
        got = json.loads(out.read_text())
        assert got["normalized_error"] == pytest.approx(1.0)
        assert got["snr_db"] == pytest.approx(0.0)


class TestGradcheckCommand:
    def test_fixed_step_passes(self):
        assert main(["gradcheck", "--grid-size", "6", "--K", "1", "2",
                     "--seed", "1"]) == 0


class TestSweepCommand:
    def test_contrast_sweep_table(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={
            "grid": {"shape": [32, 32], "spacing_m": 0.0749 / 8,
                     "wavelength_m": 0.0749},
            "transmitters": [{"position_m": [1.0, 0.0]}],
            "phantom": {"kind": "cylinders",
                        "cylinders": [{"center_m": [0.0, 0.0],
                                       "radius_m": 0.0749, "contrast": 0.1}]},
        })
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--contrast",
                   "0.1:0.1:0.2", "--K", "64", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "contrast,error,born_error"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        assert len(rows) == 2
        # expansion beats the linearization, which degrades with contrast
        assert all(err < born for _, err, born in rows)
        assert rows[1][2] > rows[0][2]


def _set(section, **values):
    return lambda cfg: cfg[section].update(values)


def _drop(section, key):
    return lambda cfg: cfg[section].pop(key)


MALFORMED_CONFIGS = {
    "missing transmitters.count": (
        _drop("transmitters", "count"), "transmitters.count: required"),
    "shape with a string": (
        _set("grid", shape=[8, "x"]), "grid.shape: expected a list of integers"),
    "shape not a list": (
        _set("grid", shape=8), "grid.shape: expected a list of integers"),
    "spacing a string": (
        _set("grid", spacing_m="a"), "grid.spacing_m: expected a number"),
    "K a string": (
        lambda cfg: cfg["recon"]["forward"].update(K="5"),
        "recon.forward.K: expected an integer"),
    "receivers without ring_radius_m": (
        _drop("receivers", "ring_radius_m"), "receivers.ring_radius_m: required"),
    "cylinders without a list": (
        _set("phantom", kind="cylinders"), "phantom.cylinders: required"),
    "cylinders not a list": (
        _set("phantom", kind="cylinders", cylinders={"radius_m": 0.1}),
        "phantom.cylinders: expected a list"),
    "transmitter entry without position_m": (
        lambda cfg: cfg.update(transmitters=[{"kind": "point"}]),
        "transmitters[0].position_m: required"),
    "fractional fista_iters": (
        _set("recon", fista_iters=1.5), "recon.fista_iters: expected an integer"),
    "unknown tv_variant": (
        _set("recon", tv_variant="foo"), "recon: tv_variant must be 'iso' or 'aniso'"),
    "unknown key recon.fista_iter": (
        _set("recon", fista_iter=3), "recon.fista_iter: unknown key"),
    "no transmitters": (
        lambda cfg: cfg.update(transmitters=[]), "transmitters: need at least one"),
    "zero grid refinement": (
        _set("generation", grid_refine=0), "generation.grid_refine: grid refinement"),
}


class TestMalformedConfig:
    """A malformed config exits 1 with one 'error:' line naming the key path."""

    def _simulate(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(data)
        out = tmp_path / "m.dat"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
    def test_malformed_config(self, tmp_path, capsys, case):
        edit, expected = MALFORMED_CONFIGS[case]
        cfg = write_config(tmp_path / "base.json")
        edit(cfg)
        err = self._simulate(tmp_path, capsys, json.dumps(cfg).encode())
        assert expected in err

    @pytest.mark.parametrize("data", [b'{"grid": ', b'{"grid": "\xff"}'],
                             ids=["truncated", "not UTF-8"])
    def test_unparsable_config(self, tmp_path, capsys, data):
        assert "config is not valid JSON" in self._simulate(tmp_path, capsys, data)

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.dat")]) == 3


def _cylinder(center):
    return _set("phantom", kind="cylinders",
                cylinders=[{"center_m": center, "radius_m": 0.05, "contrast": 0.1}])


def _grid_3d(cfg):
    cfg["grid"]["shape"] = [6, 6, 6]


def _grid_3d_point_source(cfg):
    _grid_3d(cfg)
    cfg["transmitters"] = [{"kind": "point", "position_m": [0.8, 0.0, 0.0]}]


# vectors whose length is not the grid's axis count (the grid is 12 x 12)
WRONG_LENGTH_CONFIGS = {
    "3-entry cylinder center": (
        _cylinder([0.0, 0.0, 0.0]),
        "phantom.cylinders[0].center_m: expected 2 coordinates, one per axis, got 3"),
    "1-entry cylinder center": (
        _cylinder([0.0]), "phantom.cylinders[0].center_m: expected 2 coordinates"),
    "3-entry transmitter position": (
        lambda cfg: cfg.update(transmitters=[
            {"kind": "point", "position_m": [0.8, 0.0]},
            {"kind": "point", "position_m": [0.8, 0.0, 0.1]}]),
        "transmitters[1].position_m: expected 2 coordinates, one per axis, got 3"),
    "1-entry plane direction": (
        lambda cfg: cfg.update(transmitters=[{"kind": "plane", "direction": [1.0]}]),
        "transmitters[0].direction: expected 2 coordinates, one per axis, got 1"),
    "point-ring on a 3D grid": (
        _grid_3d, "transmitters: a point-ring needs a 2D grid"),
    "receiver ring on a 3D grid": (
        _grid_3d_point_source, "receivers: a receiver ring needs a 2D grid"),
}


class TestConfigVectorLength:
    """A vector that does not fit the grid exits 1 naming its key path; it
    used to pass parse_config and end in a numpy broadcasting traceback."""

    @pytest.mark.parametrize("case", list(WRONG_LENGTH_CONFIGS))
    def test_wrong_length_names_key(self, tmp_path, capsys, case):
        edit, expected = WRONG_LENGTH_CONFIGS[case]
        cfg = write_config(tmp_path / "base.json")
        edit(cfg)
        err = TestMalformedConfig()._simulate(tmp_path, capsys,
                                              json.dumps(cfg).encode())
        assert expected in err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["reconstruct"]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--measurements", str(tmp_path / "nope.dat"),
                     "--out", str(tmp_path)]) == 3

    def test_grid_axes_differ_from_measurements(self, tmp_path, capsys):
        # a 3D grid config against a 2D measurement file: it used to end in a
        # numpy broadcasting traceback from the sensor-inside check
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        cfg3_path = tmp_path / "cfg3.json"
        cfg3_path.write_text(fileio.serialize_config({
            "grid": {**cfg["grid"], "shape": [6, 6, 6]}, "recon": cfg["recon"]}))
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(cfg3_path),
                   "--measurements", str(meas), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == ("error: measurement receiver positions have 2 axes "
                       "but the grid has 3\n")

    def test_malformed_grid_csv_is_io_error(self, tmp_path, capsys):
        grid = wt.centered_grid((3, 3), spacing=0.01, wavelength=0.1)
        ref = tmp_path / "ref.csv"
        fileio.emit_grid_csv(np.ones(grid.shape), grid, ref)
        lines = ref.read_bytes().splitlines()
        lines[3] = b"1,1"
        est = tmp_path / "est.csv"
        est.write_bytes(b"\n".join(lines) + b"\n")
        rc = main(["metrics", "--estimate", str(est), "--reference", str(ref)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == "i/o error: line 4: 2 values, the first row has 3\n"

    def test_metrics_shapes_differ(self, tmp_path, capsys):
        # two well-formed grids of different shapes: it used to end in a
        # DimensionError traceback from the metric itself
        for name, shape in (("est.csv", (3, 3)), ("ref.csv", (3, 4))):
            grid = wt.centered_grid(shape, spacing=0.01, wavelength=0.1)
            fileio.emit_grid_csv(np.ones(shape), grid, tmp_path / name)
        rc = main(["metrics", "--estimate", str(tmp_path / "est.csv"),
                   "--reference", str(tmp_path / "ref.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: estimate shape (3, 3) differs from reference shape (3, 4)\n"

    def test_bad_config_value(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={"receivers": {
            "ring_radius_m": 0.9, "count": 10, "subsample": 5}})
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "m.dat")]) == 1
