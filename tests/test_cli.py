import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import wavetomo as wt
from wavetomo import cli, fileio, recon, simulate
from wavetomo.cli import build_parser, main
from wavetomo.grid import refined_grid
from test_io import assert_written_as_new_files, linked_old_files


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


def _readme_commands():
    """Each `wavetomo ...` line of README's code blocks, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("wavetomo ")]


README_COMMANDS = _readme_commands()


class TestReadmeCommands:
    """README's commands parse, so a flag that changes shape fails until the
    README follows (the CLI twin of test_readme_table_lists_schema_keys)."""

    def test_every_subcommand_is_shown(self):
        assert {argv[0] for argv in README_COMMANDS} == {
            "simulate", "reconstruct", "metrics", "analytic", "gradcheck", "sweep"}

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=[a[0] for a in README_COMMANDS])
    def test_command_parses(self, argv):
        assert build_parser().parse_args(argv).command == argv[0]


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

    @pytest.mark.parametrize("wave, message", [
        ([], "one of the arguments --wavelength --k-b is required"),
        (["--wavelength", "0.0749", "--k-b", "84.0"],
         "argument --k-b: not allowed with argument --wavelength"),
        (["--wavelength", "0"], "--wavelength must be positive"),
        # these two used to end in an OverflowError and a TypeError traceback
        (["--k-b", "inf"], "background wavenumber must be positive and finite"),
        (["--wavelength", "1e-300"],
         "harmonic order cutoff 4.70611e+299 exceeds the maximum 1000"),
        (["--k-b", "84.0", "--index", "inf"],
         "refractive index must be positive and finite"),
        (["--k-b", "84.0", "--source-distance", "inf"],
         "need finite source distance r_s > object radius r_sph > 0"),
        (["--k-b", "84.0", "--truncation", "1001"],
         "harmonic order cutoff 1001 exceeds the maximum 1000"),
    ], ids=["neither", "both", "zero wavelength", "infinite k_b", "tiny wavelength",
            "infinite index", "infinite source distance", "truncation past the maximum"])
    def test_wavelength_or_k_b(self, tmp_path, capsys, wave, message):
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", *wave, "--out", str(tmp_path / "f.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines()[-1] == f"error: {message}"

    def test_points_not_utf8(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(b"0.1,0.2\n0.2,0.3 \xff\n")
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", "--wavelength", "0.0749",
                   "--points", str(pts), "--out", str(tmp_path / "f.csv")])
        assert rc == 3
        assert capsys.readouterr().err == "i/o error: line 2: not UTF-8 text\n"

    @pytest.mark.parametrize("flags, message", [
        (["--n-samples", "-1"], "--n-samples must be >= 1"),
        (["--n-samples", "0"], "--n-samples must be >= 1"),
        (["--sample-radius", "inf"], "--sample-radius must be positive and finite"),
        (["--sample-radius", "-1"], "--sample-radius must be positive and finite"),
        (["--sample-radius", "0"], "--sample-radius must be positive and finite"),
    ], ids=["negative count", "zero count", "infinite radius", "negative radius",
            "zero radius"])
    def test_bad_sampling_flags(self, tmp_path, capsys, flags, message):
        # these used to end in a traceback, an empty table, rows at the
        # center labelled r = -1, or a silent 2*radius for --sample-radius 0
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", "--wavelength", "0.0749",
                   *flags, "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "f.csv").exists()

    def test_points_without_a_sample(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("# r, theta\n\n# none yet\n")
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", "--wavelength", "0.0749",
                   "--points", str(pts), "--out", str(tmp_path / "f.csv")])
        assert rc == 3
        assert capsys.readouterr().err == "i/o error: line 1: no sample points\n"
        assert not (tmp_path / "f.csv").exists()

    def test_negative_point_radius(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.1,0.2\n0.0,0.3\n-0.1,0.4\n")
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", "--wavelength", "0.0749",
                   "--points", str(pts), "--out", str(tmp_path / "f.csv")])
        assert rc == 3
        assert capsys.readouterr().err == "i/o error: line 3: r must be >= 0\n"

    @pytest.mark.parametrize("row", ["0.2,x", "0.2", "0.2;0.3", "nan,0.3"])
    def test_malformed_points(self, tmp_path, capsys, row):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"# r, theta\n0.1,0.2\n\n{row}\n0.3,0.4\n")
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", "--wavelength", "0.0749",
                   "--points", str(pts), "--out", str(tmp_path / "f.csv")])
        assert rc == 3
        assert capsys.readouterr().err == ("i/o error: line 4: expected finite "
                                           "numbers r,theta\n")


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

    def test_outputs_are_new_files(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out, keep = tmp_path / "out", tmp_path / "keep"
        out.mkdir(), keep.mkdir()
        paths = [out / name for name in ("m.dat", "f_hat.csv", "f_hat.pgm",
                                         "f_hat.pgm.window.txt", "report.json", "m.json")]
        linked_old_files(paths, keep)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out / "m.dat")]) == 0
        assert main(["reconstruct", "--config", str(cfg_path), "--measurements",
                     str(out / "m.dat"), "--out", str(out)]) == 0
        fileio.emit_grid_csv(np.ones((12, 12)), fileio.grid_from_config(
            fileio.parse_config(cfg_path.read_text())), tmp_path / "ref.csv")
        assert main(["metrics", "--estimate", str(tmp_path / "ref.csv"), "--reference",
                     str(tmp_path / "ref.csv"), "--out", str(out / "m.json")]) == 0
        assert_written_as_new_files(paths, keep)

    def test_readme_lists_report_keys(self, tmp_path):
        # the README's key table names exactly what reconstruct writes: model,
        # iterations and every ReconReport field but f_hat
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        assert main(["reconstruct", "--config", str(cfg_path), "--measurements",
                     str(meas), "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "report.json").read_text())
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("`report.json` holds these keys:\n\n")[1].split("\n\n")[0]
        rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
        fields = [f.name for f in dataclasses.fields(wt.ReconReport) if f.name != "f_hat"]
        assert sorted(rows) == sorted(written) == sorted(["model", "iterations", *fields])

    def test_3d_reconstruct_writes_report(self, tmp_path, rng):
        # it used to finish the solve, write f_hat.csv, then exit 1 on the
        # 2D-only graymap before writing report.json
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(fileio.serialize_config({
            "grid": {"shape": [6, 6, 6], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
            "recon": {"forward": {"K": 3, "delta_tol_rel": 0}, "fista_iters": 2}}))
        # 12 receivers on a sphere: the vertices of an icosahedron
        phi = 0.5 * (1 + np.sqrt(5))
        corners = [(0.0, a, b * phi) for a in (-1, 1) for b in (-1, 1)]
        points = np.array([np.roll(c, shift) for c in corners for shift in range(3)])
        receivers = wt.SensorSet(0.9 * points / np.linalg.norm(points, axis=1)[:, None])
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        meas = tmp_path / "m.dat"
        fileio.save_measurements(meas, wt.MeasurementSet(
            [wt.Transmitter("point", position=(0.8, 0.0, 0.0))], receivers,
            [np.arange(12)], [1e-3 * y]))
        outdir = tmp_path / "out"
        # the box keeps f at 0 on these random data, so the fit stays at 1
        with pytest.warns(wt.ConvergenceWarning, match="^FISTA made no progress"):
            assert main(["reconstruct", "--config", str(cfg_path),
                         "--measurements", str(meas), "--out", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert len(report["step_history"]) == report["iterations"] == 2
        assert report["step_history"][0] > 0 and "step_gamma" not in report
        assert fileio.load_grid_csv(outdir / "f_hat.csv")[0].shape == (6, 6, 6)
        assert not list(outdir.glob("*.pgm*"))

    def test_from_file_phantom_at_grid_refine_2(self, tmp_path, rng):
        # the file has the reconstruction grid's shape; it used to be checked
        # against the refined grid too, so a refined simulate always exited 1.
        # Each value fills its 2 x 2 sub-pixels of the generation grid
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        grid = fileio.grid_from_config(cfg)
        values = rng.standard_normal(grid.shape)
        phantom = tmp_path / "phantom.csv"
        fileio.emit_grid_csv(values, grid, phantom)
        cfg = write_config(cfg_path, overrides={
            "phantom": {"kind": "from_file", "path": str(phantom)}})
        truth = tmp_path / "truth.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "m.dat"), "--truth", str(truth)]) == 0
        assert np.array_equal(fileio.load_grid_csv(truth)[0], values)
        fine = refined_grid(grid, cfg["generation"]["grid_refine"])
        assert np.array_equal(simulate.render_phantom(cfg, fine),
                              values.repeat(2, axis=0).repeat(2, axis=1))

    def test_from_file_phantom_shape_names_the_grid(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        phantom = tmp_path / "phantom.csv"
        small = wt.centered_grid((6, 6), spacing=0.5 / 8, wavelength=0.5)
        fileio.emit_grid_csv(np.ones(small.shape), small, phantom)
        write_config(cfg_path, overrides={
            "phantom": {"kind": "from_file", "path": str(phantom)}})
        assert main(["simulate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "m.dat")]) == 1
        assert capsys.readouterr().err == ("error: phantom file shape (6, 6) does not "
                                           "match grid (12, 12)\n")

    def test_capped_generation_warns_and_writes(self, tmp_path):
        # a generation solve that stops at k_multiplier * K iterations warns,
        # and the command still writes its data and exits 0
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={
            "phantom": {"kind": "cylinders", "cylinders": [
                {"center_m": [0.0, 0.0], "radius_m": 0.07, "contrast": 0.1}]},
            "recon": {"forward": {"K": 1}},
            "generation": {"k_multiplier": 1}})
        meas = tmp_path / "m.dat"
        with pytest.warns(wt.ConvergenceWarning, match="BiCGStab reached 1 iterations"):
            assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        assert fileio.load_measurements(meas).n_tx == 2

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

    def test_readme_lists_printed_keys(self, tmp_path, capsys):
        # the README's key table names exactly what metrics prints and writes
        grid = wt.centered_grid((4, 4), spacing=0.01, wavelength=0.1)
        for name, scale in (("ref.csv", 1.0), ("est.csv", 0.9)):
            fileio.emit_grid_csv(scale * np.arange(1.0, 17.0).reshape(4, 4), grid,
                                 tmp_path / name)
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["metrics", "--estimate", str(tmp_path / "est.csv"), "--reference",
                     str(tmp_path / "ref.csv"), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("`metrics` prints these keys:\n\n")[1].split("\n\n")[0]
        rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
        assert sorted(rows) == sorted(printed) == ["normalized_error", "snr_db"]


class TestGradcheckCommand:
    def test_fixed_step_passes(self):
        assert main(["gradcheck", "--grid-size", "6", "--K", "1", "2",
                     "--seed", "1"]) == 0

    def test_wrong_loop_gradient_fails(self, capsys, monkeypatch):
        # the reference gradient still passes; only the loop's line fails
        def flipped(*args):
            grad, D = recon.total_gradient(*args)
            return -grad, D

        monkeypatch.setattr(cli, "total_gradient", flipped)
        rc = main(["gradcheck", "--grid-size", "4", "--K", "1", "--seed", "1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert [line.split()[2] for line in out.splitlines()] == ["fixed", "loop"]
        assert err.startswith("numerical failure: gradient check failed: 2.000e+00")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol(self, capsys, tol):
        # a nan tolerance would pass any gradient; 0 must not fall back to the default
        rc = main(["gradcheck", "--grid-size", "4", "--K", "1", "--tol", tol])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: --tol must be positive and finite\n")

    def test_negative_seed(self, capsys):
        # numpy's seed error used to end in a traceback
        rc = main(["gradcheck", "--grid-size", "4", "--K", "1", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: --seed must be >= 0\n")


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

    def test_contrast_sweep_needs_the_cylinder_at_the_origin(self, tmp_path, capsys):
        # the analytic comparison puts the cylinder at the origin; an offset
        # center_m used to be ignored, and wrote the same table
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={
            "transmitters": [{"position_m": [0.8, 0.0]}],
            "phantom": {"kind": "cylinders",
                        "cylinders": [{"center_m": [0.05, 0.0],
                                       "radius_m": 0.07, "contrast": 0.1}]},
        })
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--contrast",
                   "0.1:0.1:0.2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: phantom.cylinders[0].center_m: contrast sweep needs the "
            "cylinder at the coordinate origin\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message, config", [
        (["--subsample", "2"], "--subsample needs --measurements", None),
        (["--subsample", "2,x", "--measurements", "m.dat"],
         "--subsample: expected comma-separated powers of 2 up to 128, got '2,x'", None),
        (["--contrast", "0.1:x:0.2"],
         "--contrast: expected start:step:stop numbers, got '0.1:x:0.2'", None),
        (["--contrast", "0.1:0.1"],
         "--contrast: expected start:step:stop numbers, got '0.1:0.1'", None),
        (["--contrast", "0:1e-300:1"],
         "--contrast: range must have at most 10000 points", None),
        (["--contrast=-1e308:1:1e308"],
         "--contrast: range must have at most 10000 points", None),
        (["--contrast=-0.1:0.1:-0.2"],
         "--contrast: range must be finite with step > 0 and stop >= start", None),
        # it used to fail on the 2D cylinder the sweep builds for itself
        (["--contrast", "0.1:0.1:0.2"],
         "contrast sweep needs a 2D grid, got grid.shape (6, 6, 6)", {
             "grid": {"shape": [6, 6, 6], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
             "transmitters": [{"position_m": [0.8, 0.0, 0.0]}],
             "phantom": {"kind": "cylinders",
                         "cylinders": [{"center_m": [0.0, 0.0, 0.0],
                                        "radius_m": 0.05, "contrast": 0.1}]}}),
        ([], "sweep needs --contrast or --subsample", None),
        (["--contrast", "0.1:0.1:0.2"], "contrast sweep needs a single-cylinder phantom", {
            "grid": {"shape": [12, 12], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
            "transmitters": [{"position_m": [0.8, 0.0]}],
            "phantom": {"kind": "cylinders",
                        "cylinders": [{"center_m": [0.0, 0.0], "radius_m": 0.05,
                                       "contrast": 0.1},
                                      {"center_m": [0.1, 0.0], "radius_m": 0.02,
                                       "contrast": 0.1}]}}),
        (["--contrast", "0.1:0.1:0.2"], "contrast sweep needs a point source", {
            "grid": {"shape": [12, 12], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
            "transmitters": [{"kind": "plane", "direction": [1.0, 0.0]},
                             {"position_m": [0.8, 0.0]}],
            "phantom": {"kind": "cylinders",
                        "cylinders": [{"center_m": [0.0, 0.0], "radius_m": 0.05,
                                       "contrast": 0.1}]}}),
    ], ids=["subsample without measurements", "non-integer factor",
            "non-numeric bound", "two bounds", "too many points",
            "overflowing span", "negative start after =", "3D grid",
            "neither sweep", "two cylinders", "plane wave first"])
    def test_bad_sweep_flags(self, tmp_path, capsys, flags, message, config):
        cfg_path = tmp_path / "cfg.json"
        if config is None:
            write_config(cfg_path)
        else:
            cfg_path.write_text(fileio.serialize_config(config))
        rc = main(["sweep", "--config", str(cfg_path), *flags,
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_subsample_sweep_table(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={
            "grid": {"shape": [16, 16], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
            "transmitters": {"kind": "point-ring", "radius_m": 0.8, "count": 4},
            "receivers": {"ring_radius_m": 0.9, "count": 32, "subsample": 1},
            "phantom": {"kind": "cylinders",
                        "cylinders": [{"center_m": [0.0, 0.0], "radius_m": 0.1,
                                       "contrast": 0.1}]},
        })
        meas = tmp_path / "meas.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        # factor 1 reuses the full-set reconstruction instead of running it twice
        calls = []
        reconstruct = cli.fista_reconstruct

        def counted(mset, *args, **kwargs):
            calls.append(mset)
            return reconstruct(mset, *args, **kwargs)

        monkeypatch.setattr(cli, "fista_reconstruct", counted)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_path), "--subsample", "1,2,4",
                     "--measurements", str(meas), "--model", "born", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "factor,receivers_per_tx,snr_db,data_fit"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert [row[:2] for row in rows] == [[1, 32], [2, 16], [4, 8]]
        assert rows[0][2] == np.inf and all(np.isfinite(row[2]) for row in rows[1:])
        assert all(0 <= row[3] < np.inf for row in rows)
        assert [m.active_indices[0].size for m in calls] == [32, 16, 8]

    def test_factor_that_empties_a_transmitter_exits_before_reconstructing(
            self, tmp_path, capsys, monkeypatch):
        # it used to reconstruct from the full set first and fail after
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        ring = wt.ring_sensors(10, radius=0.9)
        fileio.save_measurements(meas, wt.MeasurementSet(
            [wt.Transmitter("point", position=(0.8, 0.0))], ring, [np.array([3])],
            [np.ones(1, complex)]))
        monkeypatch.setattr(cli, "fista_reconstruct", _no_solve)
        assert main(["sweep", "--config", str(cfg_path), "--subsample", "1,2",
                     "--measurements", str(meas), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == "error: subsampling by 2 keeps no receiver of 1\n"

    def test_negative_start_needs_equals(self, tmp_path, capsys):
        # argparse reads a range that starts with '-' as the next flag
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        rc = main(["sweep", "--config", str(cfg_path), "--contrast", "-0.1:0.1:0.2",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: wavetomo")
        assert err[-1] == ("error: argument --contrast: expected one argument "
                           "(a value that starts with '-' needs --contrast=VALUE)")

    def test_K_takes_one_order(self, tmp_path, capsys):
        # a list of orders used to run a full solve per order and report the last
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        rc = main(["sweep", "--config", str(cfg_path), "--contrast", "0.1:0.1:0.2",
                   "--K", "16", "64", "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: wavetomo")
        assert err[-1] == "error: unrecognized arguments: 64"


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
        _set("recon", tv_variant="foo"), "recon.tv_variant: unknown key"),
    "unknown key recon.fista_iter": (
        _set("recon", fista_iter=3), "recon.fista_iter: unknown key"),
    # it used to exit 0 and write a file with no data rows
    "subsample that keeps no receiver": (
        _set("receivers", count=1, subsample=2),
        "receivers.subsample: subsampling by 2 keeps no receiver of 1"),
    # it used to run the generation at K = 1 and exit 0
    "negative k_multiplier": (
        _set("generation", k_multiplier=-3), "generation.k_multiplier: must be positive"),
    "no transmitters": (
        lambda cfg: cfg.update(transmitters=[]), "transmitters: need at least one"),
    "zero grid refinement": (
        _set("generation", grid_refine=0), "generation.grid_refine: grid refinement"),
    "NaN tau_rel": (
        _set("recon", tau_rel=float("nan")), "recon: tau_rel must be a finite number"),
    "removed key recon.tau": (_set("recon", tau=1e-6), "recon.tau: unknown key"),
    "removed key recon.workers": (_set("recon", workers=2), "recon.workers: unknown key"),
    "removed key recon.tv_delta": (
        _set("recon", tv_delta=1e-4), "recon.tv_delta: unknown key"),
    "removed key recon.forward.stop_on": (
        lambda cfg: cfg["recon"]["forward"].update(stop_on="gradient"),
        "recon.forward.stop_on: unknown key"),
    "removed key recon.forward.nu": (
        lambda cfg: cfg["recon"]["forward"].update(nu=0.5),
        "recon.forward.nu: unknown key"),
    # non-finite numbers: each used to run the whole simulation, then exit 0
    # with an empty phantom, exit 1 naming no key, or end in a traceback
    "NaN cylinder radius": (
        _set("phantom", kind="cylinders", cylinders=[
            {"center_m": [0.0, 0.0], "radius_m": float("nan"), "contrast": 0.1}]),
        "phantom.cylinders[0]: cylinder radius must be positive and finite"),
    "NaN cylinder contrast": (
        _set("phantom", kind="cylinders", cylinders=[
            {"center_m": [0.0, 0.0], "radius_m": 0.05, "contrast": float("nan")}]),
        "phantom.cylinders[0]: cylinder contrast must be finite"),
    "overflowing pixel volume": (
        _set("grid", spacing_m=1e200),
        "grid: pixel volume spacing**2 must be positive and finite"),
    "infinite spacing": (
        _set("grid", spacing_m=float("inf")), "grid: spacing must be positive and finite"),
    "NaN origin": (
        _set("grid", origin_m=[float("nan"), 0.0]), "grid: origin must be finite"),
    "NaN receiver ring radius": (
        _set("receivers", ring_radius_m=float("nan")),
        "receivers: ring radius and phase must be finite"),
    "infinite transmitter ring radius": (
        _set("transmitters", radius_m=float("inf")),
        "transmitters: ring radius and phase must be finite"),
    # huge but finite numbers: each used to run the whole simulation, then
    # exit 1 on a non-finite measurement that named no key
    "tiny wavelength": (
        _set("grid", wavelength_m=1e-300),
        "grid: k_b times the grid extent, from grid.wavelength_m,"),
    "huge background permittivity": (
        _set("grid", background_permittivity=1e300), "grid.background_permittivity"),
    "far grid origin": (
        _set("grid", origin_m=[1e300, 0.0]),
        "grid.origin_m: k_b times the distance of the grid center"),
    "huge cylinder contrast": (
        _set("phantom", kind="cylinders", cylinders=[
            {"center_m": [0.0, 0.0], "radius_m": 0.05, "contrast": 1e300}]),
        "phantom.cylinders[0].contrast: k_b sqrt(|contrast|) times the grid extent"),
    "huge head phantom contrast": (
        _set("phantom", kind="shepp_logan", contrast=-1e300),
        "phantom.contrast: k_b sqrt(|contrast|) times the grid extent"),
    "huge receiver ring radius": (
        _set("receivers", ring_radius_m=1e300),
        "receivers.ring_radius_m: k_b times the ring radius"),
    "huge transmitter ring radius": (
        _set("transmitters", radius_m=-1e300),
        "transmitters.radius_m: k_b times the ring radius"),
    "far point source": (
        lambda cfg: cfg.update(transmitters=[{"position_m": [1e300, 1e300]}]),
        "transmitters[0].position_m: k_b times the distance from the origin"),
    "NaN noise SNR": (
        _set("generation", noise_snr_db=float("nan")),
        "generation.noise_snr_db: must be finite"),
}


def _no_solve(*args, **kwargs):
    raise AssertionError("a field solve ran")


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
    def test_malformed_config(self, tmp_path, capsys, monkeypatch, case):
        # rejected while the config is read, before any field solve
        monkeypatch.setattr(recon, "bicgstab", _no_solve)
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
        "phantom.cylinders[0]: cylinder center needs 2 coordinates, got shape (3,)"),
    "1-entry cylinder center": (
        _cylinder([0.0]), "phantom.cylinders[0]: cylinder center needs 2 coordinates"),
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

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # an allocation too large for the host, such as analytic --n-samples
        # 1e11, used to end in numpy's _ArrayMemoryError traceback
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "analytic_field_2d", fail)
        rc = main(["analytic", "--radius", "0.0749", "--index", "1.1",
                   "--source-distance", "1.0", "--wavelength", "0.0749",
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 745. GiB\n"

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

    @pytest.mark.parametrize("positions, tx_position, shape", [
        ([], [], "(0,)"), ([[]], [], "(1, 0)"),
        ([[0.9], [-0.9]], [0.8], "(2, 1)"),
        ([[0.9, 0.0, 0.0, 0.0], [-0.9, 0.0, 0.0, 0.0]], [0.8, 0.0, 0.0, 0.0], "(2, 4)"),
    ], ids=["empty list", "empty point", "1 coordinate", "4 coordinates"])
    def test_header_positions_no_grid_reads(self, tmp_path, capsys, positions,
                                            tx_position, shape):
        # these used to load, with transmitter positions of the same length,
        # and exit 1 in reconstruct ("receiver positions have 0 axes")
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        lines = meas.read_text().splitlines()
        header = json.loads(lines[0])
        header["receiver_positions_m"] = positions
        for tx in header["transmitters"]:
            tx["position_m"] = tx_position
        meas.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(cfg_path), "--measurements", str(meas),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "i/o error: line 1: header.receiver_positions_m: sensor positions must have "
            f"shape (M, 2) or (M, 3), got {shape}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [], "line 1: empty file"),
        (lambda lines: [*lines[:2], b"0,1,1,inf", *lines[3:]], "line 3: non-finite value"),
    ], ids=["empty file", "non-finite value"])
    def test_malformed_measurements(self, tmp_path, capsys, edit, message):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        meas.write_bytes(b"".join(ln + b"\n" for ln in edit(meas.read_bytes().splitlines())))
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(cfg_path),
                   "--measurements", str(meas), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == f"i/o error: {message}\n"

    def test_transmitter_without_rows(self, tmp_path, capsys):
        # it used to load and fail in reconstruct on an empty receiver mask
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        lines = meas.read_bytes().splitlines()
        kept = [ln for ln in lines if not ln.startswith(b"1,")]
        meas.write_bytes(b"\n".join(kept) + b"\n")
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(cfg_path),
                   "--measurements", str(meas), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == ("i/o error: line 1: transmitter 1 has no "
                                           "data rows\n")

    @pytest.mark.parametrize("path, phase", [
        ("header.receiver_positions_m[3]", "1.26e+301"),
        ("header.transmitters[1].position_m", "1.26e+13"),
    ], ids=["receiver", "point transmitter"])
    def test_far_header_position(self, tmp_path, capsys, path, phase):
        # a far receiver used to pass the loader and end in RuntimeWarnings
        # and "non-finite gradient at the initial iterate" (exit 2)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        lines = meas.read_text().splitlines()
        header = json.loads(lines[0])
        if "receiver" in path:
            header["receiver_positions_m"][3] = [1e300, 0.0]
        else:
            header["transmitters"][1]["position_m"] = [0.0, -1e12]
        meas.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["reconstruct", "--config", str(cfg_path), "--measurements",
                       str(meas), "--model", "born", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"i/o error: line 1: {path}: k_b times the distance from the grid "
            f"center is {phase} rad, above the 1e+08 rad double precision resolves\n")

    def test_frequency_differs_from_the_grid(self, tmp_path, capsys):
        # data simulated at one wavelength used to reconstruct silently on a
        # grid of another
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        write_config(cfg_path, overrides={"grid": {**cfg["grid"], "wavelength_m": 0.4}})
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(cfg_path),
                   "--measurements", str(meas), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "i/o error: line 1: header.frequency_hz: 599584916 Hz, but "
            "grid.wavelength_m implies 749481145 Hz\n")

    def test_rytov_on_vanishing_incident_field(self, tmp_path, capsys):
        # a transmitter of zero amplitude has no incident field at the
        # receivers to divide by; it used to end in a TransformError traceback
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        lines = meas.read_text().splitlines()
        header = json.loads(lines[0])
        header["transmitters"][1]["amplitude"] = [0.0, 0.0]
        meas.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(cfg_path), "--measurements",
                   str(meas), "--model", "rytov", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: incident field vanishes at a sensor\n"

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

    def test_metrics_zero_reference(self, tmp_path, capsys):
        # it used to end in a ValueError traceback from the metric
        grid = wt.centered_grid((3, 3), spacing=0.01, wavelength=0.1)
        for name, values in (("est.csv", np.ones(grid.shape)),
                             ("ref.csv", np.zeros(grid.shape))):
            fileio.emit_grid_csv(values, grid, tmp_path / name)
        rc = main(["metrics", "--estimate", str(tmp_path / "est.csv"),
                   "--reference", str(tmp_path / "ref.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: reference field has zero norm\n"

    @pytest.mark.parametrize("shape, values, message", [
        ((3, 3), 1.0, "ground truth has shape (3, 3), expected grid shape (12, 12)"),
        ((12, 12), 0.0, "ground truth has zero norm")], ids=["wrong shape", "all zero"])
    def test_bad_ground_truth(self, tmp_path, capsys, monkeypatch, shape, values,
                              message):
        # these used to end in a traceback, the wrong shape only after the
        # initial gradient; now they are rejected before any field solve
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        meas = tmp_path / "m.dat"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(meas)]) == 0
        truth = tmp_path / "truth.csv"
        grid = wt.centered_grid(shape, spacing=0.5 / 16, wavelength=0.5)
        fileio.emit_grid_csv(np.full(shape, values), grid, truth)
        capsys.readouterr()
        monkeypatch.setattr(recon, "bicgstab", _no_solve)
        rc = main(["reconstruct", "--config", str(cfg_path), "--measurements", str(meas),
                   "--ground-truth", str(truth), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_receiver_on_pixel_center(self, tmp_path, capsys):
        # 15 x 15 pixels at 1 cm: the 7 cm ring's receivers sit on pixel
        # centers of the unrefined generation grid; it used to end in a
        # SingularityError traceback
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={
            "grid": {"shape": [15, 15], "spacing_m": 0.01, "wavelength_m": 0.16},
            "receivers": {"ring_radius_m": 0.07, "count": 4},
            "generation": {"grid_refine": 1}})
        with pytest.warns(UserWarning, match="inside the imaging domain"):
            rc = main(["simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "m.dat")])
        assert rc == 1
        assert capsys.readouterr().err == ("error: a sensor coincides with a "
                                           "pixel center\n")

    def test_bad_config_value(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, overrides={"receivers": {
            "ring_radius_m": 0.9, "count": 10, "subsample": 5}})
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "m.dat")]) == 1
