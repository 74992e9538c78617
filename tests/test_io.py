import ast
import dataclasses
import importlib.util
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wavetomo as wt
from wavetomo import fileio, simulate
from reference import dense_A_matrix, fine_grid_data
from wavetomo.errors import ConfigError, MeasurementParseError
from wavetomo.grid import refined_grid
from wavetomo.simulate import simulate_measurements


def assert_fine_grid_data(mset, cfg):
    """The data of every transmitter agree with those generated on the whole
    refined grid to 1e-9 relative: the solves stop at GENERATION_RESIDUAL =
    1e-10, and the two generations differed by at most 1.0e-10."""
    for y, expect in zip(mset.y, fine_grid_data(cfg), strict=True):
        assert np.linalg.norm(y - expect) <= 1e-9 * np.linalg.norm(expect)


def base_config():
    return {
        "grid": {"shape": [12, 12], "spacing_m": 0.5 / 16, "wavelength_m": 0.5},
        "transmitters": {"kind": "point-ring", "radius_m": 0.8, "count": 3},
        "receivers": {"ring_radius_m": 0.9, "count": 14, "subsample": 1},
        "phantom": {"kind": "cylinders",
                    "cylinders": [{"center_m": [0.0, 0.0], "radius_m": 0.07,
                                   "contrast": 0.1}]},
        "recon": {"forward": {"K": 6}, "tau_rel": 1e-9, "fista_iters": 2},
        "generation": {"grid_refine": 2, "k_multiplier": 2},
        "seed": 0,
    }


# (key path under recon, bad value): loop settings __post_init__ rejects
BAD_LOOP_SETTINGS = [
    ("tau_rel", float("nan")), ("tau_rel", float("inf")), ("tau_rel", -1e-9),
    ("forward.delta_tol_rel", float("nan")), ("forward.delta_tol_rel", float("inf")),
    ("forward.delta_tol_rel", 1e-30),
]

# (key path, a value it used to accept): each removed key, as listed in the
# first column of the README's "Removed keys" table, which says why each went
# and what to do instead.  recon.tv_delta carries the two values its range
# check rejected: the key is refused before any value is looked at.
REMOVED_KEYS = [
    ("recon.tau", 1e-6), ("recon.forward.delta_tol", 1e-6),
    ("recon.forward.step_mode", "fixed"), ("recon.step_gamma", 1.0),
    ("recon.tv_variant", "iso"), ("recon.workers", 2), ("recon.forward.stop_on", "gradient"),
    ("recon.tv_delta", -1e-4), ("recon.tv_delta", float("nan")), ("recon.forward.nu", 0.5),
    ("recon.tv_iters", 10), ("phantom.supersample", 8), ("phantom.extent_m", 0.5),
]


def _edit(section, **keys):
    return lambda cfg: cfg[section].update(keys)


def _cylinder(**keys):
    return lambda cfg: cfg["phantom"]["cylinders"][0].update(keys)


def _head(**keys):
    return lambda cfg: cfg.update(phantom={"kind": "shepp_logan", "contrast": 0.1, **keys})


def _head_on_3d_grid(cfg):
    # the rings need a 2D grid, and a config may leave them out
    _head()(cfg)
    cfg["grid"]["shape"] = [6, 6, 6]
    del cfg["transmitters"], cfg["receivers"]


def _head_off_the_grid(cfg):
    # the 12^2 grid of 0.03125 m, 3 m from the head at the origin
    _head()(cfg)
    cfg["grid"]["origin_m"] = [3.0, 0.0]


def _render(cfg):
    """cfg's phantom from phantoms.py, past the parser."""
    grid, p = fileio.grid_from_config(cfg), cfg["phantom"]
    if p["kind"] == "shepp_logan":
        return wt.shepp_logan(grid, p["contrast"])
    specs = [(c["center_m"], c["radius_m"], c["contrast"]) for c in p["cylinders"]]
    return wt.cylinders(grid, specs)


def _subsample(cfg):
    """MeasurementSet.subsample on cfg's receiver ring, past the parser."""
    r = cfg["receivers"]
    ring = wt.ring_sensors(r["count"], r["ring_radius_m"])
    return wt.MeasurementSet([wt.Transmitter("point", position=(0.8, 0.0))], ring,
                             [np.arange(r["count"])], [np.zeros(r["count"])]
                             ).subsample(r["subsample"])


NAN, INF = float("nan"), float("inf")
# (edit of base_config, key path the parser names, the value's consumer):
# values the parser and the code that uses them must both reject
CONSUMED_VALUES = {
    "NaN cylinder radius": (_cylinder(radius_m=NAN), "phantom.cylinders[0]", _render),
    "infinite cylinder radius": (_cylinder(radius_m=INF), "phantom.cylinders[0]", _render),
    "zero cylinder radius": (_cylinder(radius_m=0.0), "phantom.cylinders[0]", _render),
    "negative cylinder radius": (_cylinder(radius_m=-0.1), "phantom.cylinders[0]", _render),
    "NaN cylinder center": (_cylinder(center_m=[NAN, 0.0]), "phantom.cylinders[0]", _render),
    "infinite cylinder center": (
        _cylinder(center_m=[0.0, -INF]), "phantom.cylinders[0]", _render),
    "NaN cylinder contrast": (_cylinder(contrast=NAN), "phantom.cylinders[0]", _render),
    "infinite cylinder contrast": (_cylinder(contrast=INF), "phantom.cylinders[0]", _render),
    "-infinite cylinder contrast": (
        _cylinder(contrast=-INF), "phantom.cylinders[0]", _render),
    "3-entry cylinder center": (
        _cylinder(center_m=[0.0, 0.0, 0.0]), "phantom.cylinders[0]", _render),
    "1-entry cylinder center": (_cylinder(center_m=[0.0]), "phantom.cylinders[0]", _render),
    "NaN head contrast": (_head(contrast=NAN), "phantom", _render),
    "infinite head contrast": (_head(contrast=INF), "phantom", _render),
    "-infinite head contrast": (_head(contrast=-INF), "phantom", _render),
    "head phantom on a 3D grid": (_head_on_3d_grid, "phantom", _render),
    "head phantom off the grid": (_head_off_the_grid, "phantom", _render),
    "zero subsample": (_edit("receivers", subsample=0), "receivers.subsample", _subsample),
    "negative subsample": (
        _edit("receivers", subsample=-2), "receivers.subsample", _subsample),
    "subsample 3": (_edit("receivers", subsample=3), "receivers.subsample", _subsample),
    "subsample 256": (_edit("receivers", subsample=256), "receivers.subsample", _subsample),
    "subsample that keeps no receiver": (
        _edit("receivers", count=1, subsample=2), "receivers.subsample", _subsample),
}


def _render_supersampled(cfg):
    """cfg's cylinders at its phantom.supersample, as a library caller may
    still pass it to cylinders."""
    grid, p = fileio.grid_from_config(cfg), cfg["phantom"]
    specs = [(c["center_m"], c["radius_m"], c["contrast"]) for c in p["cylinders"]]
    return wt.cylinders(grid, specs, supersample=p["supersample"])


# values of a removed key that its library consumer still rejects: the parser
# refuses the key itself, before its value is looked at
DROPPED_VALUES = {
    "zero supersample": (
        _edit("phantom", supersample=0), "phantom.supersample", _render_supersampled),
    "negative supersample": (
        _edit("phantom", supersample=-2), "phantom.supersample", _render_supersampled),
}


def _recon_with(path, value):
    recon = {"forward": {"K": 4}}
    section, _, key = path.rpartition(".")
    (recon.setdefault(section, {}) if section else recon)[key] = value
    return {"recon": recon}


def _config_with(path, value):
    """base_config() with ``value`` at the dotted key ``path``; extent_m goes
    into the head phantom, the kind that read it."""
    cfg = base_config()
    if path == "phantom.extent_m":
        _head()(cfg)
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return cfg


def _without_transmitters():
    cfg = base_config()
    del cfg["transmitters"]
    return cfg


# name -> (call given a scratch directory, message): rejections of fileio.py
# no other test reaches.  A config file reaches the first two, `wavetomo
# simulate` the third; library callers pass the readers and writers a
# config or an array themselves
FILEIO_REJECTIONS = {
    "config not an object": (lambda tmp: fileio.parse_config("[]"),
                             "config: expected an object"),
    "unknown phantom kind": (
        lambda tmp: fileio.parse_config(json.dumps({**base_config(), "phantom": {"kind": "ball"}})),
        'phantom.kind: expected one of none, cylinders, shepp_logan, from_file, got "ball"'),
    "simulation without transmitters": (
        lambda tmp: simulate_measurements(_without_transmitters()), "transmitters: required"),
    "library config not an object": (lambda tmp: fileio.grid_from_config([]),
                                     "config: expected an object"),
    "3D image": (lambda tmp: fileio.emit_image(np.ones((2, 2, 2)), tmp / "i.pgm"),
                 "image emission expects a 2D array"),
    "ragged table": (
        lambda tmp: fileio.emit_table_csv({"a": [1.0], "b": [1.0, 2.0]}, tmp / "t.csv"),
        "table columns differ in length"),
}


@pytest.mark.parametrize("case", list(FILEIO_REJECTIONS))
def test_rejections(tmp_path, case):
    call, message = FILEIO_REJECTIONS[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


class TestConfig:
    @pytest.mark.parametrize("path, value", BAD_LOOP_SETTINGS,
                             ids=[f"{p}={v}" for p, v in BAD_LOOP_SETTINGS])
    def test_bad_loop_setting_names_its_key(self, path, value):
        # all but a negative tau_rel used to be accepted, then ignored or overflowed
        key = path.rpartition(".")[2]
        with pytest.raises(ConfigError, match=rf"^recon\S*: {key} must be"):
            fileio.recon_config_from_config(_recon_with(path, value))

    @pytest.mark.parametrize("schema, settings", [
        (fileio.FORWARD_SCHEMA, wt.ForwardConfig),
        (fileio.RECON_SCHEMA, wt.ReconConfig)], ids=["forward", "recon"])
    def test_schema_keys_are_config_fields(self, schema, settings):
        # a setting without a config key is one only library callers and
        # tests can reach; defaults are not compared (K and delta_tol_rel
        # differ between the dataclass and the schema on purpose).  nu is the
        # one such setting: only the series reads it, and no config-driven
        # command runs the series
        assert set(schema) == {f.name for f in dataclasses.fields(settings)} - {"nu"}

    @pytest.mark.parametrize("field, value", [
        ("K", True), ("delta_tol_rel", True), ("nu", True),
        ("fista_iters", True), ("tau_rel", True)])
    def test_config_dataclasses_reject_bool(self, field, value):
        # the config file rejects a bool for every one of these keys but nu,
        # which has no key; the dataclasses used to take it as the integer 1
        # or 0
        with pytest.raises(ConfigError, match=rf"^{field} must be"):
            if field in ("K", "delta_tol_rel", "nu"):
                wt.ForwardConfig(**{"K": 3, field: value})
            else:
                wt.ReconConfig(forward=wt.ForwardConfig(K=3), **{field: value})

    def test_infinite_box_upper_stays_valid(self):
        cfg = fileio.recon_config_from_config(_recon_with("box.upper", float("inf")))
        assert cfg.box.b == np.inf

    # a recon key's id leaves out "recon."
    @pytest.mark.parametrize("path, value", REMOVED_KEYS,
                             ids=[f"{p.removeprefix('recon.')}={v}" if p == "recon.tv_delta"
                                  else p.removeprefix("recon.") for p, v in REMOVED_KEYS])
    def test_removed_keys_are_unknown(self, path, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: unknown key$"):
            fileio.parse_config(json.dumps(_config_with(path, value)))

    def test_round_trip(self):
        text = fileio.serialize_config(base_config())
        cfg = fileio.parse_config(text)
        assert fileio.serialize_config(cfg) == text
        grid = fileio.grid_from_config(cfg)
        assert grid.shape == (12, 12)

    def test_zero_size_grid_rejected(self):
        cfg = base_config()
        cfg["grid"]["shape"] = [0, 12]
        with pytest.raises(ConfigError):
            fileio.parse_config(json.dumps(cfg))

    @pytest.mark.parametrize("section, key, value, message", [
        ("generation", "k_multiplier", 0, "must be positive and finite"),
        ("generation", "k_multiplier", -3, "must be positive and finite"),
        ("phantom", "supersample", 0, "unknown key"),
        ("phantom", "supersample", -2, "unknown key"),
    ], ids=["k_multiplier=0", "k_multiplier=-3", "supersample=0", "supersample=-2"])
    def test_count_below_one_names_its_key(self, section, key, value, message):
        # k_multiplier used to run the generation at K = 1; supersample is no
        # longer a key, and the parser refuses it by name
        cfg = base_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: {message}$"):
            fileio.parse_config(json.dumps(cfg))

    @pytest.mark.parametrize("case", list(CONSUMED_VALUES) + list(DROPPED_VALUES))
    def test_parser_and_consumer_reject(self, case):
        # one check serves both: the parser reports the consumer's message
        # under the key path, or, for a removed key, refuses the key
        edit, path, consume = {**CONSUMED_VALUES, **DROPPED_VALUES}[case]
        cfg = base_config()
        edit(cfg)
        with pytest.raises(ConfigError) as consumer:
            consume(cfg)
        with pytest.raises(ConfigError) as parser:
            fileio.parse_config(json.dumps(cfg))
        expect = "unknown key" if case in DROPPED_VALUES else consumer.value
        assert str(parser.value) == f"{path}: {expect}"

    def test_bad_subsample_rejected(self):
        cfg = base_config()
        cfg["receivers"]["subsample"] = 3
        with pytest.raises(ConfigError):
            fileio.parse_config(json.dumps(cfg))

    def test_missing_phantom_file_rejected(self):
        cfg = base_config()
        cfg["phantom"] = {"kind": "from_file", "path": "/nonexistent/p.csv"}
        with pytest.raises(ConfigError):
            fileio.parse_config(json.dumps(cfg))

    def test_from_file_phantom_round_trip(self, tmp_path, rng):
        from wavetomo.simulate import render_phantom

        cfg = base_config()
        grid = fileio.grid_from_config(cfg)
        values = rng.standard_normal(grid.shape)
        path = tmp_path / "phantom.csv"
        fileio.emit_grid_csv(values, grid, path)
        cfg["phantom"] = {"kind": "from_file", "path": str(path)}
        got = render_phantom(fileio.parse_config(json.dumps(cfg)), grid)
        assert np.array_equal(got, values)


def small_measurements():
    """Two transmitters (point and plane) over a 3-slot ring; 5 data rows."""
    return wt.MeasurementSet(
        transmitters=[wt.Transmitter("point", position=(0.8, 0.0)),
                      wt.Transmitter("plane", direction=(0.0, 1.0))],
        receivers=wt.ring_sensors(3, radius=0.9),
        active_indices=[[0, 1, 2], [0, 2]],
        y=[[1 + 2j, -0.5j, 3.0], [0.25, 1e-3 - 2j]],
        frequency_hz=4e9)


def _header(edit):
    def apply(lines):
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header).encode()
    return apply


def _row(i, text):
    return lambda lines: lines.__setitem__(i, text)


# name -> (edit of the file's lines, line the error must name)
MALFORMED_FILES = {
    "header not an object": (_row(0, b"[1]"), 1),
    "header without transmitters": (_header(lambda h: h.pop("transmitters")), 1),
    "header without receivers": (_header(lambda h: h.pop("receiver_positions_m")), 1),
    "no transmitters": (_header(lambda h: h.update(transmitters=[])), 1),
    "transmitter not an object": (_header(lambda h: h["transmitters"].append("x")), 1),
    "transmitter without kind": (_header(lambda h: h["transmitters"][0].pop("kind")), 1),
    "transmitter without position": (
        _header(lambda h: h["transmitters"][0].pop("position_m")), 1),
    "amplitude not a pair": (
        _header(lambda h: h["transmitters"][1].update(amplitude=[1.0])), 1),
    "zero plane direction": (
        _header(lambda h: h["transmitters"][1].update(direction=[0, 0])), 1),
    "ragged receiver positions": (
        _header(lambda h: h["receiver_positions_m"][0].append(1.0)), 1),
    # non-finite geometry used to load and end in reconstruct (exit 2)
    "NaN receiver position": (
        _header(lambda h: h["receiver_positions_m"][0].__setitem__(0, float("nan"))), 1),
    "infinite transmitter amplitude": (
        _header(lambda h: h["transmitters"][0].update(amplitude=[float("inf"), 0.0])), 1),
    "receiver index past the ring": (_row(3, b"0,99,1,0"), 4),
    "transmitter index past the header": (_row(3, b"2,0,1,0"), 4),
    "negative receiver index": (_row(3, b"0,-1,1,0"), 4),
    "repeated pair": (lambda lines: lines.append(lines[2]), 7),
    "non-finite value": (_row(5, b"1,0,nan,0"), 6),
    "not UTF-8": (_row(2, b"0,0,\xff,0"), 3),
    # a form feed is not a line break: the repeat on line 4 used to be line 5
    "form feed in a row": (lambda lines: (lines.__setitem__(1, lines[1] + b"\x0c"),
                                          lines.__setitem__(3, lines[2])), 4),
    "transmitter without rows": (lambda lines: lines.__delitem__(slice(4, 6)), 1),
}


# name -> (edit of a 3 x 4 grid CSV's lines, line the error must name)
MALFORMED_GRID_CSVS = {
    "non-numeric cell": (_row(2, b"1,1,x,1"), 3),
    "ragged row": (_row(3, b"1,1,1"), 4),
    "not UTF-8": (_row(1, b"1,\xff,1,1"), 2),
    "non-finite value": (_row(2, b"1,inf,1,1"), 3),
    "no data rows": (lambda lines: lines.__delitem__(slice(1, None)), 1),
    "header shape disagrees": (
        lambda lines: lines.__setitem__(0, lines[0].replace(b"shape=3x4", b"shape=3x5")), 1),
}


class TestMeasurementFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        cfg = base_config()
        mset, _ = simulate_measurements(cfg)
        path = tmp_path / "m.dat"
        fileio.save_measurements(path, mset)
        back = fileio.load_measurements(path)
        assert back.n_tx == mset.n_tx
        assert np.array_equal(back.receivers.positions, mset.receivers.positions)
        for a, b in zip(back.y, mset.y):
            assert np.array_equal(a, b)

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = base_config()
        cfg["generation"]["noise_snr_db"] = 30.0
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        m1, _ = simulate_measurements(cfg)
        m2, _ = simulate_measurements(cfg)
        fileio.save_measurements(p1, m1)
        fileio.save_measurements(p2, m2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_noise_at_the_config_snr(self):
        # the noise is complex Gaussian with E|n|^2 = mean |y|^2 10^(-SNR/10):
        # 3 x 64 draws estimate that power to about 7%
        cfg = base_config()
        cfg["receivers"]["count"] = 64
        clean, _ = simulate_measurements(cfg)
        cfg["generation"]["noise_snr_db"] = 10.0
        noisy, _ = simulate_measurements(cfg)
        y = np.concatenate(clean.y)
        noise = np.concatenate(noisy.y) - y
        ratio = np.mean(np.abs(noise) ** 2) / np.mean(np.abs(y) ** 2)
        assert 0.08 < ratio < 0.125
        assert abs(np.mean(noise.real ** 2) / np.mean(noise.imag ** 2) - 1.0) < 0.5

    def test_simulate_bit_identical_on_any_thread_count(self, monkeypatch):
        # the generation's three solves run on one to three threads; the
        # data do not depend on how many
        cfg = base_config()
        runs = []
        monkeypatch.setattr(wt.recon, "MAX_SOLVE_THREADS", 3)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        for n in (1, 2, 3):
            monkeypatch.setattr(wt.recon, "_usable_cpus", lambda: n)
            runs.append(simulate_measurements(cfg)[0].y)
        for y in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(y, runs[0]))

    def test_simulated_data_are_converged(self):
        # the data are H(f u) with u the exact solution of A u = u_in on the
        # refined grid, not a truncated solve (the series stopped near a 1e-3
        # residual and missed by about 1e-4)
        cfg = base_config()
        mset, _ = simulate_measurements(cfg)
        fine = refined_grid(fileio.grid_from_config(cfg), cfg["generation"]["grid_refine"])
        f = simulate.render_phantom(cfg, fine)
        A = dense_A_matrix(fine, f)
        H = wt.build_sensor_operator(fine, mset.receivers)
        for tx, y in zip(mset.transmitters, mset.y):
            u = np.linalg.solve(A, tx.field_on_grid(fine).ravel())
            z = H.apply(f * u.reshape(fine.shape))
            assert np.linalg.norm(y - z) <= 1e-9 * np.linalg.norm(z)

    def test_generation_solves_through_the_loop(self, monkeypatch):
        # the data are predict_all's: one BiCGStab solve per transmitter,
        # made by the loop's own recon.bicgstab, to GENERATION_RESIDUAL in at
        # most k_multiplier * K iterations
        cfg = base_config()
        calls = []
        krylov = wt.recon.bicgstab

        def recorded(op, b, x0, tol, maxiter):
            calls.append((tol, maxiter))
            return krylov(op, b, x0, tol, maxiter)

        monkeypatch.setattr(wt.recon, "bicgstab", recorded)
        simulate_measurements(cfg)
        maxiter = cfg["generation"]["k_multiplier"] * cfg["recon"]["forward"]["K"]
        assert calls == [(simulate.GENERATION_RESIDUAL, maxiter)] * 3

    def test_sub_grid_data_match_the_fine_grid(self, monkeypatch):
        # the generation builds G, solves and projects on a 10^2 window
        # around the phantom's support, never on the 24^2 refined grid; the
        # data are those of the whole refined grid (reference.fine_grid_data)
        # to the solves' tolerance: 5.0e-13 relative measured here, and at
        # most 1.0e-10 over this class's scenes
        cfg = base_config()
        built = []
        build = simulate.build_domain_operator
        monkeypatch.setattr(simulate, "build_domain_operator",
                            lambda grid: built.append(grid.shape) or build(grid))
        mset, _ = simulate_measurements(cfg)
        assert built == [(10, 10)]
        assert_fine_grid_data(mset, cfg)

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("pixel", [(5, 6), (11, 11), (0, 11)])
    def test_one_pixel_support(self, tmp_path, refine, pixel):
        # one pixel of a from_file phantom: a box 1 or 2 fine pixels wide,
        # which the window widens to 2, shifted left at the grid's far edge
        # (G rejects an axis of one pixel).  At most 1.0e-10 measured
        cfg = base_config()
        grid = fileio.grid_from_config(cfg)
        values = np.zeros(grid.shape)
        values[pixel] = 0.1 * grid.k_b ** 2
        fileio.emit_grid_csv(values, grid, tmp_path / "pixel.csv")
        cfg["phantom"] = {"kind": "from_file", "path": str(tmp_path / "pixel.csv")}
        cfg["generation"]["grid_refine"] = refine
        assert_fine_grid_data(simulate_measurements(cfg)[0], cfg)

    def test_box_at_the_grid_edge(self):
        # a cylinder cut by two edges of the grid: its 7 x 7 box touches
        # them, and its window of 8 starts one pixel left.  8.5e-11 measured
        cfg = base_config()
        cfg["phantom"]["cylinders"][0]["center_m"] = [0.15, -0.15]
        fine = refined_grid(fileio.grid_from_config(cfg), 2)
        f = simulate.render_phantom(cfg, fine)
        assert wt.greens.support_box(f) == (slice(17, 24), slice(0, 7))
        sub, f_sub = simulate.support_grid(fine, f)
        assert sub.shape == (8, 8) and np.array_equal(f_sub, f[16:24, 0:8])
        assert_fine_grid_data(simulate_measurements(cfg)[0], cfg)

    def test_plane_wave_transmitters(self):
        # plane waves are evaluated on the window's own pixel centers.
        # 7.4e-14 measured
        cfg = base_config()
        cfg["transmitters"] = [{"kind": "plane", "direction": [1.0, 0.5]},
                               {"kind": "point", "position_m": [0.0, 0.7]},
                               {"kind": "plane", "direction": [-1.0, 0.0]}]
        assert_fine_grid_data(simulate_measurements(cfg)[0], cfg)

    def test_zero_phantom_gives_zero_data_without_a_solve(self, monkeypatch):
        cfg = base_config()
        cfg["phantom"] = {"kind": "none"}
        cfg["generation"]["noise_snr_db"] = 20.0
        monkeypatch.setattr(wt.recon, "bicgstab", None)
        monkeypatch.setattr(simulate, "build_domain_operator", None)
        mset, f_true = simulate_measurements(cfg)
        assert not np.any(f_true)
        assert len(mset.y) == 3
        for y in mset.y:
            assert y.shape == (14,) and y.dtype == complex and not np.any(y)

    def test_support_grid(self):
        grid = wt.DomainGrid((30, 7), 0.01, (0.1, -0.2), 0.5)
        f = np.zeros(grid.shape)
        assert simulate.support_grid(grid, f) is None
        # a 7-wide box becomes 8 wide on the first axis, which has room,
        # and stays 7 on the second, which has no more pixels
        f[22:29, 1:4] = 1.0
        f[23, 0:7] = 2.0
        sub, f_sub = simulate.support_grid(grid, f)
        assert sub.shape == (8, 7) and np.array_equal(f_sub, f[22:30, :])
        assert (sub.spacing, sub.wavelength) == (grid.spacing, grid.wavelength)
        assert np.allclose(sub.pixel_centers(), grid.pixel_centers()[22:30, :],
                           rtol=0.0, atol=1e-15)
        # a 13-wide box takes 15, shifted left to end at the grid's edge
        f[17:30, 2] = 1.0
        sub, f_sub = simulate.support_grid(grid, f)
        assert sub.shape == (15, 7) and np.array_equal(f_sub, f[15:30, :])

    def test_data_match_the_closed_form_cylinder(self):
        # a line source 2 m out and a centered cylinder of radius 0.2
        # wavelengths at 10% contrast: the data are the closed form's total
        # field less the incident field at the receivers, up to the 24^2
        # generation grid's discretization (3.36e-3 measured; bound 1.5x).
        # Source and receivers take the Graf path.  A product with G's
        # adjoint in place of its transpose, or without the pixel area,
        # misses by more than 1
        wl = 0.5
        cfg = {
            "grid": {"shape": [12, 12], "spacing_m": wl / 16, "wavelength_m": wl},
            "transmitters": {"kind": "point-ring", "radius_m": 2.0, "count": 1},
            "receivers": {"ring_radius_m": 1.0, "count": 16},
            "phantom": {"kind": "cylinders", "cylinders": [
                {"center_m": [0.0, 0.0], "radius_m": 0.1, "contrast": 0.1}]},
            "recon": {"forward": {"K": 20}},
            "generation": {"grid_refine": 2, "k_multiplier": 4},
        }
        mset, _ = simulate_measurements(fileio.parse_config(json.dumps(cfg)))
        k_b = fileio.grid_from_config(cfg).k_b
        scene = wt.AnalyticScene(r_sph=0.1, refractive_index=np.sqrt(1.1), r_s=2.0,
                                 k_b=k_b, truncation=60)
        pos = mset.receivers.positions
        tx, = mset.transmitters
        assert tx.position == (2.0, 0.0)
        total = wt.analytic_field_2d(np.linalg.norm(pos, axis=1),
                                     np.arctan2(pos[:, 1], pos[:, 0]), scene)
        scattered = total - tx.field_at(pos, k_b)
        assert np.linalg.norm(mset.y[0] - scattered) <= 5e-3 * np.linalg.norm(scattered)

    def test_memory_does_not_grow_with_the_ring(self):
        # a 64^2 refined grid, whose phantom's window is 27^2, with 60 and
        # with 480 receivers: the data come from the Green's products, not
        # from a slots x pixels matrix, which would add 4.9 MB (0.70 MB
        # measured; 0.52 MB when the generation ran on the whole grid)
        peaks = []
        for count in (60, 480):
            cfg = base_config()
            cfg["grid"] = {"shape": [32, 32], "spacing_m": 0.0749 / 16, "wavelength_m": 0.0749}
            cfg["transmitters"] = {"kind": "point-ring", "radius_m": 0.45, "count": 2}
            cfg["receivers"] = {"ring_radius_m": 0.5, "count": count}
            cfg["phantom"]["cylinders"][0]["radius_m"] = 0.03
            tracemalloc.start()
            try:
                simulate_measurements(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2e6

    def test_head_phantom_renders_at_the_config_contrast(self):
        # the generation renders a shepp_logan phantom on the solve grid and
        # on its refinement, each at the config's peak contrast
        cfg = base_config()
        _head(contrast=0.2)(cfg)
        grid = fileio.grid_from_config(cfg)
        for g in (grid, refined_grid(grid, cfg["generation"]["grid_refine"])):
            f = simulate.render_phantom(cfg, g)
            assert f.shape == g.shape
            assert wt.contrast(f, g) == pytest.approx(0.2, rel=1e-12)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        path = tmp_path / "m.dat"
        fileio.save_measurements(path, small_measurements())
        expect = fileio.load_measurements(path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join([*lines[:3], b"", b"  \t", *lines[3:]]) + b"\n")
        got = fileio.load_measurements(path)
        for a, b in zip(got.active_indices + got.y, expect.active_indices + expect.y):
            assert np.array_equal(a, b)

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("not json\n")
        with pytest.raises(MeasurementParseError):
            fileio.load_measurements(path)

    @pytest.mark.parametrize("case", list(MALFORMED_FILES))
    def test_malformed_file_names_its_line(self, tmp_path, case):
        edit, line = MALFORMED_FILES[case]
        path = tmp_path / "m.dat"
        fileio.save_measurements(path, small_measurements())
        lines = path.read_bytes().splitlines()
        edit(lines)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MeasurementParseError, match=f"^line {line}: "):
            fileio.load_measurements(path)

    @pytest.mark.parametrize("positions, shape", [
        ([], "(0,)"), ([[]], "(1, 0)"), ([[0.9], [0.0], [-0.9]], "(3, 1)"),
        ([[0.9, 0.0, 0.0, 0.0]] * 3, "(3, 4)"),
    ], ids=["empty list", "empty point", "1 coordinate", "4 coordinates"])
    def test_receiver_positions_no_grid_reads(self, tmp_path, positions, shape):
        # these used to load whenever the transmitter vectors had their length
        path = tmp_path / "m.dat"
        fileio.save_measurements(path, small_measurements())
        lines = path.read_bytes().splitlines()
        _header(lambda h: h.update(receiver_positions_m=positions))(lines)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MeasurementParseError,
                           match=r"^line 1: header.receiver_positions_m: sensor positions "
                                 rf"must have shape \(M, 2\) or \(M, 3\), got {re.escape(shape)}$"):
            fileio.load_measurements(path)

    def test_transmitter_vector_must_match_receivers(self, tmp_path):
        path = tmp_path / "m.dat"
        fileio.save_measurements(path, small_measurements())
        lines = path.read_bytes().splitlines()
        _header(lambda h: h["transmitters"][0]["position_m"].append(0.0))(lines)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MeasurementParseError,
                           match=r"^line 1: header.transmitters\[0\].position_m: "
                                 "expected 2 coordinates"):
            fileio.load_measurements(path)


def fresnel_active_slots(tx_angle_deg, n_slots=fileio.FRESNEL_RECEIVER_SLOTS,
                         keep_min_deg=60.0):
    """Receiver slots used for one transmitter: the 119 closest are excluded,
    i.e. keep circular angular distance >= 60 degrees (241 of 360 slots)."""
    slot_angles = np.arange(n_slots) * (360.0 / n_slots)
    d = np.abs((slot_angles - tx_angle_deg + 180.0) % 360.0 - 180.0)
    return np.nonzero(d >= keep_min_deg - 1e-9)[0]


def write_fresnel(path, n_tx=8, freq_ghz=3.0, extra_freqs=(), scale=1.0):
    """Synthetic file in the documented ASCII layout; total = 2x incident so
    the scattered field equals the incident field."""
    lines = ["# tx rx freq_GHz re_tot im_tot re_inc im_inc"]
    k_b = 2 * np.pi * freq_ghz * 1e9 / fileio.SPEED_OF_LIGHT
    ring = wt.ring_sensors(fileio.FRESNEL_RECEIVER_SLOTS, fileio.FRESNEL_RING_RADIUS_M)
    for t in range(n_tx):
        ang = np.deg2rad(t * 360.0 / n_tx)
        pos = (fileio.FRESNEL_RING_RADIUS_M * np.cos(ang),
               fileio.FRESNEL_RING_RADIUS_M * np.sin(ang))
        tx = wt.Transmitter("point", position=pos, amplitude=scale)
        slots = fresnel_active_slots(t * 360.0 / n_tx)
        inc = tx.field_at(ring.positions[slots], k_b)
        for freq in (freq_ghz, *extra_freqs):
            for r, v in zip(slots, inc):
                lines.append(f"{t + 1} {r + 1} {freq} {2 * v.real:.12g} "
                             f"{2 * v.imag:.12g} {v.real:.12g} {v.imag:.12g}")
    path.write_text("\n".join(lines) + "\n")


class TestFresnelLoader:
    def test_geometry_and_scattered_field(self, tmp_path):
        path = tmp_path / "obj.txt"
        write_fresnel(path, n_tx=8, extra_freqs=(2.0, 4.0), scale=1.7)
        mset = fileio.load_fresnel_ascii(path, frequency_ghz=3.0)
        assert mset.n_tx == 8
        assert all(ix.size == 241 for ix in mset.active_indices)
        assert mset.frequency_hz == pytest.approx(3e9)
        # scattered = total - incident = incident here
        for t, y in enumerate(mset.y):
            tx = mset.transmitters[t]
            inc = tx.field_at(mset.receivers.positions[mset.active_indices[t]],
                              2 * np.pi * 3e9 / fileio.SPEED_OF_LIGHT)
            assert np.allclose(y, inc, rtol=1e-9)
        # least-squares calibration recovers the source amplitude
        assert mset.transmitters[0].amplitude == pytest.approx(1.7, rel=1e-9)

    def test_total_equals_incident_gives_zero(self, tmp_path):
        path = tmp_path / "null.txt"
        lines = []
        for r in range(100, 103):  # slots away from the transmitter at 0 deg
            lines.append(f"1 {r} 3.0 0.5 0.25 0.5 0.25")
        path.write_text("\n".join(lines) + "\n")
        mset = fileio.load_fresnel_ascii(path)
        assert np.all(mset.y[0] == 0)

    def test_hz_frequency_column(self, tmp_path):
        path = tmp_path / "hz.txt"
        path.write_text("1 100 3e9 1 0 1 0\n")
        mset = fileio.load_fresnel_ascii(path)
        assert mset.n_tx == 1

    def test_missing_frequency(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 1 2.0 1 0 1 0\n")
        with pytest.raises(MeasurementParseError):
            fileio.load_fresnel_ascii(path, frequency_ghz=3.0)

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 3.0 1 0 1 0\n1 2 3.0 oops 0 1 0\n")
        with pytest.raises(MeasurementParseError, match="line 2"):
            fileio.load_fresnel_ascii(path)

    @pytest.mark.parametrize("row, message", [
        ("0 30 3.0 1 0 1 0", "transmitter index 0 "),
        ("-1 30 3.0 1 0 1 0", "transmitter index -1 "),
        ("1.5 30 3.0 1 0 1 0", "transmitter index 1.5 "),
        ("nan 30 3.0 1 0 1 0", "transmitter index nan "),
        ("361 30 3.0 1 0 1 0", "transmitter index 361 "),
        ("1 0 3.0 1 0 1 0", "receiver index 0 "),
        ("1 2.5 3.0 1 0 1 0", "receiver index 2.5 "),
        ("1 361 3.0 1 0 1 0", "receiver index 361 "),
    ], ids=["tx 0", "tx negative", "tx fractional", "tx nan", "tx past the ring",
            "rx 0", "rx fractional", "rx past the ring"])
    def test_bad_index_names_its_line(self, tmp_path, row, message):
        # a tx index of 0 used to land under the last transmitter
        path = tmp_path / "bad.txt"
        path.write_text(f"1 10 3.0 1 0 1 0\n2 20 3.0 1 0 1 0\n{row}\n")
        with pytest.raises(MeasurementParseError, match="line 3") as exc:
            fileio.load_fresnel_ascii(path)
        assert message in str(exc.value)

    def test_bad_index_in_another_channel_is_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 10 3.0 1 0 1 0\n0 10 2.0 1 0 1 0\n")
        with pytest.raises(MeasurementParseError, match="line 2"):
            fileio.load_fresnel_ascii(path, frequency_ghz=3.0)

    @pytest.mark.parametrize("row, message", [
        ("1 10 3.0 2 0 1 0", "repeated (tx, rx) pair (1, 10)"),
        ("1 20 3.0 nan 0 1 0", "non-finite value"),
        ("1 20 3.0 1 0 inf 0", "non-finite value"),
        ("1 20 3.0 1 0 1", "expected 7 columns, got 6"),
    ], ids=["repeated pair", "nan total", "inf incident", "six columns"])
    def test_bad_row_in_channel_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 10 3.0 1 0 1 0\n1 10 2.0 1 0 1 0\n{row}\n")
        with pytest.raises(MeasurementParseError, match="line 3") as exc:
            fileio.load_fresnel_ascii(path, frequency_ghz=3.0)
        assert message in str(exc.value)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# tx rx freq re_tot im_tot re_inc im_inc\n\n# nothing\n")
        with pytest.raises(MeasurementParseError, match="^line 1: no data rows$"):
            fileio.load_fresnel_ascii(path)

    def test_transmitter_gap_names_it(self, tmp_path):
        # the 2 GHz row does not fill the gap in the 3 GHz channel
        path = tmp_path / "gap.txt"
        path.write_text("1 10 3.0 1 0 1 0\n2 20 2.0 1 0 1 0\n3 30 3.0 1 0 1 0\n")
        with pytest.raises(MeasurementParseError,
                           match=r"^line 3: transmitter 2 has no rows at 3.0 GHz$"):
            fileio.load_fresnel_ascii(path, frequency_ghz=3.0)

    @pytest.mark.parametrize("ending", [b"\r", b"\r\n"], ids=["CR", "CRLF"])
    def test_line_endings(self, tmp_path, ending):
        # CR-only files used to read as one line of 14 columns
        rows = [b"# comment", b"1 10 3.0 1 0 1 0", b"1 20 3.0 2 0 1 0"]
        (tmp_path / "lf.txt").write_bytes(b"\n".join(rows) + b"\n")
        (tmp_path / "cr.txt").write_bytes(ending.join(rows) + ending)
        lf = fileio.load_fresnel_ascii(tmp_path / "lf.txt")
        cr = fileio.load_fresnel_ascii(tmp_path / "cr.txt")
        assert np.array_equal(cr.active_indices[0], lf.active_indices[0])
        assert np.array_equal(cr.y[0], lf.y[0])
        (tmp_path / "bad.txt").write_bytes(ending.join(rows + [b"1 30 3.0 x 0 1 0"]))
        with pytest.raises(MeasurementParseError, match="^line 4: "):
            fileio.load_fresnel_ascii(tmp_path / "bad.txt")

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# comment\n1 10 3.0 1 0 1 0\n1 20 3.0 1 \xff 1 0\n")
        with pytest.raises(MeasurementParseError, match="line 3.*not UTF-8"):
            fileio.load_fresnel_ascii(path)

    def test_subsampling_counts_and_nesting(self, tmp_path):
        path = tmp_path / "obj.txt"
        write_fresnel(path, n_tx=8)
        mset = fileio.load_fresnel_ascii(path)
        expected = {2: 120, 4: 60, 8: 30, 16: 15, 32: 8, 64: 4, 128: 2}
        prev = mset
        for factor, count in expected.items():
            sub = mset.subsample(factor)
            assert all(ix.size == count for ix in sub.active_indices)
            assert set(sub.active_indices[0]) <= set(prev.active_indices[0])
            prev = sub


class TestImagesAndTables:
    def test_pgm_constant_is_mid_gray(self, tmp_path):
        path = tmp_path / "c.pgm"
        fileio.emit_image(np.full((4, 6), 3.3), path)
        data = path.read_bytes()
        header, rest = data.split(b"65535\n", 1)
        assert header == b"P5\n6 4\n"
        pixels = np.frombuffer(rest, dtype=">u2")
        assert np.all(pixels == 32767)
        sidecar = (tmp_path / "c.pgm.window.txt").read_text()
        lo = float(sidecar.splitlines()[0].split()[1])
        assert lo == 3.3

    def test_pgm_window(self, tmp_path, rng):
        img = rng.standard_normal((5, 5))
        path = tmp_path / "w.pgm"
        fileio.emit_image(img, path)
        pixels = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
        assert pixels.min() == 0 and pixels.max() == 65535

    def test_grid_csv_round_trip_bit_exact(self, tmp_path, rng):
        grid = wt.centered_grid((6, 7), spacing=0.01, wavelength=0.1)
        values = rng.standard_normal(grid.shape) * 1e3
        path = tmp_path / "img.csv"
        fileio.emit_grid_csv(values, grid, path)
        back, meta = fileio.load_grid_csv(path)
        assert np.array_equal(back, values)
        assert meta["shape"] == "6x7"
        assert meta["units"] == "1/m^2"

    def test_grid_csv_3d_round_trip(self, tmp_path, rng):
        # the file holds 3 rows of 20 values; the header's shape restores 3D
        grid = wt.DomainGrid((3, 4, 5), 0.01, (0.0, 0.0, 0.0), 0.1)
        values = rng.standard_normal(grid.shape)
        path = tmp_path / "img.csv"
        fileio.emit_grid_csv(values, grid, path)
        back, _ = fileio.load_grid_csv(path)
        assert np.array_equal(back, values)
        cfg = fileio.parse_config(json.dumps({
            "grid": {"shape": [3, 4, 5], "spacing_m": 0.01, "wavelength_m": 0.1},
            "phantom": {"kind": "from_file", "path": str(path)}}))
        assert np.array_equal(simulate.render_phantom(cfg, grid), values)

    @pytest.mark.parametrize("case", list(MALFORMED_GRID_CSVS))
    def test_malformed_grid_csv_names_its_line(self, tmp_path, case):
        edit, line = MALFORMED_GRID_CSVS[case]
        grid = wt.centered_grid((3, 4), spacing=0.01, wavelength=0.1)
        path = tmp_path / "img.csv"
        fileio.emit_grid_csv(np.ones(grid.shape), grid, path)
        lines = path.read_bytes().splitlines()
        edit(lines)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MeasurementParseError, match=f"^line {line}: "):
            fileio.load_grid_csv(path)

    def test_blank_lines_in_grid_csv_are_skipped(self, tmp_path):
        grid = wt.centered_grid((3, 4), spacing=0.01, wavelength=0.1)
        path = tmp_path / "img.csv"
        values = np.arange(12.0).reshape(grid.shape)
        fileio.emit_grid_csv(values, grid, path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join([*lines[:2], b"", b"  \t", *lines[2:]]) + b"\n")
        back, _ = fileio.load_grid_csv(path)
        assert np.array_equal(back, values)

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.emit_table_csv({"a": [1.0, 2.0], "b": [3.0, 4.5]}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,4.5"


def linked_old_files(paths, keep):
    """Write "old" to each path and hard-link it to ``keep``/<name>.old: an
    in-place rewrite of a path changes its link too, a new file does not."""
    for path in paths:
        path.write_text("old")
        os.link(path, keep / f"{path.name}.old")


def assert_written_as_new_files(paths, keep):
    (keep / "mode").touch()
    new_file_mode = (keep / "mode").stat().st_mode
    for path in paths:
        assert (keep / f"{path.name}.old").read_text() == "old"
        assert path.read_bytes() != b"old" and path.stat().st_mode == new_file_mode
        assert sorted(p.name for p in path.parent.iterdir()
                      if p.name.endswith(".tmp")) == []


class TestWriteFile:
    """Every output is written as a new file: rewriting a file in place, or
    renaming over it, cost 69-91 ms per 0.5 MB write on ext4."""

    @pytest.mark.parametrize("write, names", [
        (lambda d: fileio.save_measurements(d / "m.dat", small_measurements()), ["m.dat"]),
        (lambda d: fileio.emit_image(np.eye(3), d / "f.pgm"), ["f.pgm", "f.pgm.window.txt"]),
        (lambda d: fileio.emit_grid_csv(np.eye(3), wt.centered_grid((3, 3), 0.01, 0.1),
                                        d / "f.csv"), ["f.csv"]),
        (lambda d: fileio.emit_table_csv({"a": [1.0]}, d / "t.csv"), ["t.csv"]),
    ], ids=["measurements", "image", "grid csv", "table csv"])
    def test_writers_make_new_files(self, tmp_path, write, names):
        out, keep = tmp_path / "out", tmp_path / "keep"
        out.mkdir(), keep.mkdir()
        linked_old_files([out / name for name in names], keep)
        write(out)
        assert_written_as_new_files([out / name for name in names], keep)

    def test_new_file_takes_the_umask_mode(self, tmp_path):
        path = tmp_path / "a.txt"
        fileio.write_file(path, "text")
        fileio.write_file(tmp_path / "b.bin", b"\x00\xff")
        (tmp_path / "c").touch()
        assert path.read_text() == "text" and (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert path.stat().st_mode == (tmp_path / "c").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin", "c"]

    @pytest.mark.parametrize("target, data, error", [
        ("dir", "text", OSError), ("a.txt", None, TypeError)],
        ids=["target is a directory", "data neither str nor bytes"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, target, data, error):
        (tmp_path / "dir").mkdir()
        (tmp_path / "a.txt").write_text("old")
        with pytest.raises(error):
            fileio.write_file(tmp_path / target, data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "dir"]
        assert (tmp_path / "a.txt").read_text() == "old"


ROOT = Path(__file__).resolve().parent.parent


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


class TestConfigDocs:
    def test_shipped_configs_resolve_as_before(self):
        # resolved tau (at ||y||^2 = 30), delta_tol_rel and K, as recorded
        # before tau and delta_tol were removed
        workloads = _benchmark_module("workloads")
        example = json.loads(re.search(r"```json\n(.*?)```", _readme(), re.S).group(1))
        mset = wt.MeasurementSet([wt.Transmitter("point", position=(1.0, 0.0))],
                                 wt.ring_sensors(2, 1.0), [[0, 1]], [[3 + 4j, 1 - 2j]])
        for cfg in (workloads.FullRecon2D().config(0),
                    workloads.LinearRecon2D().config(0), example):
            rcfg = fileio.recon_config_from_config(cfg)
            tau = rcfg.tau_rel * float(sum(np.vdot(v, v).real for v in mset.y))
            got = (tau, rcfg.forward.delta_tol_rel, rcfg.forward.K)
            assert got == (4.5e-08, 5e-07, 60)

    def test_benchmark_stubs_hold(self, monkeypatch):
        # benchmarks/workloads.py reads ReconConfig.workers and passes
        # stop_on="objective", and the traced run wraps each name in
        # benchmarks/layers.py's SITES (recon's gradient_from_trace is only
        # imported for it); removing any of them before the benchmark stops
        # using it fails here rather than in a benchmark run
        workloads = _benchmark_module("workloads")
        for cfg in (workloads.FullRecon2D().config(0),
                    workloads.LinearRecon2D().config(0)):
            assert fileio.recon_config_from_config(cfg).workers == 1
        wt.ForwardConfig(K=1, stop_on="objective")
        with pytest.raises(ConfigError, match="^stop_on must be 'objective'$"):
            wt.ForwardConfig(K=1, stop_on="gradient")
        monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
        layers = _benchmark_module("layers")
        missing = [f"{module}.{cls + '.' if cls else ''}{attr}"
                   for module, cls, attr, _, _ in layers.SITES
                   if attr not in vars(layers.site_owner(module, cls))]
        assert missing == []

    def test_site_only_imports_are_sites(self, monkeypatch):
        # an import kept only for the traced run to wrap (noqa: F401) names a
        # function SITES wraps in the importing module; once the benchmark
        # drops that site, the import left behind fails here
        monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
        layers = _benchmark_module("layers")
        sites = {(module, attr) for module, cls, attr, _, _ in layers.SITES if cls is None}
        kept = []
        for path in sorted((ROOT / "src" / "wavetomo").glob("*.py")):
            lines = path.read_text(encoding="utf-8").splitlines()
            kept += [(f"wavetomo.{path.stem}", alias.name)
                     for node in ast.walk(ast.parse("\n".join(lines)))
                     if isinstance(node, ast.ImportFrom)
                     and "# noqa: F401" in lines[node.end_lineno - 1]
                     for alias in node.names]
        assert kept and [k for k in kept if k not in sites] == []

    def test_readme_lists_removed_keys(self):
        # the "Removed keys" table's first column is REMOVED_KEYS' paths
        table = _readme().split("## Removed keys")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `([\w.]+)` \|", table, re.M)
        assert sorted(rows) == sorted({path for path, _ in REMOVED_KEYS})

    def test_readme_table_lists_schema_keys(self):
        sections = {"grid": fileio.GRID_SCHEMA, "receivers": fileio.RECEIVERS_SCHEMA,
                    "recon": fileio.RECON_SCHEMA, "recon.forward": fileio.FORWARD_SCHEMA,
                    "recon.box": fileio.BOX_SCHEMA,
                    "generation": fileio.GENERATION_SCHEMA}
        leaves = {f"{name}.{key}" for name, schema in sections.items()
                  for key in schema if f"{name}.{key}" not in sections}
        key_table = _readme().split("## Removed keys")[0]
        rows = set(re.findall(r"^\| `([\w.\[\]]+)` \|", key_table, re.M))
        listed = {row for row in rows if "." in row and row.split(".")[0] in
                  {"grid", "receivers", "recon", "generation"}}
        assert listed == leaves
