"""Configuration, measurement, image, and table file formats.

Everything on disk is plain text.  Physical quantities carry SI units with
unit-suffixed key names.  Floats are written with 17 significant digits so a
write/read round trip is bit exact.

The experiment configuration is one JSON object.  The schemas below give
every key its type and default (or REQUIRED); the ``*_from_config`` readers
are the only code that reads a config, and ``parse_config`` runs all of them,
so every malformed config raises ConfigError naming the key path.

Measurement files (native format) are a single-line JSON header holding the
geometry and frequency, followed by CSV rows ``tx,rx,re,im`` with the
measured scattered field per (transmitter, receiver-slot) pair.

The Institut-Fresnel single-frequency ASCII layout is also readable: per row
``tx rx freq re_total im_total re_incident im_incident`` (whitespace
separated, ``#`` comments allowed, frequency in GHz).  The scattered field is
total minus incident; the ring geometry is synthesized from the published
constants (1.67 m radius, 360 receiver slots, transmitters evenly spaced) and
the incident field recorded at the receivers calibrates a per-transmitter
complex source amplitude by least squares against the line-source model.
"""

import cmath
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, MeasurementParseError
from .forward import ForwardConfig
from .grid import DomainGrid, SensorSet, centered_grid, refined_grid, ring_sensors
from .phantoms import check_cylinder, check_shepp_logan
from .recon import MeasurementSet, ReconConfig, Transmitter, check_subsample
from .tv import BoxConstraint

SPEED_OF_LIGHT = 299792458.0

FRESNEL_RING_RADIUS_M = 1.67
FRESNEL_RECEIVER_SLOTS = 360


def _fmt(x):
    return f"{float(x):.17g}"


def write_file(path, data):
    """Write ``data`` (str, as UTF-8, or bytes) to ``path`` as a new file.

    The data go to a temporary file beside ``path``, created with the mode
    the umask gives a new file; the old file is unlinked and the temporary
    one renamed into its place, and removed if any step fails.  On ext4
    (0.5 MB, a 2-vCPU host), rewriting a file in place or renaming over it
    took 69-91 ms per write from the third write on, and this way 0.06-0.09
    ms.
    """
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode()
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _numbered_lines(path):
    """(line number, text) for each line of a UTF-8 text file.

    The bytes are split, not the text: lines end only at \\n, \\r or \\r\\n,
    whereas str.splitlines also breaks at form feed, vertical tab and U+2028,
    which would shift every later line number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            yield lineno, raw.decode()
        except UnicodeDecodeError:
            raise MeasurementParseError("not UTF-8 text", line=lineno) from None


# ---------------------------------------------------------------------------
# experiment configuration
#
# Each schema maps a key to (type, default); a default is REQUIRED or a value.
# The schemas check types and keys only.  Each range, sign, finiteness and
# axis-count rule lives once, in the code that consumes the value (DomainGrid,
# ForwardConfig, ReconConfig, BoxConstraint, Transmitter, ring_sensors,
# refined_grid, phantoms.check_*, recon.check_subsample), and _build reports
# it under the key path.  The readers check what the grid and another value
# define together (phases against MAX_PHASE_RAD, a ring's 2D grid, a
# transmitter vector's length) and the generation settings.

REQUIRED = object()
# Largest phase a config or a measurement header may imply: k_b times a distance
# from the coordinate origin, from the grid center or across the grid, or the
# wavenumber inside a phantom, k_b sqrt(|contrast|), times the grid extent.
# Double precision carries such a phase to about 1e-8 rad; far above it the
# Green's functions, and then the measurements, lose every digit or overflow.
MAX_PHASE_RAD = 1e8


def _is_int(v):
    # bool is an int subclass; an int beyond the float range overflows float()
    return type(v) is int and abs(v) <= sys.float_info.max


def _is_number(v):
    return type(v) is float or _is_int(v)


def _list_of(check):
    return lambda v: isinstance(v, (list, tuple)) and all(check(x) for x in v)


INT = ("an integer", _is_int)
NUMBER = ("a number", _is_number)
NUMBER_OR_NULL = ("a number or null", lambda v: v is None or _is_number(v))
STRING = ("a string", lambda v: type(v) is str)
INTS = ("a list of integers", _list_of(_is_int))
NUMBERS = ("a list of numbers", _list_of(_is_number))
POINTS = ("a list of coordinate lists", _list_of(_list_of(_is_number)))
OBJECT = ("an object", lambda v: isinstance(v, dict))
LIST = ("a list", lambda v: isinstance(v, (list, tuple)))
OBJECT_OR_LIST = ("an object or a list", lambda v: isinstance(v, (dict, list, tuple)))

CONFIG_SCHEMA = {
    "grid": (OBJECT, REQUIRED),
    # reconstruct reads neither; simulate and the contrast sweep require them
    "transmitters": (OBJECT_OR_LIST, None),
    "receivers": (OBJECT, None),
    "phantom": (OBJECT, {}),
    "recon": (OBJECT, {}),
    "generation": (OBJECT, {}),
    "seed": (INT, 0),
}
GRID_SCHEMA = {
    "shape": (INTS, REQUIRED),
    "spacing_m": (NUMBER, REQUIRED),
    "wavelength_m": (NUMBER, REQUIRED),
    "origin_m": (NUMBERS, None),      # None: pixel block centered on the origin
    "background_permittivity": (NUMBER, 1.0),
}
TRANSMITTER_RING_SCHEMA = {
    "count": (INT, REQUIRED),
    "radius_m": (NUMBER, REQUIRED),
    "phase_rad": (NUMBER, 0.0),
}
TRANSMITTER_KINDS = {
    "point": {"position_m": (NUMBERS, REQUIRED)},
    "plane": {"direction": (NUMBERS, REQUIRED)},
}
RECEIVERS_SCHEMA = {
    "count": (INT, REQUIRED),
    "ring_radius_m": (NUMBER, REQUIRED),
    "phase_rad": (NUMBER, 0.0),
    "subsample": (INT, 1),
}
PHANTOM_KINDS = {
    "none": {},
    "cylinders": {"cylinders": (LIST, REQUIRED)},
    "shepp_logan": {"contrast": (NUMBER, REQUIRED)},
    "from_file": {"path": (STRING, REQUIRED)},
}
CYLINDER_SCHEMA = {
    "center_m": (NUMBERS, REQUIRED),
    "radius_m": (NUMBER, REQUIRED),
    "contrast": (NUMBER, REQUIRED),
}
# the keys of RECON_SCHEMA and FORWARD_SCHEMA are ReconConfig / ForwardConfig
# fields, all but ForwardConfig.nu, which only the series reads and no
# config-driven command runs the series
RECON_SCHEMA = {
    "forward": (OBJECT, {}),
    "tau_rel": (NUMBER, 1.5e-9),
    "fista_iters": (INT, 50),
    "tv_iters": (INT, 10),
    "box": (OBJECT, {}),
}
FORWARD_SCHEMA = {
    "K": (INT, 60),
    "delta_tol_rel": (NUMBER, 5e-7),
}
BOX_SCHEMA = {"lower": (NUMBER, 0.0), "upper": (NUMBER, math.inf)}
GENERATION_SCHEMA = {
    "grid_refine": (INT, 2),
    "k_multiplier": (INT, 4),
    "noise_snr_db": (NUMBER_OR_NULL, None),
}


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _value(section, path, key, spec):
    (type_name, check), default = spec
    if key not in section:
        if default is REQUIRED:
            raise ConfigError(f"{_join(path, key)}: required")
        return default
    value = section[key]
    if not check(value):
        raise ConfigError(f"{_join(path, key)}: expected {type_name}, "
                          f"got {json.dumps(value, default=str)}")
    return value


def _read(section, path, schema):
    """Check one config object against its schema; returns every key, with
    defaults filled in, as attributes."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key in section:
        if key not in schema:
            raise ConfigError(f"{_join(path, key)}: unknown key")
    return SimpleNamespace(**{key: _value(section, path, key, spec)
                              for key, spec in schema.items()})


def _read_kind(section, path, kinds, default):
    """Read an object whose ``kind`` key selects its schema from ``kinds``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _value(section, path, "kind", (STRING, default))
    if kind not in kinds:
        raise ConfigError(f"{_join(path, 'kind')}: expected one of "
                          f"{', '.join(kinds)}, got {json.dumps(kind)}")
    return _read(section, path, {"kind": (STRING, default), **kinds[kind]})


def _section(cfg, key):
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected an object")
    value = _value(cfg, "", key, CONFIG_SCHEMA[key])
    if value is None:
        raise ConfigError(f"{key}: required")
    return value


def _build(path, make, *args, **kwargs):
    """Construct a checked object, reporting its rejection under ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(text):
    """Parse the JSON experiment configuration and check all of it.

    Runs every reader below once, so any malformed key raises ConfigError
    naming its path; the comment above REQUIRED says which code checks what.
    The phantom is checked, not rendered.  The document may omit
    ``transmitters`` and ``receivers``, which only simulation needs.
    Returns the document as parsed.
    """
    try:
        cfg = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    top = _read(cfg, "", CONFIG_SCHEMA)
    grid = grid_from_config(cfg)
    _build("generation.grid_refine", refined_grid, grid,
           generation_from_config(cfg).grid_refine)
    recon_config_from_config(cfg)
    if top.transmitters is not None:
        transmitters_from_config(cfg)
    if top.receivers is not None:
        receivers_from_config(cfg)
    phantom_from_config(cfg)
    rng_from_config(cfg)
    return cfg


def serialize_config(cfg):
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _check_phase(path, phase, what):
    if not phase <= MAX_PHASE_RAD:
        raise ConfigError(f"{path}: {what} is {phase:.3g} rad, above the "
                          f"{MAX_PHASE_RAD:.0e} rad double precision resolves")


# plain floats: they overflow to inf without numpy's RuntimeWarning
def _k_b(grid):
    return float(grid.k_b)


def _extent(grid):
    return grid.spacing * max(grid.shape)


def grid_from_config(cfg):
    g = _read(_section(cfg, "grid"), "grid", GRID_SCHEMA)
    if g.origin_m is None:
        grid = _build("grid", centered_grid, g.shape, g.spacing_m, g.wavelength_m,
                      g.background_permittivity)
    else:
        grid = _build("grid", DomainGrid, tuple(g.shape), g.spacing_m,
                      tuple(g.origin_m), g.wavelength_m, g.background_permittivity)
    _check_phase("grid", _k_b(grid) * _extent(grid),
                 "k_b times the grid extent, from grid.wavelength_m, "
                 "grid.background_permittivity, grid.spacing_m and grid.shape,")
    _check_phase("grid.origin_m", _k_b(grid) * math.hypot(*grid.center),
                 "k_b times the distance of the grid center from the origin")
    return grid


def recon_config_from_config(cfg):
    """ReconConfig from the ``recon`` section; ``cfg`` may hold only that."""
    r = _read(_section(cfg, "recon"), "recon", RECON_SCHEMA)
    fwd = _read(r.forward, "recon.forward", FORWARD_SCHEMA)
    box = _read(r.box, "recon.box", BOX_SCHEMA)
    return _build("recon", ReconConfig, **{
        **vars(r),
        "forward": _build("recon.forward", ForwardConfig, **vars(fwd)),
        "box": _build("recon.box", BoxConstraint, box.lower, box.upper)})


def _check_length(path, vector, ndim):
    if len(vector) != ndim:
        raise ConfigError(f"{path}: expected {ndim} coordinates, one per axis, "
                          f"got {len(vector)}")


def _read_transmitter(d, path, kinds, default_kind, ndim):
    tx = _read_kind(d, path, kinds, default_kind)
    vector = "direction" if tx.kind == "plane" else "position_m"
    _check_length(_join(path, vector), getattr(tx, vector), ndim)
    amplitude = getattr(tx, "amplitude", [1.0, 0.0])
    if len(amplitude) != 2:
        raise ConfigError(f"{path}.amplitude: expected [re, im]")
    if tx.kind == "plane":
        return _build(path, Transmitter, "plane", direction=tx.direction,
                      amplitude=complex(*amplitude))
    return _build(path, Transmitter, "point", position=tx.position_m,
                  amplitude=complex(*amplitude))


def transmitters_from_config(cfg):
    """Transmitters of a ``point-ring`` section or of an explicit list."""
    t = _section(cfg, "transmitters")
    grid = grid_from_config(cfg)
    ndim, k_b = grid.ndim, _k_b(grid)
    if isinstance(t, dict):
        ring = _read_kind(t, "transmitters", {"point-ring": TRANSMITTER_RING_SCHEMA},
                          "point-ring")
        if ndim != 2:
            raise ConfigError("transmitters: a point-ring needs a 2D grid")
        sources = _build("transmitters", ring_sensors, ring.count, ring.radius_m,
                         phase=ring.phase_rad)
        _check_phase("transmitters.radius_m", k_b * abs(ring.radius_m),
                     "k_b times the ring radius")
        out = [Transmitter("point", position=p) for p in sources.positions]
    else:
        out = [_read_transmitter(d, f"transmitters[{i}]", TRANSMITTER_KINDS, "point",
                                 ndim)
               for i, d in enumerate(t)]
        for i, tx in enumerate(out):
            if tx.kind == "point":
                _check_phase(f"transmitters[{i}].position_m",
                             k_b * math.hypot(*tx.position),
                             "k_b times the distance from the origin")
    if not out:
        raise ConfigError("transmitters: need at least one transmitter")
    return out


def receivers_from_config(cfg):
    """(receiver ring, subsampling factor of the generated data)."""
    r = _read(_section(cfg, "receivers"), "receivers", RECEIVERS_SCHEMA)
    grid = grid_from_config(cfg)
    if grid.ndim != 2:
        raise ConfigError("receivers: a receiver ring needs a 2D grid")
    ring = _build("receivers", ring_sensors, r.count, r.ring_radius_m,
                  phase=r.phase_rad)
    # every transmitter records every slot of the ring
    _build("receivers.subsample", check_subsample, r.subsample, r.count)
    _check_phase("receivers.ring_radius_m", _k_b(grid) * abs(r.ring_radius_m),
                 "k_b times the ring radius")
    return ring, r.subsample


def _check_contrast(path, contrast, grid):
    # sqrt(|f|) for the potential f = contrast * k_b^2 is a wavenumber
    _check_phase(path, _k_b(grid) * math.sqrt(abs(contrast)) * _extent(grid),
                 "k_b sqrt(|contrast|) times the grid extent")


def phantom_from_config(cfg):
    """The phantom's kind and parameters, checked but not rendered."""
    p = _read_kind(_section(cfg, "phantom"), "phantom", PHANTOM_KINDS, "none")
    if p.kind in ("cylinders", "shepp_logan"):
        grid = grid_from_config(cfg)
    if p.kind == "cylinders":
        p.cylinders = [_read(c, f"phantom.cylinders[{i}]", CYLINDER_SCHEMA)
                       for i, c in enumerate(p.cylinders)]
        for i, c in enumerate(p.cylinders):
            path = f"phantom.cylinders[{i}]"
            _build(path, check_cylinder, grid, c.center_m, c.radius_m, c.contrast)
            _check_contrast(f"{path}.contrast", c.contrast, grid)
    if p.kind == "shepp_logan":
        _build("phantom", check_shepp_logan, grid, p.contrast)
        _check_contrast("phantom.contrast", p.contrast, grid)
    if p.kind == "from_file" and not os.path.exists(p.path):
        raise ConfigError(f"phantom.path: file not found: {p.path}")
    return p


def generation_from_config(cfg):
    gen = _read(_section(cfg, "generation"), "generation", GENERATION_SCHEMA)
    if not 0 < gen.k_multiplier:
        raise ConfigError("generation.k_multiplier: must be positive and finite")
    if gen.noise_snr_db is not None and not math.isfinite(gen.noise_snr_db):
        raise ConfigError("generation.noise_snr_db: must be finite")
    return gen


def rng_from_config(cfg):
    """Random generator for the measurement noise, seeded by ``seed``."""
    return _build("seed", np.random.default_rng, _section(cfg, "seed"))


# ---------------------------------------------------------------------------
# native measurement files


def _tx_to_json(tx):
    d = {"kind": tx.kind, "amplitude": [tx.amplitude.real, tx.amplitude.imag]}
    if tx.kind == "point":
        d["position_m"] = list(tx.position)
    else:
        d["direction"] = list(tx.direction)
    return d


MEASUREMENT_FORMAT = "wavetomo-measurements-v1"
MEASUREMENT_HEADER_SCHEMA = {
    "format": (STRING, REQUIRED),
    "frequency_hz": (NUMBER_OR_NULL, None),
    "transmitters": (LIST, REQUIRED),
    "receiver_positions_m": (POINTS, REQUIRED),
}
# header transmitters also carry their calibrated amplitude [re, im]
MEASUREMENT_TRANSMITTER_KINDS = {
    kind: {**keys, "amplitude": (NUMBERS, REQUIRED)}
    for kind, keys in TRANSMITTER_KINDS.items()}


def _check_header_phases(transmitters, receivers, grid):
    # an axis-count mismatch is reported where the problem is built
    if receivers.positions.shape[1] != grid.ndim:
        return
    k_b, center = _k_b(grid), grid.center
    points = [(f"header.receiver_positions_m[{i}]", p)
              for i, p in enumerate(receivers.positions.tolist())]
    points += [(f"header.transmitters[{i}].position_m", tx.position)
               for i, tx in enumerate(transmitters) if tx.kind == "point"]
    for path, p in points:
        _check_phase(path, k_b * math.dist(p, center),
                     "k_b times the distance from the grid center")


def _read_header(line, grid):
    """(transmitters, receivers, frequency_hz) from a measurement file's first line."""
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise MeasurementParseError(f"bad JSON header: {exc}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != MEASUREMENT_FORMAT:
        raise MeasurementParseError("unrecognized format tag", line=1)
    try:
        h = _read(header, "header", MEASUREMENT_HEADER_SCHEMA)
        receivers = _build("header.receiver_positions_m", SensorSet,
                           h.receiver_positions_m)
        transmitters = [_read_transmitter(d, f"header.transmitters[{i}]",
                                          MEASUREMENT_TRANSMITTER_KINDS, REQUIRED,
                                          receivers.positions.shape[1])
                        for i, d in enumerate(h.transmitters)]
        if not transmitters:
            raise ConfigError("header.transmitters: need at least one transmitter")
        if grid is not None:
            _check_header_phases(transmitters, receivers, grid)
            grid_hz = SPEED_OF_LIGHT / grid.wavelength
            if h.frequency_hz is not None and not abs(h.frequency_hz / grid_hz - 1) <= 1e-9:
                raise ConfigError(f"header.frequency_hz: {h.frequency_hz:.9g} Hz, but "
                                  f"grid.wavelength_m implies {grid_hz:.9g} Hz")
    except ConfigError as exc:
        raise MeasurementParseError(str(exc), line=1) from None
    return transmitters, receivers, h.frequency_hz


def save_measurements(path, mset):
    """Write a MeasurementSet: one JSON header line, then tx,rx,re,im rows."""
    header = {
        "format": MEASUREMENT_FORMAT,
        "frequency_hz": mset.frequency_hz,
        "transmitters": [_tx_to_json(tx) for tx in mset.transmitters],
        "receiver_positions_m": mset.receivers.positions.tolist(),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for t, (ix, y) in enumerate(zip(mset.active_indices, mset.y)):
        for r, v in zip(ix, y):
            lines.append(f"{t},{int(r)},{_fmt(v.real)},{_fmt(v.imag)}")
    write_file(path, "\n".join(lines) + "\n")


def load_measurements(path, grid=None):
    """MeasurementSet from a native measurement file.

    Given the ``grid`` the data will be reconstructed on, the header's
    receivers and point transmitters are also bounded: k_b times each one's
    distance from the grid center may not exceed MAX_PHASE_RAD, and a header
    ``frequency_hz`` must be SPEED_OF_LIGHT / grid.wavelength to 1e-9.
    """
    lines = list(_numbered_lines(path))
    if not lines:
        raise MeasurementParseError("empty file", line=1)
    transmitters, receivers, frequency_hz = _read_header(lines[0][1], grid)

    def rows():
        for lineno, raw in lines[1:]:
            if not raw.strip():
                continue
            parts = raw.split(",")
            if len(parts) != 4:
                raise MeasurementParseError("expected tx,rx,re,im", line=lineno)
            try:
                t, r = int(parts[0]), int(parts[1])
                v = complex(float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise MeasurementParseError(str(exc), line=lineno) from None
            yield lineno, t, r, (v,)

    active, values = _by_transmitter(rows(), len(transmitters), len(receivers), 0)
    for t, ix in enumerate(active):
        if not ix.size:
            raise MeasurementParseError(f"transmitter {t} has no data rows", line=1)
    return MeasurementSet(transmitters=transmitters, receivers=receivers,
                          active_indices=active, y=[v.ravel() for v in values],
                          frequency_hz=frequency_hz)


def _by_transmitter(rows, n_tx, n_rx, base):
    """Per transmitter, its receiver indices and a (rows, values) complex array
    from ``rows`` of (line number, 0-based tx, 0-based rx, complex values), in
    file order.  An index out of range, a repeated (tx, rx) pair and a
    non-finite value raise MeasurementParseError at their line; the messages
    count indices from ``base``."""
    per_tx_ix = [[] for _ in range(n_tx)]
    per_tx_values = [[] for _ in range(n_tx)]
    seen = set()
    for lineno, t, r, values in rows:
        if not 0 <= t < n_tx:
            raise MeasurementParseError(f"transmitter index {t + base} out of range",
                                        line=lineno)
        if not 0 <= r < n_rx:
            raise MeasurementParseError(f"receiver index {r + base} out of range",
                                        line=lineno)
        if (t, r) in seen:
            raise MeasurementParseError(
                f"repeated (tx, rx) pair ({t + base}, {r + base})", line=lineno)
        if not all(map(cmath.isfinite, values)):
            raise MeasurementParseError("non-finite value", line=lineno)
        seen.add((t, r))
        per_tx_ix[t].append(r)
        per_tx_values[t].append(values)
    return ([np.array(ix, dtype=int) for ix in per_tx_ix],
            [np.array(v, dtype=complex) for v in per_tx_values])


# ---------------------------------------------------------------------------
# Institut-Fresnel ASCII layout


def load_fresnel_ascii(path, frequency_ghz=3.0):
    """Load one frequency channel of a Fresnel-layout ASCII file.

    Rows: ``tx rx freq re_total im_total re_inc im_inc`` with 1-based tx/rx
    indices and frequency in GHz (values above 1e6 are taken as Hz).  The
    scattered field is total - incident.  Transmitter positions are placed
    evenly on the 1.67 m rim; each transmitter's complex amplitude is the
    least-squares fit of the line-source model to its recorded incident field.
    """
    rows = []
    for lineno, line in _numbered_lines(path):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) != 7:
            raise MeasurementParseError(
                f"expected 7 columns, got {len(parts)}", line=lineno)
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise MeasurementParseError(str(exc), line=lineno) from None
        # transmitters sit on the receivers' ring, so both index its slots
        for name, text, ix in zip(("transmitter", "receiver"), parts, vals):
            if not (ix.is_integer() and 1 <= ix <= FRESNEL_RECEIVER_SLOTS):
                raise MeasurementParseError(
                    f"{name} index {text} is not an integer in "
                    f"1..{FRESNEL_RECEIVER_SLOTS}", line=lineno)
        rows.append((lineno, vals))
    if not rows:
        raise MeasurementParseError("no data rows", line=1)

    def to_ghz(v):
        return v / 1e9 if v > 1e6 else v

    sel = [(ln, v) for ln, v in rows
           if abs(to_ghz(v[2]) - frequency_ghz) <= 1e-6 * frequency_ghz]
    if not sel:
        raise MeasurementParseError(
            f"no rows at {frequency_ghz} GHz", line=rows[0][0])

    n_tx = int(max(v[0] for _, v in sel))
    receivers = ring_sensors(FRESNEL_RECEIVER_SLOTS, FRESNEL_RING_RADIUS_M)
    tx_step = 360.0 / n_tx
    freq_hz = frequency_ghz * 1e9
    k_b = 2.0 * np.pi * freq_hz / SPEED_OF_LIGHT

    # fields[t] holds the total and the incident field in its two columns
    active, fields = _by_transmitter(
        ((ln, int(v[0]) - 1, int(v[1]) - 1, (complex(v[3], v[4]), complex(v[5], v[6])))
         for ln, v in sel), n_tx, FRESNEL_RECEIVER_SLOTS, 1)

    transmitters = []
    for t in range(n_tx):
        if not active[t].size:
            # named at the first row whose transmitter index implies this one
            raise MeasurementParseError(
                f"transmitter {t + 1} has no rows at {frequency_ghz} GHz",
                line=next(ln for ln, v in sel if v[0] > t + 1))
        ang = np.deg2rad(t * tx_step)
        pos = (FRESNEL_RING_RADIUS_M * np.cos(ang),
               FRESNEL_RING_RADIUS_M * np.sin(ang))
        model = Transmitter("point", position=pos).field_at(
            receivers.positions[active[t]], k_b)
        rec = fields[t][:, 1]
        denom = np.vdot(model, model)
        amp = np.vdot(model, rec) / denom if abs(denom) > 0 else 1.0
        transmitters.append(Transmitter("point", position=pos, amplitude=complex(amp)))

    return MeasurementSet(
        transmitters=transmitters,
        receivers=receivers,
        active_indices=active,
        y=[v[:, 0] - v[:, 1] for v in fields],
        frequency_hz=freq_hz)


# ---------------------------------------------------------------------------
# images and tables


def emit_image(values, path):
    """16-bit binary portable graymap, min-max windowed.

    The applied window is recorded in ``<path>.window.txt``.  A constant
    image maps to mid-gray (32767).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigError("image emission expects a 2D array")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 65535.0).astype(">u2")
    else:
        scaled = np.full(values.shape, 32767, dtype=">u2")
    write_file(path, f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode()
               + scaled.tobytes())
    write_file(f"{os.fspath(path)}.window.txt", f"min {_fmt(lo)}\nmax {_fmt(hi)}\n")


def emit_grid_csv(values, grid, path):
    """CSV matrix of a grid image with a header naming units and grid spec."""
    values = np.asarray(values)
    header = (f"# shape={'x'.join(str(n) for n in grid.shape)}"
              f" spacing_m={_fmt(grid.spacing)}"
              f" origin_m={','.join(_fmt(c) for c in grid.origin)}"
              f" wavelength_m={_fmt(grid.wavelength)}"
              " units=1/m^2")
    lines = [header]
    for row in values.reshape(grid.shape[0], -1):
        lines.append(",".join(_fmt(v) for v in row))
    write_file(path, "\n".join(lines) + "\n")


def load_grid_csv(path):
    """Read back an emit_grid_csv file; returns (values, header_dict).

    The values take the header's ``shape=`` when it has one, so a 3D grid
    reads back 3D.  A line that is not UTF-8, a cell that is not a finite
    number, a row whose length differs from the first, a file without data
    rows and a header shape that does not hold the values each raise
    MeasurementParseError with the line.
    """
    meta = {}
    rows = []
    shape_line = None
    for lineno, ln in _numbered_lines(path):
        if not ln.strip():
            continue
        if ln.startswith("#"):
            for tokens in ln[1:].split():
                if "=" in tokens:
                    k, v = tokens.split("=", 1)
                    meta[k] = v
                    if k == "shape":
                        shape_line = lineno
            continue
        try:
            row = [float(v) for v in ln.split(",")]
        except ValueError as exc:
            raise MeasurementParseError(str(exc), line=lineno) from None
        if not all(math.isfinite(v) for v in row):
            raise MeasurementParseError("non-finite value", line=lineno)
        if rows and len(row) != len(rows[0]):
            raise MeasurementParseError(
                f"{len(row)} values, the first row has {len(rows[0])}", line=lineno)
        rows.append(row)
    if not rows:
        raise MeasurementParseError("no data rows", line=1)
    values = np.array(rows)
    if "shape" in meta:
        dims = meta["shape"].split("x")
        shape = tuple(int(d) for d in dims if d.isdecimal())
        if len(shape) != len(dims) or math.prod(shape) != values.size:
            raise MeasurementParseError(f"header shape {meta['shape']} does not hold "
                                        f"the {values.size} values", line=shape_line)
        values = values.reshape(shape)
    return values, meta


def emit_table_csv(columns, path):
    """CSV with named columns: columns is a dict of name -> 1D array."""
    names = list(columns)
    arrays = [np.asarray(columns[n]).ravel() for n in names]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ConfigError("table columns differ in length")
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    write_file(path, "\n".join(lines) + "\n")
