"""Property tests: the config and measurement parsers reject malformed input
only with their own error types, never with another exception."""

import copy
import json

from hypothesis import given, settings, strategies as st

from test_io import base_config, small_measurements
from wavetomo import fileio
from wavetomo.errors import ConfigError, MeasurementParseError

# Integers stay small: a receiver count of 10**9 is a well-formed request that
# parse_config honours by building the ring, which would take gigabytes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _configs():
    ring = base_config()
    listed = base_config()
    listed["grid"]["origin_m"] = [-0.2, -0.2]
    listed["transmitters"] = [{"position_m": [0.8, 0.0]},
                              {"kind": "plane", "direction": [0.0, 1.0]}]
    listed["phantom"] = {"kind": "shepp_logan", "contrast": 0.05}
    listed["recon"] = {"forward": {"K": 4, "delta_tol_rel": 1e-6},
                       "tau_rel": 0.0,
                       "box": {"lower": -1.0, "upper": 1.0}}
    listed["generation"]["noise_snr_db"] = 20.0
    return [ring, listed]


VALID_CONFIGS = _configs()


def test_seed_configs_parse():
    # the fuzz tests swallow ConfigError, so a seed that stopped parsing would
    # silently stop reaching the readers past the one that rejects it
    for cfg in VALID_CONFIGS:
        fileio.parse_config(json.dumps(cfg))


def _slots(node):
    """Every (container, key) pair in a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, child in items:
        out.append((node, key))
        out.extend(_slots(child))
    return out


def mutate(data, doc, max_edits=3):
    """Delete, replace or add up to ``max_edits`` entries anywhere in ``doc``."""
    for _ in range(data.draw(st.integers(1, max_edits))):
        slots = _slots(doc)
        if not slots:
            return data.draw(json_values)
        container, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["delete", "replace", "add"]))
        if action == "delete":
            del container[key]
        elif action == "replace":
            container[key] = data.draw(json_values)
        elif isinstance(container, dict):
            container[data.draw(st.text(max_size=6))] = data.draw(json_values)
        else:
            container.append(data.draw(json_values))
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_config_mutations(data):
    doc = mutate(data, copy.deepcopy(data.draw(st.sampled_from(VALID_CONFIGS))))
    try:
        fileio.parse_config(json.dumps(doc))
    except ConfigError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_config_text_edits(data):
    text = fileio.serialize_config(data.draw(st.sampled_from(VALID_CONFIGS))).encode()
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + data.draw(st.binary(max_size=3)) + text[i + 1:]
    try:
        fileio.parse_config(text)
    except ConfigError:
        pass


def _load(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.dat"
    # a new file each example: rewriting one in place took tens of ms on ext4
    path.unlink(missing_ok=True)
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        fileio.load_measurements(path)
    except MeasurementParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_measurements_header_mutations(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "valid.dat"
    path.unlink(missing_ok=True)
    fileio.save_measurements(path, small_measurements())
    lines = path.read_bytes().splitlines()
    lines[0] = json.dumps(mutate(data, json.loads(lines[0]))).encode()
    _load(tmp_path_factory, lines)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_measurements_byte_edits(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "valid.dat"
    path.unlink(missing_ok=True)
    fileio.save_measurements(path, small_measurements())
    lines = path.read_bytes().splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        n = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["edit", "duplicate", "delete"]))
        if action == "edit":
            i = data.draw(st.integers(0, len(lines[n])))
            lines[n] = (lines[n][:i] + data.draw(st.binary(max_size=3))
                        + lines[n][i + 1:])
        elif action == "duplicate":
            lines.insert(n, lines[n])
        elif len(lines) > 1:
            del lines[n]
    _load(tmp_path_factory, lines)
