import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spoofbench.cli import main
from spoofbench.codec import decode
from spoofbench.errors import ConfigError
from spoofbench.harness import load_benchmark_config
from spoofbench.scenario import ScenarioConfig, default_scenario_config

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "demos" / "benchmark_config.json"


@pytest.mark.parametrize(
    "path,digest",
    [
        ("demos/benchmark_config.json",
         "6d0505ef7993af08a26c014e00aa730301d0b3454fc07bb27b385dfae20b96c3"),
        ("perfbench/configs/stock_grid.json",
         "6d0505ef7993af08a26c014e00aa730301d0b3454fc07bb27b385dfae20b96c3"),
        ("perfbench/configs/dense_ghost.json",
         "2507b6db8eef95522231fc88d8242a7e75180769c2033c724725c6da4a4c1bb9"),
        ("perfbench/configs/sparse_clean.json",
         "3ba6be721761cfb36fc168615041607a692cdcb71c6e6d2c07f165803b6d7752"),
    ],
)
def test_config_digests_are_pinned(path, digest):
    # report.json stamps the digest; a codec change must not move it
    assert load_benchmark_config(ROOT / path).digest() == digest


def test_leaf_decoding():
    # whole floats become ints, ints become floats
    assert type(decode(int, 2.0, "n")) is int and decode(int, 2.0, "n") == 2
    assert type(decode(float, 3, "x")) is float
    for tp, raw in ((int, 2.7), (int, True), (float, False), (float, 10**400),
                    (float, math.inf), (bool, "false"), (str, 5)):
        with pytest.raises(ConfigError, match="^v "):
            decode(tp, raw, "v")


def test_record_defaults_and_missing_keys():
    d = default_scenario_config().as_dict()
    del d["dt_s"], d["seed"]
    cfg = ScenarioConfig.from_dict(d)
    assert (cfg.dt_s, cfg.seed) == (1.0, 0)
    del d["platforms"][0]["waypoints"]
    with pytest.raises(ConfigError, match=r"platforms\[0\] missing keys: \['waypoints'\]"):
        ScenarioConfig.from_dict(d, "scenario")


def _walk(node, path=()):
    """(path, value) of every value under node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _walk(value, path + (key,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


DEMO = json.loads(DEMO_CONFIG.read_text())
LEAVES = [p for p, v in _walk(DEMO) if not isinstance(v, (dict, list))]
KEYS = [p for p, _ in _walk(DEMO) if isinstance(p[-1], str)]
OBJECTS = [()] + [p for p, v in _walk(DEMO) if isinstance(v, dict)]

BAD_LEAVES = st.one_of(
    st.text(max_size=8),
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf]),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def mutated_configs(draw):
    """The demo config with one leaf replaced, one key dropped, or one
    unknown key added."""
    payload = json.loads(json.dumps(DEMO))
    kind = draw(st.sampled_from(["replace", "drop", "add"]))
    if kind == "replace":
        path = draw(st.sampled_from(LEAVES))
        _at(payload, path[:-1])[path[-1]] = draw(BAD_LEAVES)
    elif kind == "drop":
        path = draw(st.sampled_from(KEYS))
        del _at(payload, path[:-1])[path[-1]]
    else:
        _at(payload, draw(st.sampled_from(OBJECTS)))["unknown_key"] = 1
    return payload


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=mutated_configs())
def test_validate_never_raises_on_mutated_config(tmp_path, payload):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", "--config", str(path)]) in (0, 2)
