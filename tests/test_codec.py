import json
import math
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spoofbench.cli import main
from spoofbench.codec import decode, encode, read_csv, write_csv
from spoofbench.errors import ConfigError
from spoofbench.geometry import Region
from spoofbench.harness import load_benchmark_config
from spoofbench.scenario import ScenarioConfig, default_scenario_config
from spoofbench.spoofing import SpoofConfig, SpoofType
from spoofbench.tracking import TrackerParams

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "demos" / "benchmark_config.json"


@pytest.mark.parametrize(
    "path,digest",
    [
        ("demos/benchmark_config.json",
         "8de96203229030e6104ef1c8796fbab3def3827f6ef56611f1877e90747a8869"),
        ("perfbench/configs/stock_grid.json",
         "8de96203229030e6104ef1c8796fbab3def3827f6ef56611f1877e90747a8869"),
        ("perfbench/configs/dense_ghost.json",
         "627a042e4dbfc1e94065fd536b7f0a41635d24d8be1b43843e2643547db0a9ec"),
        ("perfbench/configs/sparse_clean.json",
         "33f7339e351526ce3f311e91b29e3e7bfec877750c2917ef6ccefe2d6ac4117c"),
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


def test_dict_keys_and_order():
    # int keys parse only from their canonical decimal form
    got = decode(dict[int, float], {"10": 1, "2": 2.5, "-3": 0}, "d")
    assert got == {10: 1.0, 2: 2.5, -3: 0.0}
    assert list(encode(got)) == ["-3", "2", "10"]
    assert decode(dict[str, int], {"b": 1, "a": 2}, "d") == {"b": 1, "a": 2}
    for raw in ({"x": 1.0}, {"01": 1.0}, {"-0": 1.0}, {" 1": 1.0}, {"1_0": 1.0}):
        with pytest.raises(ConfigError, match="^d key .* must be a decimal integer"):
            decode(dict[int, float], raw, "d")
    with pytest.raises(ConfigError, match=r"^d\.2 must be a number"):
        decode(dict[int, float], {"2": "1"}, "d")
    with pytest.raises(ConfigError, match="^d must be an object"):
        decode(dict[int, float], [1.0], "d")


def test_list_items():
    got = decode(list[int], [1, 2.0], "v")
    assert got == [1, 2] and type(got) is list
    assert decode(list[int], [], "v") == []
    with pytest.raises(ConfigError, match=r"^v\[1\] must be a whole number"):
        decode(list[int], [1, 2.5], "v")
    with pytest.raises(ConfigError, match="^v must be a list"):
        decode(list[int], {"0": 1}, "v")


class _Sample(NamedTuple):
    t: int
    value: float


def test_named_tuple_is_a_list_in_field_order():
    got = decode(_Sample, [3, 2], "p")
    assert got == _Sample(t=3, value=2.0) and type(got) is _Sample
    assert encode(got) == [3, 2.0]
    with pytest.raises(ConfigError, match="^p must be a list of 2 items"):
        decode(_Sample, [3], "p")
    with pytest.raises(ConfigError, match=r"^p\[1\] must be a number, got bool"):
        decode(_Sample, [3, True], "p")


def test_record_defaults_and_missing_keys():
    d = default_scenario_config().as_dict()
    del d["dt_s"], d["seed"]
    cfg = ScenarioConfig.from_dict(d)
    assert (cfg.dt_s, cfg.seed) == (1.0, 0)
    del d["platforms"][0]["waypoints"]
    with pytest.raises(ConfigError, match=r"platforms\[0\] missing keys: \['waypoints'\]"):
        ScenarioConfig.from_dict(d, "scenario")


def test_bounded_fields_report_the_interval():
    with pytest.raises(ConfigError, match=r"^gamma -1\.0 outside \[0\.0, inf\)$"):
        TrackerParams(gamma=-1.0)
    with pytest.raises(ConfigError, match=r"^v_max_mps 0\.0 outside \(0\.0, 299792458\.0\]$"):
        TrackerParams(v_max_mps=0.0)
    with pytest.raises(ConfigError, match=r"^delete_misses 0 outside \[1, inf\)$"):
        TrackerParams(delete_misses=0)
    with pytest.raises(ConfigError, match=r"^x_min -1e\+200 outside \[-1000000000\.0, "):
        Region(-1e200, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigError, match=r"^mirror_x0 must be finite, got nan$"):
        SpoofConfig(spoof_type=SpoofType.MIRROR, mirror_x0=math.nan)
    # from JSON, the record's path comes first
    with pytest.raises(ConfigError, match=r"^spoof_grid\[2\]: mirror_x0 1e\+200 outside "):
        SpoofConfig.from_dict({"spoof_type": "mirror", "mirror_x0": 1e200}, "spoof_grid[2]")


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


class _CsvRow(NamedTuple):
    n: int
    x: float
    name: str
    gap: Optional[float]


def test_csv_round_trip_and_text(tmp_path):
    rows = [
        _CsvRow(0, 0.1, "a", None),
        _CsvRow(-3, 1e-07, "b,c", 1e16),
        _CsvRow(12, -0.0, "d", np.float64(1.0) / 3.0),
        _CsvRow(7, np.float64(2.5), "", 0.0),
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, _CsvRow._fields, rows[:3])
    # floats as their shortest round-trip text, None as an empty cell
    assert path.read_bytes() == (
        b"n,x,name,gap\n"
        b"0,0.1,a,\n"
        b'-3,1e-07,"b,c",1e+16\n'
        b"12,-0.0,d,0.3333333333333333\n"
    )
    again = read_csv(path, _CsvRow)
    assert again == rows[:3] and all(type(r) is _CsvRow for r in again)
    assert math.copysign(1.0, again[2].x) == -1.0
    assert [type(v) for v in again[2]] == [int, float, str, float]
    # an empty cell is None in an Optional field only
    write_csv(path, _CsvRow._fields, rows[3:])
    assert path.read_text().splitlines()[1] == "7,2.5,,0.0"
    with pytest.raises(ConfigError, match=r"rows.csv: line 2: name must not be empty"):
        read_csv(path, _CsvRow)


@pytest.mark.parametrize(
    "text,named",
    [
        ("n,x,name\n", "line 1: header must be ['n', 'x', 'name', 'gap']"),
        ("", "line 1: header must be"),
        ("n,x,name,gap\n1,2.0,a\n", "line 2: expected 4 cells, got 3"),
        ("n,x,name,gap\n1,2.0,a,,\n", "line 2: expected 4 cells, got 5"),
        ("n,x,name,gap\n1,2.0,a,\n01,2.0,a,\n", "line 3: n must be a decimal integer, got '01'"),
        ("n,x,name,gap\n2.5,2.0,a,\n", "line 2: n must be a decimal integer"),
        ("n,x,name,gap\n1,abc,a,\n", "line 2: x must be a finite number, got 'abc'"),
        ("n,x,name,gap\n1,nan,a,\n", "x must be a finite number"),
        ("n,x,name,gap\n1,1.0,a,1e999\n", "gap must be a finite number, got '1e999'"),
        ("n,,name,gap\n", "line 1: header must be"),
    ],
)
def test_read_csv_rejects(tmp_path, text, named):
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        read_csv(path, _CsvRow)
    assert str(info.value).startswith(f"{path}: line ")
    assert named in str(info.value)
