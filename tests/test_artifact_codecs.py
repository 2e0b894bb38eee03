"""The column-wise CSV codec and the hand-formatted snapshot rows against
frozen copies of the per-cell codecs they replaced (tests/_oracles.py):
the same text, the same rows and, for every malformed file, the same
ConfigError text, whether the fault sits in the first chunk of rows,
past it, or after a quoted cell that spans lines."""

import csv
import io
import json
import math
import random
from typing import NamedTuple, Optional

import numpy as np
import pytest

from _oracles import (
    read_csv_per_cell,
    read_snapshots_per_row,
    snapshot_row_text,
    write_csv_per_cell,
)
from spoofbench.codec import _CHUNK_ROWS, _read_csv_columns, read_csv, write_csv
from spoofbench.errors import ConfigError
from spoofbench.tracking import (
    SnapshotRecord,
    TrackStatus,
    read_snapshots_jsonl,
    write_snapshots_jsonl,
)

ROW_COUNTS = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 7]
FLOATS = [0.1, -0.0, 5e-324, 1e16, 1e-07, -123.456, 2.0**0.5, 1e300]
TEXTS = ["a", "b,c", 'say "hi"', "two\nlines", "cr\r\nlf", " padded ", "ü"]


class Row(NamedTuple):
    n: int
    x: float
    name: str
    gap: Optional[float]
    count: Optional[int]
    note: Optional[str]


def _random_float(rng):
    value = rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
    return np.float64(value) if rng.random() < 0.3 else value


def random_rows(n, seed):
    rng = random.Random(seed)
    return [
        Row(
            n=rng.randint(-(10**12), 10**12),
            x=_random_float(rng),
            name=rng.choice(TEXTS),
            gap=None if rng.random() < 0.3 else _random_float(rng),
            count=None if rng.random() < 0.3 else rng.randint(-5, 5),
            note=None if rng.random() < 0.3 else rng.choice(TEXTS),
        )
        for _ in range(n)
    ]


def _exact(rows):
    """Rows with each value's type and text, so -0.0 differs from 0.0."""
    return [[(type(v), repr(v)) for v in row] for row in rows]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_csv_text_and_rows_match_the_per_cell_codec(tmp_path, n):
    rows = random_rows(n, seed=n)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, Row._fields, iter(rows))
    write_csv_per_cell(old, Row._fields, rows)
    assert new.read_bytes() == old.read_bytes()
    again = read_csv(new, Row)
    assert all(type(r) is Row for r in again)
    assert _exact(again) == _exact(read_csv_per_cell(old, Row))
    # a good file is read column-wise, without falling back cell by cell
    assert _exact(_read_csv_columns(new, Row, None)) == _exact(again)
    # np.float64 reads back as a plain float of the same value
    assert _exact(again) == _exact([[float(v) if isinstance(v, float) else v for v in r]
                                    for r in rows])


@pytest.mark.parametrize("at", [0, _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS + 3])
@pytest.mark.parametrize("bad", [lambda row: row[:-1], lambda row: (*row, 1.0)])
def test_write_csv_refuses_a_ragged_row(tmp_path, at, bad):
    rows = random_rows(3 * _CHUNK_ROWS, seed=at)
    rows[at] = bad(rows[at])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "rows.csv", Row._fields, rows)


def test_write_csv_refuses_rows_wider_than_the_header(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "rows.csv", Row._fields[:-1], random_rows(5, seed=1))


def _row_text(cells):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


GOOD = ["7", "1.5", "a", "", "3", ""]


def _cells(**changes):
    cells = dict(zip(Row._fields, GOOD))
    cells.update(changes)
    return _row_text(list(cells.values()))


# (case, text of the faulty row); each is read where it is the first
# row, past the first chunk, and after a quoted cell spanning lines
MALFORMED_CSV_ROWS = [
    ("too-few-cells", "7,1.5,a,,3\n"),
    ("too-many-cells", "7,1.5,a,,3,,9\n"),
    ("blank-line", "\n"),
    ("padded-int", _cells(n="01")),
    ("spaced-int", _cells(n=" 7")),
    ("fractional-int", _cells(n="2.5")),
    ("optional-int", _cells(count="+3")),
    ("word-float", _cells(x="abc")),
    ("nan-float", _cells(x="nan")),
    ("huge-float", _cells(gap="1e999")),
    ("minus-inf-float", _cells(gap="-inf")),
    ("empty-int", _cells(n="")),
    ("empty-float", _cells(x="")),
    ("empty-str", _cells(name="")),
    ("rejected-by-check", _cells(name="bad")),
    ("oversized-cell", _cells(name="x" * 140_000)),
    ("unclosed-quote", '7,1.5,"a,,3,\n'),
    ("bad-utf8", "7,1.5,\udcff,,3,\n"),
]


def _check(row):
    if row.name == "bad":
        raise ConfigError("name must not be 'bad'")


@pytest.mark.parametrize("where", ["first", "past-first-chunk", "after-multiline"])
@pytest.mark.parametrize(
    "text", [c[1] for c in MALFORMED_CSV_ROWS], ids=[c[0] for c in MALFORMED_CSV_ROWS]
)
def test_malformed_csv_errors_match_the_per_cell_codec(tmp_path, where, text):
    good = [_row_text([str(i), "0.5", "a", "", "", ""]) for i in range(700)]
    at = {"first": 0, "past-first-chunk": 598, "after-multiline": 598}[where]
    if where == "after-multiline":
        good[3] = _cells(name="one\ntwo\r\nthree", note='"quoted"')
    lines = [",".join(Row._fields) + "\n", *good]
    lines[1 + at] = text
    path = tmp_path / "rows.csv"
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ConfigError) as want:
        read_csv_per_cell(path, Row, _check)
    with pytest.raises(ConfigError) as got:
        read_csv(path, Row, _check)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}: line ")


def random_records(n, seed, soft):
    """n random rows. Hard rows are the ones gnn_step and births write: an
    assignment (a detection, its score, weight 1.0 on that detection), a
    coasting track (neither) or a birth (a detection, no score)."""
    rng = random.Random(seed)
    statuses = [s.value for s in TrackStatus]
    records = []
    for _ in range(n):
        weights = {}
        miss = None
        if soft and rng.random() < 0.7:
            miss = _random_float(rng)
            weights = {rng.randint(0, 10**6): _random_float(rng) for _ in range(rng.randint(0, 4))}
        record = SnapshotRecord(
            t=rng.randint(0, 10**4),
            track_id=rng.randint(0, 10**9),
            status=rng.choice(statuses),
            x=_random_float(rng),
            y=_random_float(rng),
            vx=_random_float(rng),
            vy=_random_float(rng),
            detection_id=None if rng.random() < 0.3 else rng.randint(0, 10**6),
            score=None if rng.random() < 0.3 else _random_float(rng),
            weights=weights,
            miss=miss,
        )
        if not soft and record.detection_id is None:
            record.score = None
        elif not soft and record.score is not None:
            record.weights = {record.detection_id: 1.0}
        records.append(record)
    return records


def _record_bits(records):
    """Each record's values with their types and texts, np.float64 as
    the plain float it is written as."""
    def exact(v):
        v = float(v) if isinstance(v, float) else v
        return type(v), repr(v)

    return [
        [exact(v) for v in (r.t, r.track_id, r.status, r.x, r.y, r.vx, r.vy,
                            r.detection_id, r.score, r.miss)]
        + sorted((k, exact(w)) for k, w in r.weights.items())
        for r in records
    ]


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_snapshot_rows_match_json_dumps(tmp_path, n, soft):
    records = random_records(n, seed=n, soft=soft)
    path = tmp_path / "snapshots.jsonl"
    write_snapshots_jsonl(path, records, include_beta=soft)
    assert path.read_text(encoding="utf-8") == "".join(
        snapshot_row_text(r, soft) for r in records
    )
    again = read_snapshots_jsonl(path, soft)
    assert _record_bits(again) == _record_bits(read_snapshots_per_row(path, soft))
    assert _record_bits(again) == _record_bits(records)


@pytest.mark.parametrize("field", ["x", "vy", "score", "miss", "weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.inf)])
def test_snapshot_rows_refuse_non_finite_numbers(tmp_path, field, value):
    [record] = random_records(1, seed=5, soft=False)
    record.miss, record.weights = 0.5, {3: 0.5}
    if field == "weight":
        record.weights[4] = value
    else:
        setattr(record, field, value)
    with pytest.raises(ValueError):
        snapshot_row_text(record, True)
    with pytest.raises(ValueError):
        write_snapshots_jsonl(tmp_path / "snapshots.jsonl", [record], True)


def _edit(key, value):
    def edit(row):
        row[key] = value
        return json.dumps(row).replace('"HUGE"', "1e999") + "\n"
    return edit


def _hard_score_without_detection(row):
    del row["beta"]
    row.update(detection_id=None, score=0.5)
    return json.dumps(row) + "\n"


def _drop(key):
    def edit(row):
        del row[key]
        return json.dumps(row) + "\n"
    return edit


# (case, edit of a row object into the text of its line)
MALFORMED_SNAPSHOT_ROWS = [
    ("invalid-json", lambda row: json.dumps(row)[:-7] + "\n"),
    ("two-objects", lambda row: json.dumps(row) + json.dumps(row) + "\n"),
    ("list-row", lambda row: json.dumps(list(row.values())) + "\n"),
    ("nan-token", _edit("x", math.nan)),
    ("infinity-token", _edit("score", -math.inf)),
    ("huge-number", _edit("vy", "HUGE")),
    ("missing-key", _drop("x")),
    ("unknown-key", _edit("extra", 1)),
    ("string-number", _edit("y", "1.0")),
    ("bool-number", _edit("vx", True)),
    ("null-number", _edit("x", None)),
    ("string-score", _edit("score", "0.5")),
    ("fractional-t", _edit("t", 1.5)),
    ("string-track-id", _edit("track_id", "3")),
    ("fractional-detection-id", _edit("detection_id", 2.5)),
    ("unknown-status", _edit("status", "lost")),
    ("list-status", _edit("status", ["confirmed"])),
    ("string-beta", _edit("beta", "x")),
    ("string-miss", _edit("beta", {"miss": "x"})),
    ("beta-without-miss", _edit("beta", {"3": 0.5})),
    ("beta-non-integer-key", _edit("beta", {"miss": 0.5, "x": 0.5})),
    ("beta-padded-key", _edit("beta", {"miss": 0.5, "03": 0.5})),
    ("beta-string-weight", _edit("beta", {"miss": 0.5, "3": "0.5"})),
    ("beta-huge-weight", _edit("beta", {"miss": 0.5, "3": "HUGE"})),
    ("hard-score-without-detection", _hard_score_without_detection),
]


@pytest.mark.parametrize("at", [2, 600])
@pytest.mark.parametrize(
    "edit", [c[1] for c in MALFORMED_SNAPSHOT_ROWS], ids=[c[0] for c in MALFORMED_SNAPSHOT_ROWS]
)
def test_malformed_snapshot_errors_match_the_per_leaf_codec(tmp_path, at, edit):
    records = random_records(700, seed=at, soft=True)
    lines = [snapshot_row_text(r, True) for r in records]
    lines[at] = edit(json.loads(lines[at]))
    path = tmp_path / "snapshots.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError) as want:
        read_snapshots_per_row(path, True)
    with pytest.raises(ConfigError) as got:
        read_snapshots_jsonl(path, True)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}: line {at + 1}: ")


# (case, include_beta of the file, edit of a row with a score, named in
# the error); the reader is told which kind of file it reads
MISMATCHED_SNAPSHOT_ROWS = [
    ("soft-row-without-beta", True, _drop("beta"), "row missing keys: ['beta']"),
    ("hard-row-with-beta", False, _edit("beta", None), "unknown row keys: ['beta']"),
    ("hard-row-with-score-without-detection", False, _edit("detection_id", None),
     "a row with a score and no beta must name its detection_id"),
]


@pytest.mark.parametrize(
    "include_beta,edit,named",
    [c[1:] for c in MISMATCHED_SNAPSHOT_ROWS],
    ids=[c[0] for c in MISMATCHED_SNAPSHOT_ROWS],
)
def test_snapshot_row_kind_errors_match_the_per_leaf_codec(tmp_path, include_beta, edit, named):
    records = random_records(20, seed=4, soft=include_beta)
    lines = [snapshot_row_text(r, include_beta) for r in records]
    at = next(i for i, r in enumerate(records) if r.score is not None)
    lines[at] = edit(json.loads(lines[at]))
    path = tmp_path / "snapshots.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError) as want:
        read_snapshots_per_row(path, include_beta)
    with pytest.raises(ConfigError) as got:
        read_snapshots_jsonl(path, include_beta)
    assert str(got.value) == str(want.value) == f"{path}: line {at + 1}: {named}"


@pytest.mark.parametrize(
    "edit", [_edit("vx", 3), _edit("t", 2.0), _edit("beta", {"miss": 1, "3": 0})],
    ids=["int-number", "whole-float-t", "int-weights"],
)
def test_loose_snapshot_leaves_read_as_the_per_leaf_codec(tmp_path, edit):
    lines = [snapshot_row_text(r, True) for r in random_records(5, seed=2, soft=True)]
    lines[2] = edit(json.loads(lines[2]))
    path = tmp_path / "snapshots.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    assert _record_bits(read_snapshots_jsonl(path, True)) == _record_bits(
        read_snapshots_per_row(path, True)
    )
