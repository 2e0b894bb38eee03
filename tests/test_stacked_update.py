"""The stacked predict, gate and Kalman update give the bits of one
call per track.

Every check here compares bytes, not tolerances: the trackers' artifacts
are byte-compared across reruns, so batching may not move a single bit.
The oracles are frozen per-track copies that make each product a sum of
Python floats, or of one track's arrays, in the stacked order, so the
bits owe nothing to BLAS; the file also runs in CI under other OpenBLAS
kernels (OPENBLAS_CORETYPE) to show it.
"""

import collections
import itertools
import json
import sys

import numpy as np
import pytest

from _oracles import (
    KinematicEstimate,
    PerTrackRun,
    gate_per_track,
    gnn_step_per_track,
    jpda_step_per_track,
    kf_predict_per_track,
    kf_update_per_row,
    run_tracker_per_track,
    snapshot_json_dict,
)
from spoofbench import tracker_gnn, tracking
from spoofbench.estimation import gate_stack, kf_predict_stack, kf_update_stack
from spoofbench.sensing import Detection, DetectionFrame
from spoofbench.tracker_gnn import gnn_step
from spoofbench.tracker_jpda import jpda_step
from spoofbench.tracking import TrackerParams, run_tracker


def random_spd(rng, n, scale):
    A = rng.normal(0.0, 1.0, (n, n))
    return scale * (A @ A.T + 0.1 * np.eye(n))


def clutter(t, i, z, R):
    """A clutter detection at z (2,) reporting covariance R (2, 2)."""
    x, y = np.asarray(z, dtype=float).tolist()
    (r_xx, r_xy), (_, r_yy) = np.asarray(R, dtype=float).tolist()
    return Detection(t, i, x, y, r_xx, r_xy, r_yy, "clutter")


def random_stack(rng, n):
    x = rng.normal(0.0, 300.0, (n, 4))
    P = np.array([random_spd(rng, 4, rng.uniform(0.1, 500.0)) for _ in range(n)]).reshape(n, 4, 4)
    z = x[:, :2] + rng.normal(0.0, 20.0, (n, 2))
    R = np.array([random_spd(rng, 2, rng.uniform(0.1, 50.0)) for _ in range(n)]).reshape(n, 2, 2)
    return x, P, z, R


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_stack_rows_equal_per_row_updates(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        x, P, z, R = random_stack(rng, n)
        x_post, P_post, nu, S = kf_update_stack(x, P, z, R)
        for i in range(n):
            want_x, want_P = kf_update_per_row(x[i], P[i], z[i], R[i])
            assert same_bits(x_post[i], want_x)
            assert same_bits(P_post[i], want_P)
            assert same_bits(nu[i], z[i] - x[i, :2]) and same_bits(S[i], P[i, :2, :2] + R[i])


def test_stack_with_one_degenerate_S_raises():
    x, P, z, R = random_stack(np.random.default_rng(9), 5)
    P[3, :2, :] = 0.0
    P[3, :, :2] = 0.0
    R[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        kf_update_stack(x, P, z, R)


def random_frame(rng, m, around):
    """m detections scattered about the given positions, each with its
    own covariance."""
    dets = tuple(
        clutter(0, i, around[i % len(around)] + rng.normal(0.0, 30.0, 2),
                random_spd(rng, 2, rng.uniform(0.5, 50.0)))
        for i in range(m)
    )
    return DetectionFrame(t=0, detections=dets)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_predict_and_gate_rows_equal_per_track_calls(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        n, m = int(rng.integers(0, 61)), int(rng.integers(0, 26))
        x, P, _, _ = random_stack(rng, n)
        dt, q, gamma = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 5.0)), 9.21
        x_pred, P_pred = kf_predict_stack(x, P, dt, q)
        assert x_pred.shape == (n, 4) and P_pred.shape == (n, 4, 4)
        frame = random_frame(rng, m, x_pred[:, :2] if n else np.zeros((1, 2)))
        gated = gate_stack(frame, x_pred, P_pred, gamma)
        assert gated.d2.shape == gated.inside.shape == (n, m)
        assert gated.detection_ids == tuple(range(m))
        assert len(gated) == int(gated.inside.sum())
        for i in range(n):
            want = kf_predict_per_track(KinematicEstimate(x=x[i], P=P[i]), dt, q)
            assert same_bits(x_pred[i], want.x) and same_bits(P_pred[i], want.P)
            track_gate = gate_per_track(frame, want, gamma)
            assert np.flatnonzero(gated.inside[i]).tolist() == track_gate.indices.tolist()
            assert same_bits(gated.d2[i, track_gate.indices], track_gate.d2)
            assert same_bits(gated.S[i, track_gate.indices], track_gate.S)


def test_stacked_gate_raises_only_where_per_track_gates_raise():
    rng = np.random.default_rng(11)
    x, P, _, _ = random_stack(rng, 5)
    frame = random_frame(rng, 4, x[:, :2])
    bad = clutter(0, 9, np.zeros(2), np.full((2, 2), np.nan))
    degenerate = DetectionFrame(t=0, detections=frame.detections + (bad,))
    # no track: no pair is scored, whatever R the frame reports
    assert len(gate_stack(degenerate, np.zeros((0, 4)), np.zeros((0, 4, 4)))) == 0
    # no detection: every track's gate is empty
    empty = gate_stack(DetectionFrame(t=0, detections=()), x, P)
    assert empty.d2.shape == (5, 0) and len(empty) == 0
    for i in range(5):
        with pytest.raises(np.linalg.LinAlgError):
            gate_per_track(degenerate, KinematicEstimate(x=x[i], P=P[i]), 9.21)
    with pytest.raises(np.linalg.LinAlgError):
        gate_stack(degenerate, x, P)
    # one track whose position block cancels the detection's R: S = 0
    P_flat = P.copy()
    P_flat[2, :2, :2] = -frame.covariances[0]
    with pytest.raises(np.linalg.LinAlgError):
        gate_stack(DetectionFrame(t=0, detections=frame.detections[:1]), x, P_flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_predict_rejects_any_non_finite_row(bad):
    x, P, _, _ = random_stack(np.random.default_rng(12), 6)
    kf_predict_stack(x, P, 1.0, 1.0)
    for rows in (x, P):
        broken = rows.copy()
        broken[4].flat[1] = bad
        args = (broken, P) if rows is x else (x, broken)
        with pytest.raises(ValueError, match="non-finite"):
            kf_predict_stack(*args, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            kf_predict_per_track(KinematicEstimate(x=args[0][4], P=args[1][4]), 1.0, 1.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        kf_predict_stack(x, P, 0.0, 1.0)


def crossing_frames(seed, n_steps=30):
    """Frames with every situation the batched steps must reproduce:
    clutter, two platforms close enough to share detections, steps in
    which a track's gate is empty, and one step that puts a dozen
    detections inside one track's gate. Each detection reports its own
    covariance."""
    rng = np.random.default_rng(seed)
    starts = np.array([[-200.0, -100.0], [-192.0, -100.0], [150.0, 120.0], [0.0, 200.0]])
    velocity = np.array([[8.0, 3.0], [8.0, 3.0], [-6.0, -2.0], [0.0, 0.0]])
    ids = itertools.count()
    frames = []
    for t in range(n_steps):
        truth = starts + velocity * t
        zs = [p + rng.normal(0.0, 2.0, 2) for p in truth if rng.random() < 0.85]
        zs += list(rng.uniform(-400.0, 400.0, (int(rng.poisson(6)), 2)))
        if t in (10, 20):
            zs += list(truth[2] + rng.normal(0.0, 3.0, (12, 2)))
        dets = tuple(
            clutter(t, next(ids), z, random_spd(rng, 2, rng.uniform(1.0, 9.0)))
            for z in zs
        )
        frames.append(DetectionFrame(t=t, detections=dets))
    return frames


def run_bytes(run):
    """The snapshot rows as written, beta included, plus the final
    covariances, which the rows do not show, with their track ids: the
    final bank's rows, or a per-track run's last live tracks, each in
    track-id order."""
    rows = json.dumps([snapshot_json_dict(r, True) for r in run.snapshots], allow_nan=False)
    if isinstance(run, PerTrackRun):
        ids = [tr.track_id for tr in run.tracks]
        covs = b"".join(tr.estimate.P.tobytes() for tr in run.tracks)
    else:
        ids, covs = run.bank.ids, run.bank.P.tobytes()
    return rows, ids, covs


PARAMS = {
    "no_clutter": TrackerParams(clutter_density=0.0),
    "clutter": TrackerParams(clutter_density=1e-4, p_detect=0.85),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_jpda_step_matches_per_track_updates(key, seed):
    frames = crossing_frames(seed)
    params = PARAMS[key]
    got = run_tracker(frames, params, jpda_step)
    want = run_tracker_per_track(frames, params, jpda_step_per_track)
    assert run_bytes(got) == run_bytes(want)

    pre_existing = [r for step in got.steps for r in step.assignments]
    assert max(len(r.weights) for r in pre_existing) >= 10
    assert any(not r.weights for r in pre_existing)  # an empty gate
    shared = False
    for step in got.steps:
        seen = [d for r in step.assignments for d in r.weights]
        shared |= len(seen) > len(set(seen))
    assert shared
    if params.clutter_density == 0.0:
        assert any(r.weights and r.miss == 0.0 for r in pre_existing)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_gnn_step_matches_per_track_updates(key, seed, monkeypatch):
    contested = []
    solve = tracker_gnn.hungarian

    def recording(costs, unassigned_cost):
        contested.append(bool((np.isfinite(costs).sum(axis=0) >= 2).any()))
        return solve(costs, unassigned_cost)

    monkeypatch.setattr(tracker_gnn, "hungarian", recording)
    frames = crossing_frames(seed)
    params = PARAMS[key]
    got = run_tracker(frames, params, gnn_step)
    want = run_tracker_per_track(frames, params, gnn_step_per_track)
    assert run_bytes(got) == run_bytes(want)
    assert any(contested)  # some detection gated by two tracks
    assert sum(r.detection_id is not None for s in got.steps for r in s.assignments) > 0


def test_zero_rows_pass_through_predict_gate_and_update():
    frame = random_frame(np.random.default_rng(13), 3, np.zeros((1, 2)))
    x, P = kf_predict_stack(np.zeros((0, 4)), np.zeros((0, 4, 4)), 1.0, 1.0)
    assert x.shape == (0, 4) and P.shape == (0, 4, 4)
    gated = gate_stack(frame, x, P)
    assert gated.d2.shape == gated.inside.shape == (0, 3) and len(gated) == 0
    none = np.zeros(0, dtype=int)
    x_post, P_post, nu, S = kf_update_stack(x, P, frame.positions[none], frame.covariances[none])
    assert [a.shape for a in (x_post, P_post, nu, S)] == [(0, 4), (0, 4, 4), (0, 2), (0, 2, 2)]


def frame_at(t, ids, positions):
    return DetectionFrame(t=t, detections=tuple(
        clutter(t, i, z, 4.0 * np.eye(2))
        for i, z in zip(ids, positions)
    ))


def coasting_frames():
    """Tracks started on crossing frames, then frames with no detection
    until every row has coasted to its deletion."""
    frames = crossing_frames(0, n_steps=8)
    return frames + [DetectionFrame(t=t, detections=()) for t in range(8, 15)]


def wiped_frames():
    """Three births, four empty frames, then one frame whose detections
    are far outside every gate: that step deletes every row at its fifth
    miss and births into the emptied bank, and the next updates them."""
    near = [(0.0, 0.0), (60.0, 0.0), (0.0, 60.0)]
    far = [(9000.0, 9000.0), (9060.0, 9000.0)]
    return (
        [frame_at(0, [0, 1, 2], near)]
        + [DetectionFrame(t=t, detections=()) for t in range(1, 5)]
        + [frame_at(5, [3, 4], far), frame_at(6, [5, 6], [(9001.0, 9000.0), (9061.0, 9001.0)])]
    )


EDGE_STREAMS = {"empty": lambda: [], "coasting": coasting_frames, "wiped": wiped_frames}


@pytest.mark.parametrize("key", sorted(EDGE_STREAMS))
@pytest.mark.parametrize(
    "step_fn,per_track", [(gnn_step, gnn_step_per_track), (jpda_step, jpda_step_per_track)],
    ids=["gnn", "jpda"],
)
def test_bank_edge_cases_match_per_track_steps(key, step_fn, per_track):
    frames = EDGE_STREAMS[key]()
    params = PARAMS["clutter"]
    got = run_tracker(frames, params, step_fn)
    assert run_bytes(got) == run_bytes(run_tracker_per_track(frames, params, per_track))
    assert got.bank.x.shape == (len(got.bank), 4) and got.bank.P.shape == (len(got.bank), 4, 4)
    if key == "empty":
        assert got.steps == got.snapshots == got.bank.ids == []
    elif key == "coasting":
        # every row coasted, scored nothing, and ended deleted
        assert got.bank.ids == [] and got.steps[-1].assignments == []
        coasted = [r for step in got.steps[8:] for r in step.assignments]
        assert coasted and all(r.score is None and not r.weights for r in coasted)
        assert {r.track_id: r.status for r in got.snapshots} == dict.fromkeys(
            {r.track_id for r in got.snapshots}, "deleted"
        )
    else:
        wipe = got.steps[5]
        assert [r.track_id for r in wipe.assignments if r.status == "deleted"] == [0, 1, 2]
        assert [r.track_id for r in wipe.births] == [3, 4]
        assert [r.detection_id for r in got.steps[6].assignments] == [5, 6]


@pytest.mark.parametrize("step_fn", [gnn_step, jpda_step], ids=["gnn", "jpda"])
def test_steps_read_one_row_per_track_and_keep_no_view(step_fn, monkeypatch):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls[name] += 1
            if name in ("gate", "gate_stack"):
                calls[name + ".gated"] += len(result)
            return result

        return wrapper

    module = sys.modules[step_fn.__module__]
    for namespace, name in [(module, "kf_predict"), (module, "gate"),
                            (tracking, "kf_predict_stack"), (tracking, "gate_stack")]:
        monkeypatch.setattr(namespace, name, counting(name, getattr(namespace, name)))

    def checked(bank, frame, params, *, id_source):
        # after every step the bank owns its arrays, so no step's stack
        # outlives the step, and what the step returns holds no array
        result = step_fn(bank, frame, params, id_source=id_source)
        assert bank.x.base is None and bank.P.base is None
        held = []
        for row in result.assignments + result.births:
            held += [*vars(row).values(), *row.weights, *row.weights.values()]
        assert not any(isinstance(value, np.ndarray) for value in held)
        return result

    frames = crossing_frames(0)
    run = run_tracker(frames, PARAMS["clutter"], checked)

    # one row read per track entering a step, one stacked kernel per step
    track_steps = sum(len(step.assignments) for step in run.steps)
    assert calls["kf_predict"] == calls["gate"] == track_steps > 0
    assert calls["kf_predict_stack"] == calls["gate_stack"] == len(frames)
    assert calls["gate.gated"] == calls["gate_stack.gated"] > 0
    # and so does every birth row
    for row in run.snapshots:
        assert not any(isinstance(value, np.ndarray) for value in vars(row).values())
