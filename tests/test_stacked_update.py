"""The stacked Kalman update gives the bits of one update per row.

Every check here compares bytes, not tolerances: the trackers' artifacts
are byte-compared across reruns, so batching the update may not move a
single bit. The file also runs in CI under other OpenBLAS kernels
(OPENBLAS_CORETYPE), since the claim is about how numpy's stacked
products round, not about one machine.
"""

import itertools
import json

import numpy as np
import pytest

from _oracles import gnn_step_per_track, jpda_step_per_track, kf_update_per_row
from spoofbench import tracker_gnn
from spoofbench.estimation import KinematicEstimate, kf_update, kf_update_stack
from spoofbench.sensing import Detection, DetectionFrame, Label
from spoofbench.tracker_gnn import gnn_step
from spoofbench.tracker_jpda import jpda_step
from spoofbench.tracking import TrackerParams, run_tracker


def random_spd(rng, n, scale):
    A = rng.normal(0.0, 1.0, (n, n))
    return scale * (A @ A.T + 0.1 * np.eye(n))


def random_stack(rng, n):
    x = rng.normal(0.0, 300.0, (n, 4))
    P = np.stack([random_spd(rng, 4, rng.uniform(0.1, 500.0)) for _ in range(n)])
    z = x[:, :2] + rng.normal(0.0, 20.0, (n, 2))
    R = np.stack([random_spd(rng, 2, rng.uniform(0.1, 50.0)) for _ in range(n)])
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
            post, nu_i, S_i = kf_update(KinematicEstimate(x=x[i], P=P[i]), z[i], R[i])
            assert same_bits(post.x, x_post[i]) and same_bits(post.P, P_post[i])
            assert same_bits(nu_i, nu[i]) and same_bits(S_i, S[i])


def test_stack_with_one_degenerate_S_raises():
    x, P, z, R = random_stack(np.random.default_rng(9), 5)
    P[3, :2, :] = 0.0
    P[3, :, :2] = 0.0
    R[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        kf_update_stack(x, P, z, R)


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
            Detection(t=t, detection_id=next(ids), z=z, R=random_spd(rng, 2, rng.uniform(1.0, 9.0)),
                      label=Label.clutter())
            for z in zs
        )
        frames.append(DetectionFrame(t=t, detections=dets))
    return frames


def run_bytes(run):
    """The snapshot rows as written, beta included, plus the final
    covariances, which the rows do not show."""
    rows = json.dumps([r.to_json_dict(True) for r in run.snapshots], allow_nan=False)
    covs = b"".join(tr.estimate.P.tobytes() for tr in run.steps[-1].tracks)
    return rows, covs


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
    want = run_tracker(frames, params, jpda_step_per_track)
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
        assert any(r.weights and r.beta["miss"] == 0.0 for r in pre_existing)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_gnn_step_matches_per_track_updates(key, seed, monkeypatch):
    contested = []
    build = tracker_gnn.build_cost_matrix

    def recording(tracks, frame, params):
        cm = build(tracks, frame, params)
        contested.append(bool((np.isfinite(cm.costs).sum(axis=0) >= 2).any()))
        return cm

    monkeypatch.setattr(tracker_gnn, "build_cost_matrix", recording)
    frames = crossing_frames(seed)
    params = PARAMS[key]
    got = run_tracker(frames, params, gnn_step)
    want = run_tracker(frames, params, gnn_step_per_track)
    assert run_bytes(got) == run_bytes(want)
    assert any(contested)  # some detection gated by two tracks
    assert sum(r.detection_id is not None for s in got.steps for r in s.assignments) > 0
