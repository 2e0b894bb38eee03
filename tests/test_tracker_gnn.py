"""GNN association against an independent exhaustive oracle.

The oracle is a bitmask DP over partial assignments and shares no code
with the production solver (which delegates to scipy's LAP). The gate
costs and the Kalman update are checked against per-pair linear solves
that share no code with the closed-form 2x2 inverse.
"""

import itertools

import numpy as np
import pytest

from _oracles import (
    assignment_cost,
    kf_update_by_solve,
    mahalanobis2_by_solve,
    min_cost_by_enumeration,
)

from spoofbench.estimation import KinematicEstimate, gate, kf_predict, kf_update
from spoofbench.sensing import Detection, DetectionFrame, Label
from spoofbench.tracking import TrackerParams, birth_tracks
from spoofbench.tracker_gnn import CostMatrix, build_cost_matrix, gnn_step, hungarian

INF = float("inf")


def matrix(costs, unassigned_cost=9.21):
    costs = np.asarray(costs, dtype=float)
    n, m = costs.shape
    return CostMatrix(
        costs=costs,
        track_ids=tuple(range(n)),
        detection_ids=tuple(range(m)),
        unassigned_cost=unassigned_cost,
    )


def test_two_by_two_example():
    cm = matrix([[1.0, 2.0], [2.0, 1.0]], unassigned_cost=100.0)
    out = hungarian(cm)
    assert out == {0: 0, 1: 1}
    assert assignment_cost(cm, out) == pytest.approx(2.0)


def test_diagonal_zeros_identity():
    costs = np.full((3, 3), INF)
    np.fill_diagonal(costs, 0.0)
    out = hungarian(matrix(costs))
    assert out == {0: 0, 1: 1, 2: 2}
    assert assignment_cost(matrix(costs), out) == pytest.approx(0.0)


def test_forbidden_pair_leaves_track_unassigned():
    out = hungarian(matrix([[1.0, INF], [INF, INF]]))
    assert out == {0: 0}


def test_empty_matrix():
    cm = CostMatrix(
        costs=np.zeros((0, 0)), track_ids=(), detection_ids=(), unassigned_cost=9.21
    )
    assert hungarian(cm) == {}


def test_prefers_unassignment_over_expensive_pair():
    # cost 50 exceeds the miss price twice over; leaving both unpaired wins
    cm = matrix([[50.0]], unassigned_cost=9.21)
    assert hungarian(cm) == {}


def test_matches_enumeration_on_random_matrices():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 7))
        costs = rng.uniform(0.0, 30.0, (n, m))
        costs[rng.random((n, m)) < 0.25] = INF
        cm = matrix(costs, unassigned_cost=float(rng.uniform(1.0, 15.0)))
        got = assignment_cost(cm, hungarian(cm))
        want = min_cost_by_enumeration(costs, cm.unassigned_cost)
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"


def clutter_det(i, x, y, t=0):
    return Detection(
        t=t, detection_id=i, z=np.array([x, y]), R=25.0 * np.eye(2), label=Label.clutter()
    )


def frame_of(dets, t=0):
    return DetectionFrame(t=t, detections=tuple(dets))


def spawn(dets, params, start_id=0):
    return birth_tracks(dets, params, id_source=itertools.count(start_id))


def test_build_cost_matrix_gates():
    params = TrackerParams()
    tracks = spawn([clutter_det(0, 0.0, 0.0)], params)
    # track P after birth is huge in velocity, so gate is wide; a point
    # hundreds of sigma out still must be forbidden
    frame = frame_of([clutter_det(5, 1.0, 0.0, t=1), clutter_det(6, 5000.0, 0.0, t=1)], t=1)
    for track in tracks:
        track.estimate = kf_predict(track.estimate, params.dt_s, params.q)
    cm = build_cost_matrix(tracks, frame, params)
    assert cm.detection_ids == (5, 6)
    assert np.isfinite(cm.costs[0, 0])
    assert np.isinf(cm.costs[0, 1])


def test_step_assigns_exact_hit():
    params = TrackerParams()
    tracks = spawn([clutter_det(0, 10.0, -20.0)], params)
    frame = frame_of([clutter_det(1, 10.0, -20.0, t=1)], t=1)
    result = gnn_step(tracks, frame, params, id_source=itertools.count(100))
    [outcome] = result.assignments
    assert outcome.detection_id == 1
    assert outcome.score == pytest.approx(0.0, abs=1e-6)
    assert outcome.weights == {1: 1.0}
    assert result.births == []


def test_step_miss_spawns_birth():
    params = TrackerParams()
    tracks = spawn([clutter_det(0, 0.0, 0.0)], params)
    far = clutter_det(9, 4000.0, 4000.0, t=1)
    result = gnn_step(tracks, frame_of([far], t=1), params, id_source=itertools.count(100))
    [outcome] = result.assignments
    assert outcome.detection_id is None
    assert outcome.weights == {}
    assert len(result.births) == 1
    np.testing.assert_allclose(result.births[0].estimate.position(), far.z)


def test_step_cross_ambiguous_matches_brute_force():
    params = TrackerParams()
    rng = np.random.default_rng(3)
    for _ in range(30):
        positions = rng.uniform(-50.0, 50.0, (2, 2))
        tracks = spawn(
            [clutter_det(0, *positions[0]), clutter_det(1, *positions[1])], params
        )
        for track in tracks:
            track.estimate = kf_predict(track.estimate, params.dt_s, params.q)
        dets = [
            clutter_det(10, *(positions[0] + rng.normal(0, 8, 2)), t=1),
            clutter_det(11, *(positions[1] + rng.normal(0, 8, 2)), t=1),
        ]
        d2 = np.array(
            [
                [mahalanobis2_by_solve(d.z, tr.estimate.x, tr.estimate.P, d.R) for d in dets]
                for tr in tracks
            ]
        )
        costs = np.where(d2 <= params.gamma, d2, INF)
        want = min_cost_by_enumeration(costs, params.gamma)
        cm = build_cost_matrix(tracks, frame_of(dets, t=1), params)
        got = assignment_cost(cm, hungarian(cm))
        assert got == pytest.approx(want, abs=1e-9)


def test_step_one_to_one():
    params = TrackerParams()
    rng = np.random.default_rng(4)
    tracks = spawn([clutter_det(i, *rng.uniform(-20, 20, 2)) for i in range(5)], params)
    dets = [clutter_det(10 + i, *rng.uniform(-20, 20, 2), t=1) for i in range(5)]
    result = gnn_step(tracks, frame_of(dets, t=1), params, id_source=itertools.count(100))
    used = [o.detection_id for o in result.assignments if o.detection_id is not None]
    assert len(used) == len(set(used))


# The gate scores a whole frame in closed form; the oracle solves each
# (track, detection) pair on its own.


def random_spd(rng, n, scale):
    A = rng.normal(0.0, 1.0, (n, n))
    return scale * (A @ A.T + n * np.eye(n))


def det_with_R(i, z, R, t=0):
    return Detection(
        t=t, detection_id=i, z=np.asarray(z, dtype=float), R=np.asarray(R, dtype=float),
        label=Label.clutter(),
    )


def gate_by_solve(frame, est, R, gamma):
    """(indices, d2) of the pairs inside gamma, one solve per pair."""
    inside = []
    for i, d in enumerate(frame.detections):
        d2 = mahalanobis2_by_solve(d.z, est.x, est.P, d.R if R is None else R)
        if d2 <= gamma:
            inside.append((i, d2))
    return inside


def test_gate_matches_solve_oracle_with_heterogeneous_and_override_R():
    rng = np.random.default_rng(5)
    gamma = 9.21
    for trial in range(50):
        est = KinematicEstimate(x=rng.normal(0.0, 20.0, 4), P=random_spd(rng, 4, 3.0))
        m = int(rng.integers(1, 12))
        dets = [
            det_with_R(10 + i, est.x[:2] + rng.normal(0.0, 12.0, 2), random_spd(rng, 2, 4.0))
            for i in range(m)
        ]
        frame = frame_of(dets)
        for R in (None, random_spd(rng, 2, 4.0)):
            got = gate(frame, est, R=R, gamma=gamma)
            want = gate_by_solve(frame, est, R, gamma)
            assert list(got.indices) == [i for i, _ in want], f"trial {trial}"
            assert list(got.detection_ids) == [dets[i].detection_id for i, _ in want]
            np.testing.assert_allclose(got.d2, [d2 for _, d2 in want], rtol=1e-12, atol=1e-12)
            for i, S in zip(got.indices, got.S):
                R_i = dets[i].R if R is None else R
                np.testing.assert_allclose(S, est.P[:2, :2] + R_i, rtol=0.0, atol=0.0)


def test_gate_empty_frame_visits_no_pair():
    est = KinematicEstimate(x=np.zeros(4), P=np.eye(4))
    for R in (None, np.eye(2), -np.eye(2)):
        got = gate(frame_of([]), est, R=R)
        assert (got.indices, got.detection_ids, got.d2, got.S) == ((), (), (), ())


def test_gate_keeps_pairs_exactly_at_gamma():
    # S = diag(4, 1): (6, 0) and (0, 3) both score exactly 9
    est = KinematicEstimate(x=np.zeros(4), P=np.zeros((4, 4)))
    R = np.diag([4.0, 1.0])
    frame = frame_of([det_with_R(0, (6.0, 0.0), R), det_with_R(1, (0.0, 3.0), R)])
    assert [d2 for _, d2 in gate_by_solve(frame, est, None, 9.0)] == [9.0, 9.0]
    got = gate(frame, est, gamma=9.0)
    assert got.detection_ids == (0, 1)
    assert got.d2 == (9.0, 9.0)
    assert len(gate(frame, est, gamma=float(np.nextafter(9.0, 0.0)))) == 0


@pytest.mark.parametrize(
    "bad_R",
    [np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(2), np.full((2, 2), np.nan)],
    ids=["singular", "negative", "nan"],
)
def test_gate_raises_when_only_the_last_detection_is_degenerate(bad_R):
    est = KinematicEstimate(x=np.zeros(4), P=np.eye(4))
    good = [det_with_R(i, (float(i), 0.0), np.eye(2)) for i in range(3)]
    far_bad = det_with_R(3, (5000.0, 5000.0), bad_R)
    assert len(gate(frame_of(good), est)) == 3
    with pytest.raises(np.linalg.LinAlgError):
        gate(frame_of(good + [far_bad]), est)


def test_kf_update_matches_solve_reference():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.normal(0.0, 50.0, 4)
        P = random_spd(rng, 4, float(rng.uniform(0.1, 10.0)))
        R = random_spd(rng, 2, float(rng.uniform(0.1, 10.0)))
        z = x[:2] + rng.normal(0.0, 10.0, 2)
        post, nu, S = kf_update(KinematicEstimate(x=x, P=P), z, R)
        want_x, want_P = kf_update_by_solve(x, P, z, R)
        np.testing.assert_allclose(post.x, want_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(post.P, want_P, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(nu, z - x[:2], rtol=0.0, atol=0.0)
        np.testing.assert_allclose(S, P[:2, :2] + R, rtol=0.0, atol=0.0)
