import itertools
import math

import numpy as np
import pytest

from _oracles import snapshot_json_dict
from spoofbench.estimation import (
    GateResult,
    KinematicEstimate,
    gate_stack,
    kf_predict_stack,
    kf_update_stack,
)
from spoofbench.sensing import Detection, DetectionFrame
from spoofbench.tracking import TrackerParams, TrackStatus, birth_tracks
from spoofbench.tracker_jpda import association_probabilities, jpda_step


def det(i, x, y, t=0, sigma2=25.0):
    return Detection(
        t=t, detection_id=i, z=np.array([x, y]), R=sigma2 * np.eye(2), label="clutter"
    )


def frame_of(dets, t=0):
    return DetectionFrame(t=t, detections=tuple(dets))


def predict(est, params):
    x, P = kf_predict_stack(est.x[None], est.P[None], params.dt_s, params.q)
    return KinematicEstimate(x=x[0], P=P[0])


def predicted_track(x, y, params, track_id=0):
    [track] = birth_tracks([det(0, x, y)], params, id_source=iter([track_id]))
    track.estimate = predict(track.estimate, params)
    return track


def gate(frame, est, gamma):
    return gate_stack(frame, est.x[None], est.P[None], gamma)


def weigh(gated, params):
    """(miss, betas) of a one-track gate."""
    [probabilities] = association_probabilities(gated, params)
    return probabilities


def test_single_detection_no_clutter_beta_one():
    params = TrackerParams(clutter_density=0.0)
    track = predicted_track(0.0, 0.0, params)
    gated = gate(frame_of([det(3, 1.0, 1.0, t=1)], t=1), track.estimate, gamma=params.gamma)
    miss, betas = weigh(gated, params)
    assert betas[3] == pytest.approx(1.0)
    assert miss == pytest.approx(0.0)
    assert miss + sum(betas.values()) == pytest.approx(1.0)


def test_equal_distance_equal_beta():
    params = TrackerParams(clutter_density=0.0)
    track = predicted_track(0.0, 0.0, params)
    gated = gate(
        frame_of([det(1, 5.0, 0.0, t=1), det(2, -5.0, 0.0, t=1)], t=1),
        track.estimate,
        gamma=params.gamma,
    )
    _, betas = weigh(gated, params)
    assert betas[1] == pytest.approx(betas[2])


def test_likelihood_ratio_example():
    """d^2 of 0 vs 2 with equal S splits as 1 : e^-1."""
    params = TrackerParams(clutter_density=0.0)
    # zero prior covariance makes S = R exactly, and detections on a
    # circle differ only through d^2
    track = predicted_track(0.0, 0.0, params)
    track.estimate.x[:] = 0.0
    track.estimate.P[:] = 0.0
    R = np.eye(2)
    frame = frame_of(
        [
            Detection(t=1, detection_id=0, z=np.array([0.0, 0.0]), R=R.copy(), label="clutter"),
            Detection(
                t=1, detection_id=1, z=np.array([math.sqrt(2.0), 0.0]), R=R.copy(), label="clutter"
            ),
        ],
        t=1,
    )
    gated = gate(frame, track.estimate, gamma=9.21)
    np.testing.assert_allclose(gated.d2[0], [0.0, 2.0], atol=1e-12)
    _, betas = weigh(gated, params)
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert betas[0] == pytest.approx(want, abs=1e-12)
    assert betas[1] == pytest.approx(1.0 - want, abs=1e-12)


def test_empty_gate_all_miss():
    params = TrackerParams()
    track = predicted_track(0.0, 0.0, params)
    gated = gate(frame_of([], t=1), track.estimate, gamma=params.gamma)
    assert weigh(gated, params) == (1.0, {})


def test_beta_sums_to_one_random():
    params = TrackerParams(clutter_density=1e-4)
    rng = np.random.default_rng(5)
    for _ in range(200):
        track = predicted_track(*rng.uniform(-100, 100, 2), params)
        k = int(rng.integers(0, 6))
        center = track.estimate.position()
        dets = [
            det(i, *(center + rng.normal(0, 6, 2)), t=1) for i in range(k)
        ]
        gated = gate(frame_of(dets, t=1), track.estimate, gamma=params.gamma)
        miss, betas = weigh(gated, params)
        assert miss + sum(betas.values()) == pytest.approx(1.0, abs=1e-9)


def test_underflowed_likelihoods_without_clutter_share_out_by_relative_distance():
    # with C = 0, d2 of 1500 and 1502 underflow exp(-d2 / 2) to 0 and the
    # shares are taken relative to the nearer detection instead
    params = TrackerParams(clutter_density=0.0, gamma=1e5)
    d2 = np.array([[1502.0, 1500.0, 5000.0], [1.0, 2.0, 3.0]])
    S = np.broadcast_to(np.eye(2), (2, 3, 2, 2))
    inside = np.array([[True, True, False], [False, False, False]])
    gated = GateResult(d2=d2, S=S, inside=inside, detection_ids=(4, 7, 9))
    [(miss, betas), empty] = association_probabilities(gated, params)
    assert miss == 0.0
    assert list(betas) == [4, 7]
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert betas[7] == pytest.approx(want, abs=1e-15)
    assert betas[4] == pytest.approx(1.0 - want, abs=1e-15)
    assert empty == (1.0, {})
    # one likelihood that does not underflow keeps the ordinary shares
    inside[0, 2] = True
    d2[0, 2] = 2.0
    [(miss, betas), _] = association_probabilities(
        GateResult(d2=d2, S=S, inside=inside, detection_ids=(4, 7, 9)), params
    )
    assert miss == 0.0 and betas == {4: 0.0, 7: 0.0, 9: 1.0}


def test_dilution_monotone():
    # an extra in-gate detection strictly lowers the original's beta
    params = TrackerParams(clutter_density=1e-5)
    rng = np.random.default_rng(6)
    for _ in range(100):
        track = predicted_track(0.0, 0.0, params)
        center = track.estimate.position()
        first = det(0, *(center + rng.normal(0, 4, 2)), t=1)
        intruder = det(1, *(center + rng.normal(0, 4, 2)), t=1)
        g1 = gate(frame_of([first], t=1), track.estimate, gamma=params.gamma)
        g2 = gate(frame_of([first, intruder], t=1), track.estimate, gamma=params.gamma)
        if len(g2) != 2:
            continue
        _, b1 = weigh(g1, params)
        _, b2 = weigh(g2, params)
        assert b2[0] < b1[0]


def test_step_single_detection_reduces_to_kalman():
    params = TrackerParams(clutter_density=0.0)
    [track] = birth_tracks([det(0, 10.0, 5.0)], params, id_source=iter([0]))
    z = det(4, 12.0, 4.0, t=1)
    # the step predicts before associating, so mirror that by hand
    reference = predict(track.estimate, params)
    result = jpda_step([track], frame_of([z], t=1), params, id_source=itertools.count(50))
    want_x, want_P, _, _ = kf_update_stack(reference.x[None], reference.P[None], z.z[None], z.R[None])
    got = result.tracks[0].estimate
    np.testing.assert_allclose(got.x, want_x[0], atol=1e-9)
    np.testing.assert_allclose(got.P, want_P[0], atol=1e-9)
    [outcome] = result.assignments
    assert outcome.detection_id == 4
    assert outcome.weights[4] == pytest.approx(1.0)
    assert snapshot_json_dict(outcome, True)["beta"] == {
        "miss": pytest.approx(0.0), "4": pytest.approx(1.0)
    }


def test_step_empty_gate_coasts():
    params = TrackerParams()
    track = predicted_track(0.0, 0.0, params)
    predicted = track.estimate.x.copy()
    result = jpda_step([track], frame_of([], t=1), params, id_source=itertools.count(50))
    [outcome] = result.assignments
    assert outcome.detection_id is None
    assert snapshot_json_dict(outcome, True)["beta"] == {"miss": 1.0}
    np.testing.assert_allclose(result.tracks[0].estimate.x, predicted)


def test_step_empty_gate_names_no_detection_at_zero_hit_threshold():
    # every step is a hit at threshold 0, even one with nothing in the gate
    params = TrackerParams(hit_threshold=0.0)
    track = predicted_track(0.0, 0.0, params)
    result = jpda_step([track], frame_of([], t=1), params, id_source=itertools.count(50))
    [outcome] = result.assignments
    assert outcome.detection_id is None
    assert result.tracks[0].miss_streak == 0


def test_step_symmetric_pair_lands_midway():
    params = TrackerParams(clutter_density=0.0)
    track = predicted_track(0.0, 0.0, params)
    track.estimate.x[:] = 0.0
    track.estimate.P[:] = np.diag([1e9, 1e9, 1.0, 1.0])
    frame = frame_of([det(0, 5.0, 3.0, t=1), det(1, 5.0, -3.0, t=1)], t=1)
    result = jpda_step([track], frame, params, id_source=itertools.count(50))
    # betas are 0.5 each; with a diffuse prior the composite mean is the
    # projection midpoint of the two measurements
    pos = result.tracks[0].estimate.position()
    np.testing.assert_allclose(pos, [5.0, 0.0], atol=1e-3)


def test_composite_covariance_psd():
    params = TrackerParams(clutter_density=1e-4)
    rng = np.random.default_rng(7)
    for _ in range(100):
        track = predicted_track(*rng.uniform(-50, 50, 2), params)
        center = track.estimate.position()
        dets = [det(i, *(center + rng.normal(0, 5, 2)), t=1) for i in range(3)]
        result = jpda_step([track], frame_of(dets, t=1), params, id_source=itertools.count(90))
        P = result.tracks[0].estimate.P
        assert np.linalg.eigvalsh(P).min() >= -1e-9
        np.testing.assert_allclose(P, P.T, atol=1e-12)


def test_hit_threshold_drives_lifecycle():
    params = TrackerParams(clutter_density=0.0)
    track = predicted_track(0.0, 0.0, params)
    # birth already queued one hit; a confident association adds the
    # second and confirms 2-of-3
    result = jpda_step(
        [track], frame_of([det(2, 1.0, 0.0, t=1)], t=1), params, id_source=itertools.count(9)
    )
    assert result.tracks[0].status is TrackStatus.CONFIRMED


def test_births_only_from_ungated_detections():
    params = TrackerParams()
    track = predicted_track(0.0, 0.0, params)
    near = det(1, 2.0, 0.0, t=1)
    far = det(2, 500.0, 500.0, t=1)
    result = jpda_step([track], frame_of([near, far], t=1), params, id_source=itertools.count(70))
    assert len(result.births) == 1
    np.testing.assert_allclose(result.births[0].estimate.position(), far.z)
