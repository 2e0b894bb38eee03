import numpy as np
import pytest

from _oracles import KinematicEstimate, cv_transition, nees
from spoofbench.estimation import (
    GAMMA_DEFAULT,
    estimate_from_detection,
    gate_stack,
    kf_predict_stack,
    kf_update_stack,
    white_accel_Q,
)
from spoofbench.sensing import Detection, DetectionFrame


def est_at(x, P=None):
    state = np.asarray(x, dtype=float)
    cov = np.eye(4) if P is None else np.asarray(P, dtype=float)
    return KinematicEstimate(x=state, P=cov.copy())


def frame_at(points, R=None, t=0):
    R = 25.0 * np.eye(2) if R is None else R
    (r_xx, r_xy), (_, r_yy) = np.asarray(R, dtype=float).tolist()
    dets = tuple(
        Detection(t, i, float(p[0]), float(p[1]), r_xx, r_xy, r_yy, "clutter")
        for i, p in enumerate(points)
    )
    return DetectionFrame(t=t, detections=dets)


def predict(est, dt, q):
    """kf_predict_stack over the one row of est."""
    x, P = kf_predict_stack(est.x[None], est.P[None], dt, q)
    return KinematicEstimate(x=x[0], P=P[0])


def update(est, z, R):
    """kf_update_stack over the one row of est: (posterior, nu, S)."""
    x, P, nu, S = kf_update_stack(est.x[None], est.P[None], z[None], R[None])
    return KinematicEstimate(x=x[0], P=P[0]), nu[0], S[0]


def gate_row(frame, est, gamma=GAMMA_DEFAULT):
    """(ids, d2) of the detections inside est's gate."""
    result = gate_stack(frame, est.x[None], est.P[None], gamma)
    [keep] = result.inside
    return [i for i, k in zip(result.detection_ids, keep) if k], result.d2[0, keep]


def test_predict_constant_velocity():
    est = predict(est_at([0.0, 0.0, 10.0, 0.0]), dt=1.0, q=1.0)
    np.testing.assert_allclose(est.position(), [10.0, 0.0])


def test_predict_zero_noise_zero_cov():
    est = est_at([1.0, 2.0, 3.0, 4.0], P=np.zeros((4, 4)))
    out = predict(est, dt=1.0, q=0.0)
    assert np.all(out.P == 0.0)


def test_predict_covariance_hand_product():
    # with q=0 and P=I the predicted covariance is F F^T
    out = predict(est_at([0.0, 0.0, 0.0, 0.0]), dt=1.0, q=0.0)
    assert out.P[0, 0] == pytest.approx(2.0)
    F = cv_transition(1.0)
    np.testing.assert_allclose(out.P, F @ F.T)
    # the elementwise row and column adds are F x and F P F^T + Q
    A = np.random.default_rng(3).normal(0.0, 10.0, (4, 5))
    est = est_at([1.0, -2.0, 3.0, 4.0], A @ A.T)
    out, F = predict(est, dt=0.5, q=2.0), cv_transition(0.5)
    np.testing.assert_allclose(out.x, F @ est.x, rtol=1e-15)
    np.testing.assert_allclose(out.P, F @ est.P @ F.T + white_accel_Q(0.5, 2.0), rtol=1e-14)


def test_predict_rejects_bad_input():
    with pytest.raises(ValueError):
        predict(est_at([0.0, 0.0, 0.0, 0.0]), dt=0.0, q=1.0)
    with pytest.raises(ValueError):
        predict(est_at([np.nan, 0.0, 0.0, 0.0]), dt=1.0, q=1.0)


def test_process_noise_shape():
    Q = white_accel_Q(2.0, 3.0)
    # per-axis blocks q*[[dt^4/4, dt^3/2], [dt^3/2, dt^2]]
    assert Q[0, 0] == pytest.approx(3.0 * 16.0 / 4.0)
    assert Q[0, 2] == pytest.approx(3.0 * 8.0 / 2.0)
    assert Q[2, 2] == pytest.approx(3.0 * 4.0)
    assert Q[0, 1] == 0.0
    np.testing.assert_allclose(Q, Q.T)


def test_update_uninformative_measurement():
    prior = est_at([5.0, 6.0, 0.0, 0.0])
    out, _, _ = update(prior, np.array([100.0, 100.0]), 1e12 * np.eye(2))
    assert np.linalg.norm(out.position() - [5.0, 6.0]) < 1e-3


def test_update_uninformative_prior():
    P = np.diag([1e12, 1e12, 1.0, 1.0])
    prior = est_at([0.0, 0.0, 0.0, 0.0], P=P)
    z = np.array([42.0, -17.0])
    out, _, _ = update(prior, z, 1e-6 * np.eye(2))
    assert np.linalg.norm(out.position() - z) < 1e-3


def test_update_hand_gain():
    # P=I, R=I -> S=2I, gain on position = 1/2
    prior = est_at([0.0, 0.0, 0.0, 0.0])
    out, nu, S = update(prior, np.array([2.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(nu, [2.0, 0.0])
    np.testing.assert_allclose(S, 2.0 * np.eye(2))
    np.testing.assert_allclose(out.position(), [1.0, 0.0], atol=1e-12)


def test_update_rejects_singular_S():
    prior = est_at([0.0, 0.0, 0.0, 0.0], P=np.zeros((4, 4)))
    with pytest.raises(np.linalg.LinAlgError):
        update(prior, np.array([1.0, 1.0]), np.zeros((2, 2)))


def test_mahalanobis_zero_innovation():
    est = est_at([3.0, 4.0, 0.0, 0.0], P=np.zeros((4, 4)))
    _, d2 = gate_row(frame_at([(3.0, 4.0)], R=np.eye(2)), est)
    assert d2.tolist() == [0.0]


def test_mahalanobis_euclidean_reduction():
    est = est_at([0.0, 0.0, 0.0, 0.0], P=np.zeros((4, 4)))
    result = gate_stack(frame_at([(3.0, 4.0)], R=np.eye(2)), est.x[None], est.P[None])
    assert result.d2[0, 0] == pytest.approx(25.0)


def test_mahalanobis_hand_value():
    est = est_at([0.0, 0.0, 0.0, 0.0], P=np.zeros((4, 4)))
    _, d2 = gate_row(frame_at([(2.0, 1.0)], R=np.diag([4.0, 1.0])), est)
    assert d2.tolist() == [pytest.approx(2.0)]


def test_gate_empty_frame():
    result = gate_stack(frame_at([]), np.zeros((1, 4)), np.eye(4)[None])
    assert len(result) == 0
    assert (result.d2.shape, result.inside.shape, result.S.shape) == ((1, 0), (1, 0), (1, 0, 2, 2))


def test_gate_zero_gamma_keeps_exact_hit():
    est = est_at([10.0, 20.0, 0.0, 0.0], P=np.zeros((4, 4)))
    frame = frame_at([(10.0, 20.0), (11.0, 20.0)])
    ids, d2 = gate_row(frame, est, gamma=0.0)
    assert ids == [0]
    assert d2[0] == pytest.approx(0.0)


def test_gate_threshold_split():
    # with S = I, d^2 is squared distance: place points at 1, sqrt(8), sqrt(30)
    est = est_at([0.0, 0.0, 0.0, 0.0], P=np.zeros((4, 4)))
    frame = frame_at(
        [(1.0, 0.0), (np.sqrt(8.0), 0.0), (np.sqrt(30.0), 0.0)], R=np.eye(2)
    )
    ids, d2 = gate_row(frame, est, gamma=GAMMA_DEFAULT)
    assert ids == [0, 1]
    np.testing.assert_allclose(d2, [1.0, 8.0], atol=1e-12)
    result = gate_stack(frame, est.x[None], est.P[None], GAMMA_DEFAULT)
    assert len(result) == 2 and result.S.shape == (1, 3, 2, 2)


def test_gate_orders_by_detection_id():
    est = est_at([0.0, 0.0, 0.0, 0.0])
    frame = frame_at([(0.5, 0.0), (-0.5, 0.0), (0.0, 0.2)])
    ids, _ = gate_row(frame, est)
    assert ids == sorted(ids)


def test_gate_rejects_negative_gamma():
    with pytest.raises(ValueError):
        gate_row(frame_at([(0.0, 0.0)]), est_at([0.0, 0.0, 0.0, 0.0]), gamma=-1.0)


def test_gate_uses_per_detection_R_by_default():
    est = est_at([0.0, 0.0, 0.0, 0.0], P=np.zeros((4, 4)))
    loose = 100.0 * np.eye(2)
    frame = frame_at([(15.0, 0.0)], R=loose)
    # d^2 = 225/100 = 2.25 under the detection's own R
    assert len(gate_row(frame, est)[0]) == 1
    # the same point reporting R = I is far outside
    assert len(gate_row(frame_at([(15.0, 0.0)], R=np.eye(2)), est)[0]) == 0


def test_estimate_from_detection_init():
    x, P = estimate_from_detection(np.array([7.0, -3.0]), 4.0 * np.eye(2), v_max=50.0)
    np.testing.assert_allclose(x[:2], [7.0, -3.0])
    np.testing.assert_allclose(x[2:], [0.0, 0.0])
    assert P[2, 2] == pytest.approx(2500.0)
    assert P[3, 3] == pytest.approx(2500.0)
    assert P[0, 0] == pytest.approx(4.0)
    assert P[1, 1] == pytest.approx(4.0)


def test_nees_hand_value():
    est = est_at([1.0, 0.0, 0.0, 0.0], P=np.eye(4))
    x_true = np.array([0.0, 0.0, 0.0, 0.0])
    assert nees(est, x_true) == pytest.approx(1.0)


def test_covariance_psd_through_cycles():
    rng = np.random.default_rng(0)
    est = KinematicEstimate(*estimate_from_detection(np.zeros(2), 25.0 * np.eye(2), v_max=50.0))
    R = 25.0 * np.eye(2)
    for _ in range(1000):
        est = predict(est, dt=1.0, q=1.0)
        z = est.position() + rng.normal(0.0, 5.0, 2)
        est, _, _ = update(est, z, R)
        sym_gap = np.abs(est.P - est.P.T).max()
        assert sym_gap < 1e-9
        assert np.linalg.eigvalsh(est.P).min() >= -1e-9


def test_gating_recall_99_percent():
    # d^2 of a true-origin detection is chi-square(2); gamma=9.21 covers 99%
    rng = np.random.default_rng(1)
    est = est_at([0.0, 0.0, 0.0, 0.0], P=np.zeros((4, 4)))
    hits = 0
    trials = 10_000
    for i in range(trials):
        z = rng.normal(0.0, 1.0, 2)
        frame = frame_at([tuple(z)], R=np.eye(2), t=i)
        hits += len(gate_stack(frame, est.x[None], est.P[None], GAMMA_DEFAULT))
    assert hits / trials >= 0.98
