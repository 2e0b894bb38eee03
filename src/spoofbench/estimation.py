"""Constant-velocity Kalman core shared by both trackers.

State is (px, py, vx, vy); measurements are position-only. The update
uses the Joseph form and the covariance is re-symmetrized after every
step so long adversarial runs cannot drift out of PSD.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sensing import DetectionFrame

# chi-square(2) quantile at 99%: default gating threshold
GAMMA_DEFAULT = 9.21

# position-only measurement matrix
H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

V_MAX_DEFAULT = 50.0


@dataclass
class KinematicEstimate:
    """State mean x = (px, py, vx, vy) and covariance P (4x4)."""

    x: np.ndarray
    P: np.ndarray

    def position(self) -> np.ndarray:
        return self.x[:2]

    def velocity(self) -> np.ndarray:
        return self.x[2:]


@dataclass(frozen=True)
class GateResult:
    """Detections of one frame that fall inside a track's gate.

    Parallel, ordered by detection_id: indices into the frame (k,), the
    detection ids as ints, squared Mahalanobis distances (k,), and the
    innovation covariance of each pair (k, 2, 2).
    """

    indices: np.ndarray
    detection_ids: tuple[int, ...]
    d2: np.ndarray
    S: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


# F and Q depend only on the tracker params, so each (dt, q) is built
# once; the cached arrays are shared and therefore read-only
@functools.lru_cache
def cv_transition(dt: float) -> np.ndarray:
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    F.flags.writeable = False
    return F


@functools.lru_cache
def white_accel_Q(dt: float, q: float) -> np.ndarray:
    """Process noise for piecewise-constant white acceleration, scale q.

    Per axis: [[dt^4/4, dt^3/2], [dt^3/2, dt^2]] * q in the (pos, vel)
    blocks. The returned array is cached and read-only.
    """
    q11 = 0.25 * dt**4 * q
    q12 = 0.5 * dt**3 * q
    q22 = dt**2 * q
    Q = np.zeros((4, 4))
    Q[0, 0] = Q[1, 1] = q11
    Q[0, 2] = Q[2, 0] = Q[1, 3] = Q[3, 1] = q12
    Q[2, 2] = Q[3, 3] = q22
    Q.flags.writeable = False
    return Q


def _symmetrize(P: np.ndarray) -> np.ndarray:
    """0.5 (P + P^T) for one matrix or a stack (..., n, n)."""
    return 0.5 * (P + P.swapaxes(-1, -2))


def kf_predict(est: KinematicEstimate, dt: float, q: float) -> KinematicEstimate:
    """Propagate mean and covariance one step of dt seconds.

    Raises ValueError on non-finite state or covariance.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.all(np.isfinite(est.x)) and np.all(np.isfinite(est.P))):
        raise ValueError("non-finite state estimate")
    F = cv_transition(dt)
    x = F @ est.x
    P = _symmetrize(F @ est.P @ F.T + white_accel_Q(dt, q))
    return KinematicEstimate(x=x, P=P)


def innovation_covariance(est: KinematicEstimate, R: np.ndarray) -> np.ndarray:
    """S = H P H^T + R; with position-only H that is P's position block plus R."""
    return est.P[:2, :2] + np.asarray(R, dtype=float)


def _det_S(S: np.ndarray) -> np.ndarray:
    """Determinant of one 2x2 innovation covariance or a stack (..., 2, 2).

    Raises numpy.linalg.LinAlgError unless every determinant is finite
    and positive.
    """
    det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    ok = (det > 0.0) & (det < np.inf)
    if not ok.all():
        bad = np.asarray(det)[~ok].flat[0]
        raise np.linalg.LinAlgError(f"degenerate innovation covariance, det={bad}")
    return det


def _inverse_S(S: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a 2x2 innovation covariance or a stack
    (..., 2, 2); raises like _det_S."""
    adj = np.empty_like(S)
    adj[..., 0, 0] = S[..., 1, 1]
    adj[..., 0, 1] = -S[..., 0, 1]
    adj[..., 1, 0] = -S[..., 1, 0]
    adj[..., 1, 1] = S[..., 0, 0]
    return adj / _det_S(S)[..., None, None]


def _mahalanobis2(S: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """nu^T S^-1 nu in closed form, for one pair or a stack of pairs."""
    n0, n1 = nu[..., 0], nu[..., 1]
    s00, s01, s10, s11 = S[..., 0, 0], S[..., 0, 1], S[..., 1, 0], S[..., 1, 1]
    return (s11 * n0 * n0 - (s01 + s10) * n0 * n1 + s00 * n1 * n1) / _det_S(S)


def kf_update_stack(
    x: np.ndarray, P: np.ndarray, z: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measurement update of N independent rows at once.

    x (N, 4), P (N, 4, 4), z (N, 2), R (N, 2, 2); returns the posterior
    means and covariances with the innovations and their covariances,
    (x, P, nu, S). Row i is the update of (x[i], P[i]) by (z[i], R[i]),
    with the same bits as a one-row call: the products are stacked
    matmuls, which compute each row as its own small product.
    Joseph-form covariance keeps P PSD under roundoff. Raises
    numpy.linalg.LinAlgError when any row's S is singular.
    """
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    S = P[:, :2, :2] + R
    nu = np.asarray(z, dtype=float) - x[:, :2]
    K = P[:, :, :2] @ _inverse_S(S)
    x_post = x + (K @ nu[:, :, None])[:, :, 0]
    I_KH = np.eye(4) - K @ H
    P_post = I_KH @ P @ I_KH.swapaxes(-1, -2) + K @ R @ K.swapaxes(-1, -2)
    return x_post, _symmetrize(P_post), nu, S


def kf_update(
    est: KinematicEstimate, z: np.ndarray, R: np.ndarray
) -> tuple[KinematicEstimate, np.ndarray, np.ndarray]:
    """Measurement update of one estimate; returns (posterior, innovation,
    S). The one-row case of kf_update_stack."""
    x, P, nu, S = kf_update_stack(
        est.x[None], est.P[None], np.reshape(z, (1, 2)), np.reshape(R, (1, 2, 2))
    )
    return KinematicEstimate(x=x[0], P=P[0]), nu[0], S[0]


def mahalanobis2(z: np.ndarray, est: KinematicEstimate, R: np.ndarray) -> float:
    """Squared Mahalanobis distance of z from the predicted measurement."""
    S = innovation_covariance(est, R)
    nu = np.asarray(z, dtype=float) - est.x[:2]
    return float(_mahalanobis2(S, nu))


def gate(frame: DetectionFrame, est: KinematicEstimate, gamma: float = GAMMA_DEFAULT) -> GateResult:
    """Detections with squared Mahalanobis distance <= gamma, each scored
    with its own reported covariance.

    All of the frame's detections are scored in one pass with the
    closed-form 2x2 inverse; raises numpy.linalg.LinAlgError if any
    detection's S is degenerate.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    S = est.P[:2, :2] + frame.covariances
    d2 = _mahalanobis2(S, frame.positions - est.x[:2])
    keep = np.flatnonzero(d2 <= gamma)
    return GateResult(
        indices=keep,
        detection_ids=tuple(frame.detections[i].detection_id for i in keep.tolist()),
        d2=d2[keep],
        S=S[keep],
    )


def estimate_from_detection(
    z: np.ndarray, R: np.ndarray, v_max: float = V_MAX_DEFAULT
) -> KinematicEstimate:
    """Single-detection track initialization.

    Position from the measurement, zero velocity, velocity variance
    v_max^2 so the first gate admits any plausible mover.
    """
    x = np.array([float(z[0]), float(z[1]), 0.0, 0.0])
    P = np.zeros((4, 4))
    P[:2, :2] = np.asarray(R, dtype=float)
    P[2, 2] = P[3, 3] = v_max * v_max
    return KinematicEstimate(x=x, P=P)


def nees(est: KinematicEstimate, x_true: np.ndarray) -> float:
    """Normalized estimation error squared against a true state."""
    e = est.x - np.asarray(x_true, dtype=float)
    return float(e @ np.linalg.solve(est.P, e))
