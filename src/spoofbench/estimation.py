"""Constant-velocity Kalman core shared by both trackers.

State is (px, py, vx, vy); measurements are position-only. The update
uses the Joseph form and the covariance is re-symmetrized after every
step so long adversarial runs cannot drift out of PSD.

No product outside the test-only nees goes through BLAS, whose kernels
round differently: each is summed elementwise in a fixed index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sensing import DetectionFrame

# chi-square(2) quantile at 99%: default gating threshold
GAMMA_DEFAULT = 9.21

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

    F = I + dt (velocity -> position) acts as row adds, then column adds,
    on Python floats. Raises ValueError on non-finite state or covariance.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.all(np.isfinite(est.x)) and np.all(np.isfinite(est.P))):
        raise ValueError("non-finite state estimate")
    px, py, vx, vy = est.x.tolist()
    r0, r1, r2, r3 = est.P.tolist()
    r0 = [a + dt * c for a, c in zip(r0, r2)]
    r1 = [b + dt * d for b, d in zip(r1, r3)]
    FPF = np.array([[a + dt * c, b + dt * d, c, d] for a, b, c, d in (r0, r1, r2, r3)])
    P = _symmetrize(FPF + white_accel_Q(dt, q))
    return KinematicEstimate(x=np.array([px + dt * vx, py + dt * vy, vx, vy]), P=P)


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


def _mul2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked product of (..., n, 2) and (..., 2, m) as a0 b0 + a1 b1."""
    return A[..., :, 0, None] * B[..., None, 0, :] + A[..., :, 1, None] * B[..., None, 1, :]


def kf_update_stack(
    x: np.ndarray, P: np.ndarray, z: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measurement update of N independent rows at once.

    x (N, 4), P (N, 4, 4), z (N, 2), R (N, 2, 2); returns the posterior
    means and covariances with the innovations and their covariances,
    (x, P, nu, S). Row i is the update of (x[i], P[i]) by (z[i], R[i]),
    with the same bits as a one-row call: every product is _mul2's
    elementwise two-term sum. With H = [I 0], (I - KH) P is P - K P[:2].
    Joseph-form covariance keeps P PSD under roundoff. Raises
    numpy.linalg.LinAlgError when any row's S is singular.
    """
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    S = P[:, :2, :2] + R
    nu = np.asarray(z, dtype=float) - x[:, :2]
    K = _mul2(P[:, :, :2], _inverse_S(S))
    x_post = x + _mul2(K, nu[:, :, None])[:, :, 0]
    Kt = K.swapaxes(1, 2)
    A = P - _mul2(K, P[:, :2])
    P_post = A - _mul2(A[:, :, :2], Kt) + _mul2(_mul2(K, R), Kt)
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
