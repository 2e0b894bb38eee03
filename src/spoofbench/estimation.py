"""Constant-velocity Kalman core shared by both trackers.

State is (px, py, vx, vy); measurements are position-only. The update
uses the Joseph form and the covariance is re-symmetrized after every
step so long adversarial runs cannot drift out of PSD.

No product goes through BLAS, whose kernels round differently: each
is summed elementwise in a fixed index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sensing import DetectionFrame

# chi-square(2) quantile at 99%: default gating threshold
GAMMA_DEFAULT = 9.21

V_MAX_DEFAULT = 50.0


@dataclass  # not frozen: gate_row builds one per track, and a frozen __init__ takes 3x as long
class GateResult:
    """N tracks scored against the M detections of one frame.

    d2 (N, M) holds every pair's squared Mahalanobis distance and S
    (N, M, 2, 2) its innovation covariance; inside (N, M) marks the
    pairs with d2 <= gamma. Columns follow the frame's detection order,
    whose ids are detection_ids. len() counts the in-gate pairs.
    """

    d2: np.ndarray
    S: np.ndarray
    inside: np.ndarray
    detection_ids: tuple[int, ...]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.inside))


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


def kf_predict_stack(
    x: np.ndarray, P: np.ndarray, dt: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate N means x (N, 4) and covariances P (N, 4, 4) one step of
    dt seconds; returns new arrays (x, P).

    F = I + dt (velocity -> position) acts as row adds, then column adds,
    elementwise, so each row has the bits of its own one-row call.
    Raises ValueError on a non-positive dt or any non-finite state or
    covariance.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.isfinite(x).all() and np.isfinite(P).all()):
        raise ValueError("non-finite state estimate")
    x = np.array(x, dtype=float)
    x[:, :2] += dt * x[:, 2:]
    P = np.array(P, dtype=float)
    P[:, :2] += dt * P[:, 2:]
    P[:, :, :2] += dt * P[:, :, 2:]
    return x, _symmetrize(P + white_accel_Q(dt, q))


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


def gate_stack(
    frame: DetectionFrame, x: np.ndarray, P: np.ndarray, gamma: float = GAMMA_DEFAULT
) -> GateResult:
    """Score N tracks, means x (N, 4) and covariances P (N, 4, 4),
    against every detection of a frame, each pair with the detection's
    own reported covariance; a pair is in the gate when d2 <= gamma.

    All N x M pairs go through the closed-form 2x2 inverse in one pass;
    raises numpy.linalg.LinAlgError if any pair's S is degenerate, which
    with no tracks none is.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    S = P[:, None, :2, :2] + frame.covariances
    d2 = _mahalanobis2(S, frame.positions - x[:, None, :2])
    return GateResult(d2=d2, S=S, inside=d2 <= gamma, detection_ids=frame.ids)


def estimate_from_detection(
    z: np.ndarray, R: np.ndarray, v_max: float = V_MAX_DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """Track initialization from one detection, z (2,) and R (2, 2), or a
    stack, z (k, 2) and R (k, 2, 2); returns new arrays (x, P): position
    from the measurement, zero velocity, velocity variance v_max^2 so the
    first gate admits any plausible mover."""
    z = np.asarray(z, dtype=float)
    x = np.zeros(z.shape[:-1] + (4,))
    x[..., :2] = z
    P = np.zeros(z.shape[:-1] + (4, 4))
    P[..., :2, :2] = R
    P[..., 2, 2] = P[..., 3, 3] = v_max * v_max
    return x, P
