"""GNN association against independent oracles.

The assignment solver is checked against a bitmask DP over partial
assignments on small arrays, and against scipy's LAP (a test-only
dependency) on the padded problem at the size of a dense frame. Neither
shares code with the package's shortest-augmenting-path solver. The
gate costs and the Kalman update are checked against per-pair linear
solves that share no code with the closed-form 2x2 inverse.
"""

import itertools

import numpy as np
import pytest

from _oracles import (
    KinematicEstimate,
    assignment_cost,
    kf_update_by_solve,
    mahalanobis2_by_solve,
    min_cost_by_enumeration,
)

from spoofbench.estimation import gate_stack, kf_predict_stack, kf_update_stack
from spoofbench.sensing import Detection, DetectionFrame
from spoofbench.tracking import TrackBank, TrackerParams, birth_tracks
from spoofbench.tracker_gnn import gnn_step, hungarian

INF = float("inf")


def test_two_by_two_example():
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    out = hungarian(costs, 100.0)
    assert out == {0: 0, 1: 1}
    assert assignment_cost(costs, 100.0, out) == pytest.approx(2.0)


def test_diagonal_zeros_identity():
    costs = np.full((3, 3), INF)
    np.fill_diagonal(costs, 0.0)
    out = hungarian(costs, 9.21)
    assert out == {0: 0, 1: 1, 2: 2}
    assert assignment_cost(costs, 9.21, out) == pytest.approx(0.0)


def test_forbidden_pair_leaves_track_unassigned():
    out = hungarian(np.array([[1.0, INF], [INF, INF]]), 9.21)
    assert out == {0: 0}


def test_empty_matrix():
    assert hungarian(np.zeros((0, 0)), 9.21) == {}


def test_prefers_unassignment_over_expensive_pair():
    # cost 50 exceeds the miss price twice over; leaving both unpaired wins
    assert hungarian(np.array([[50.0]]), 9.21) == {}


def test_returns_rows_in_order_as_python_ints():
    costs = np.array([[INF, 1.0, INF], [INF, INF, INF], [2.0, INF, INF], [INF, INF, 0.5]])
    out = hungarian(costs, 9.21)
    assert list(out.items()) == [(0, 1), (2, 0), (3, 2)]
    assert all(type(k) is int and type(v) is int for k, v in out.items())


def test_large_unassigned_cost_keeps_a_valid_pair():
    # no finite stand-in for a forbidden pair may undercut the miss price
    assert hungarian(np.array([[5e12], [INF]]), 1e13) == {0: 0}
    assert hungarian(np.array([[INF, 5e12]]), 1e13) == {0: 1}


def test_pair_at_exactly_the_unassigned_cost_is_never_taken():
    assert hungarian(np.array([[9.21]]), 9.21) == {}
    assert hungarian(np.array([[9.21, 9.21], [9.21, 3.0]]), 9.21) == {1: 1}


@pytest.mark.parametrize("bad", [INF, -INF, float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("unassigned", [9.21, 1e300])
def test_non_finite_entries_are_forbidden(bad, unassigned):
    costs = np.array([[bad, 1.0], [bad, bad], [2.0, bad]])
    assert hungarian(costs, unassigned) == {0: 1, 2: 0}
    assert hungarian(np.full((2, 3), bad), unassigned) == {}


@pytest.mark.parametrize("unassigned", [INF, -INF, float("nan")])
def test_unassigned_cost_must_be_finite(unassigned):
    with pytest.raises(ValueError, match="unassigned_cost"):
        hungarian(np.array([[1.0]]), unassigned)


# A truth-matcher call recorded from the stock_grid workload, base seed
# 80, cell mirror-jpda-s81 (the 46th of its 95 calls): (row, column) ->
# cost at cutoff 100.0. Rows 9 and 10 both reach only column 1, row 10
# one ulp cheaper; minus the cutoff, the two costs round to the same
# saving. The solver takes row 9, scipy's LAP takes row 10, and the
# choice moves the cell's switch_count, so a change to it is a change
# of the artifact contract.
NEAR_TIE_COSTS = {
    (0, 0): "0x1.194d7df6d65aap+2",
    (1, 1): "0x1.17960b0a3c517p+2",
    (2, 3): "0x1.0bf65fbf127fap+3",
    (3, 2): "0x1.7c45ef063ead1p+1",
    (4, 1): "0x1.179dbba40dabdp+2",
    (5, 0): "0x1.194287c5c3738p+2",
    (7, 2): "0x1.7c46a23633f86p+1",
    (9, 1): "0x1.10e523e325922p+2",
    (10, 1): "0x1.10e523e325921p+2",
    (14, 0): "0x1.4177e3e36fc56p+2",
}


def test_recorded_near_tie_takes_the_pinned_row():
    costs = np.full((15, 4), INF)
    for cell, text in NEAR_TIE_COSTS.items():
        costs[cell] = float.fromhex(text)
    assert costs[10, 1] < costs[9, 1]
    assert costs[10, 1] - 100.0 == costs[9, 1] - 100.0
    assert hungarian(costs, 100.0) == {2: 3, 3: 2, 5: 0, 9: 1}


# (rows, columns) per shape family, drawn per trial
ORACLE_SHAPES = {
    "square": lambda rng: (int(rng.integers(1, 7)),) * 2,
    "n>m": lambda rng: (int(rng.integers(3, 8)), int(rng.integers(1, 3))),
    "n<m": lambda rng: (int(rng.integers(1, 3)), int(rng.integers(3, 8))),
    "1xk": lambda rng: (1, int(rng.integers(1, 8))),
    "kx1": lambda rng: (int(rng.integers(1, 8)), 1),
    "empty": lambda rng: [(0, 0), (0, 4), (4, 0)][int(rng.integers(0, 3))],
}


def test_matches_enumeration_on_random_matrices():
    rng = np.random.default_rng(2)
    for trial, family in enumerate(list(ORACLE_SHAPES) * 100):
        n, m = ORACLE_SHAPES[family](rng)
        costs = rng.uniform(-5.0, 30.0, (n, m))
        costs[rng.random((n, m)) < 0.25] = INF
        costs[rng.random((n, m)) < 0.05] = -INF
        costs[rng.random((n, m)) < 0.05] = np.nan
        unassigned = float(rng.uniform(1.0, 15.0))
        out = hungarian(costs, unassigned)
        assert_valid_assignment(costs, unassigned, out)
        got = assignment_cost(costs, unassigned, out)
        want = min_cost_by_enumeration(costs, unassigned)
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial} ({family})"


def assert_valid_assignment(costs, unassigned, out):
    """Python-int keys in row order, each column once, candidates only."""
    assert list(out) == sorted(out)
    assert all(type(r) is int and type(c) is int for r, c in out.items())
    assert len(set(out.values())) == len(out)
    assert all(np.isfinite(costs[r, c]) and costs[r, c] < unassigned for r, c in out.items())


def padded_lap_cost(costs, unassigned):
    """Optimum by scipy's LAP over (n, m + n): row i may take column
    m + i at the unassigned cost, and every other pair outside the
    candidates costs more than leaving all rows unassigned."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    n, m = costs.shape
    candidate = np.isfinite(costs) & (costs < unassigned)
    forbidden = 2.0 * (n * abs(unassigned) + np.abs(costs[candidate]).sum()) + 1.0
    padded = np.full((n, m + n), forbidden)
    padded[:, :m] = np.where(candidate, costs, forbidden)
    padded[np.arange(n), m + np.arange(n)] = unassigned
    rows, cols = linear_sum_assignment(padded)
    return float(padded[rows, cols].sum())


def largest_component_rows(candidate):
    """Rows in the largest connected component of the row-column graph."""
    n = len(candidate)
    parent = list(range(n + candidate.shape[1]))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(candidate)):
        parent[root(int(i))] = root(n + int(j))
    roots = [root(i) for i in range(n) if candidate[i].any()]
    return max((roots.count(r) for r in set(roots)), default=0)


def test_matches_scipy_on_dense_frame_sized_arrays():
    # about the shape of a dense_ghost frame, 40 tracks by 20 detections
    # with 8% of pairs inside the gate, which joins them into components
    # of 10 and more rows; each array is also solved transposed
    rng = np.random.default_rng(11)
    gamma = 9.21
    for trial in range(100):
        costs = rng.uniform(0.0, gamma, (40, 20))
        costs[rng.random((40, 20)) >= 0.08] = INF
        assert largest_component_rows(np.isfinite(costs)) >= 10
        for array in (costs, costs.T):
            out = hungarian(array, gamma)
            assert_valid_assignment(array, gamma, out)
            got = assignment_cost(array, gamma, out)
            want = padded_lap_cost(array, gamma)
            assert got == pytest.approx(want, rel=1e-12), f"trial {trial}"


def clutter_det(i, x, y, t=0):
    return Detection(
        t=t, detection_id=i, z=np.array([x, y]), R=25.0 * np.eye(2), label="clutter"
    )


def frame_of(dets, t=0):
    return DetectionFrame(t=t, detections=tuple(dets))


def spawn(dets, params, start_id=0):
    """A bank of one fresh track per detection."""
    bank = TrackBank()
    born = np.ones(len(dets), bool)
    birth_tracks(bank, frame_of(dets), born, params, id_source=itertools.count(start_id))
    return bank


def test_step_gates_out_a_far_detection():
    params = TrackerParams()
    bank = spawn([clutter_det(0, 0.0, 0.0)], params)
    # track P after birth is huge in velocity, so gate is wide; a point
    # hundreds of sigma out still must be forbidden
    frame = frame_of([clutter_det(5, 1.0, 0.0, t=1), clutter_det(6, 5000.0, 0.0, t=1)], t=1)
    x, P = kf_predict_stack(bank.x, bank.P, params.dt_s, params.q)
    gated = gate_stack(frame, x, P, params.gamma)
    assert gated.inside.tolist() == [[True, False]]
    assert gated.detection_ids == (5, 6)
    assert np.isfinite(gated.d2).all()
    result = gnn_step(bank, frame, params, id_source=itertools.count(100))
    [outcome] = result.assignments
    assert outcome.detection_id == 5
    assert np.isfinite(outcome.score)
    # the far detection took no track and is born
    assert [row.detection_id for row in result.births] == [6]


def test_step_assigns_exact_hit():
    params = TrackerParams()
    bank = spawn([clutter_det(0, 10.0, -20.0)], params)
    frame = frame_of([clutter_det(1, 10.0, -20.0, t=1)], t=1)
    result = gnn_step(bank, frame, params, id_source=itertools.count(100))
    [outcome] = result.assignments
    assert outcome.detection_id == 1
    assert outcome.score == pytest.approx(0.0, abs=1e-6)
    assert outcome.weights == {1: 1.0}
    assert result.births == []


def test_step_miss_spawns_birth():
    params = TrackerParams()
    bank = spawn([clutter_det(0, 0.0, 0.0)], params)
    far = clutter_det(9, 4000.0, 4000.0, t=1)
    result = gnn_step(bank, frame_of([far], t=1), params, id_source=itertools.count(100))
    [outcome] = result.assignments
    assert outcome.detection_id is None
    assert outcome.weights == {}
    assert len(result.births) == 1
    np.testing.assert_allclose(bank.x[bank.ids.index(result.births[0].track_id), :2], far.z)


def test_step_cross_ambiguous_matches_brute_force():
    params = TrackerParams()
    rng = np.random.default_rng(3)
    for _ in range(30):
        positions = rng.uniform(-50.0, 50.0, (2, 2))
        bank = spawn(
            [clutter_det(0, *positions[0]), clutter_det(1, *positions[1])], params
        )
        x, P = kf_predict_stack(bank.x, bank.P, params.dt_s, params.q)
        dets = [
            clutter_det(10, *(positions[0] + rng.normal(0, 8, 2)), t=1),
            clutter_det(11, *(positions[1] + rng.normal(0, 8, 2)), t=1),
        ]
        d2 = np.array(
            [
                [mahalanobis2_by_solve(d.z, x_i, P_i, d.R) for d in dets]
                for x_i, P_i in zip(x, P)
            ]
        )
        costs = np.where(d2 <= params.gamma, d2, INF)
        want = min_cost_by_enumeration(costs, params.gamma)
        gated = gate_stack(frame_of(dets, t=1), x, P, params.gamma)
        gated_costs = np.where(gated.inside, gated.d2, INF)
        got = assignment_cost(gated_costs, params.gamma, hungarian(gated_costs, params.gamma))
        assert got == pytest.approx(want, abs=1e-9)


def test_step_one_to_one():
    params = TrackerParams()
    rng = np.random.default_rng(4)
    bank = spawn([clutter_det(i, *rng.uniform(-20, 20, 2)) for i in range(5)], params)
    dets = [clutter_det(10 + i, *rng.uniform(-20, 20, 2), t=1) for i in range(5)]
    result = gnn_step(bank, frame_of(dets, t=1), params, id_source=itertools.count(100))
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
        label="clutter",
    )


def gate_by_solve(frame, est, gamma):
    """(indices, d2) of the pairs inside gamma, one solve per pair."""
    inside = []
    for i, d in enumerate(frame.detections):
        d2 = mahalanobis2_by_solve(d.z, est.x, est.P, d.R)
        if d2 <= gamma:
            inside.append((i, d2))
    return inside


def gate(frame, ests, gamma=9.21):
    """gate_stack over the estimates' rows."""
    x = np.array([est.x for est in ests]).reshape(-1, 4)
    P = np.array([est.P for est in ests]).reshape(-1, 4, 4)
    return gate_stack(frame, x, P, gamma)


def test_gate_matches_solve_oracle_with_heterogeneous_R():
    rng = np.random.default_rng(5)
    gamma = 9.21
    for trial in range(50):
        ests = [
            KinematicEstimate(x=rng.normal(0.0, 20.0, 4), P=random_spd(rng, 4, 3.0))
            for _ in range(int(rng.integers(1, 4)))
        ]
        m = int(rng.integers(1, 12))
        dets = [
            det_with_R(10 + i, ests[0].x[:2] + rng.normal(0.0, 12.0, 2), random_spd(rng, 2, 4.0))
            for i in range(m)
        ]
        frame = frame_of(dets)
        got = gate(frame, ests, gamma=gamma)
        assert got.detection_ids == tuple(d.detection_id for d in dets)
        assert got.S.shape == (len(ests), m, 2, 2)
        for row, est in enumerate(ests):
            want = gate_by_solve(frame, est, gamma)
            want_cols = [i for i, _ in want]
            assert np.flatnonzero(got.inside[row]).tolist() == want_cols, f"trial {trial}"
            np.testing.assert_allclose(
                got.d2[row, got.inside[row]], [d2 for _, d2 in want], rtol=1e-12, atol=1e-12
            )
            for i, S in enumerate(got.S[row]):
                np.testing.assert_allclose(S, est.P[:2, :2] + dets[i].R, rtol=0.0, atol=0.0)


def test_gate_empty_frame_visits_no_pair():
    est = KinematicEstimate(x=np.zeros(4), P=np.eye(4))
    got = gate(frame_of([]), [est])
    assert got.detection_ids == () and len(got) == 0
    assert (got.inside.shape, got.d2.shape, got.S.shape) == ((1, 0), (1, 0), (1, 0, 2, 2))
    got = gate(frame_of([det_with_R(0, (0.0, 0.0), np.eye(2))]), [])
    assert len(got) == 0
    assert (got.inside.shape, got.d2.shape, got.S.shape) == ((0, 1), (0, 1), (0, 1, 2, 2))


def test_gate_keeps_pairs_exactly_at_gamma():
    # S = diag(4, 1): (6, 0) and (0, 3) both score exactly 9
    est = KinematicEstimate(x=np.zeros(4), P=np.zeros((4, 4)))
    R = np.diag([4.0, 1.0])
    frame = frame_of([det_with_R(0, (6.0, 0.0), R), det_with_R(1, (0.0, 3.0), R)])
    assert [d2 for _, d2 in gate_by_solve(frame, est, 9.0)] == [9.0, 9.0]
    got = gate(frame, [est], gamma=9.0)
    assert got.inside.tolist() == [[True, True]]
    assert got.d2.tolist() == [[9.0, 9.0]]
    assert len(gate(frame, [est], gamma=float(np.nextafter(9.0, 0.0)))) == 0


@pytest.mark.parametrize(
    "bad_R",
    [np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(2), np.full((2, 2), np.nan)],
    ids=["singular", "negative", "nan"],
)
def test_gate_raises_when_only_the_last_detection_is_degenerate(bad_R):
    ests = [KinematicEstimate(x=np.zeros(4), P=np.eye(4))] * 2
    good = [det_with_R(i, (float(i), 0.0), np.eye(2)) for i in range(3)]
    far_bad = det_with_R(3, (5000.0, 5000.0), bad_R)
    assert len(gate(frame_of(good), ests)) == 6
    with pytest.raises(np.linalg.LinAlgError):
        gate(frame_of(good + [far_bad]), ests)
    # with no track, no pair is scored and nothing raises
    assert len(gate(frame_of(good + [far_bad]), [])) == 0


def test_kf_update_matches_solve_reference():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.normal(0.0, 50.0, 4)
        P = random_spd(rng, 4, float(rng.uniform(0.1, 10.0)))
        R = random_spd(rng, 2, float(rng.uniform(0.1, 10.0)))
        z = x[:2] + rng.normal(0.0, 10.0, 2)
        [post_x], [post_P], [nu], [S] = kf_update_stack(x[None], P[None], z[None], R[None])
        want_x, want_P = kf_update_by_solve(x, P, z, R)
        np.testing.assert_allclose(post_x, want_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(post_P, want_P, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(nu, z - x[:2], rtol=0.0, atol=0.0)
        np.testing.assert_allclose(S, P[:2, :2] + R, rtol=0.0, atol=0.0)
