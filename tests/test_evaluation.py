"""Tests for the trajectory error metrics."""

import numpy as np
import pytest

import lie_estimate.groups as G
import lie_estimate.evaluation as EV


def rot(axis, angle):
    return G.exp(G.TangentVector(G.SO3, angle * np.asarray(axis,
                                                           float))).matrix


def make_trajectory(n=50, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    r = np.eye(3)
    p = np.zeros(3)
    for k in range(n):
        w = 0.1 * rng.standard_normal(3)
        v = rng.standard_normal(3)
        r = r @ rot(w / max(np.linalg.norm(w), 1e-12),
                    np.linalg.norm(w))
        p = p + 0.01 * v
        out.append(EV.PoseSample(0.01 * k, r, p, v))
    return out


def test_identical_trajectories_score_zero():
    traj = make_trajectory()
    report = EV.evaluate(traj, traj, rpe_interval=5)
    assert report.ate_rot_deg == 0.0
    assert report.ate_pos_m == 0.0
    assert report.ate_vel_mps == 0.0
    assert report.rpe_rot_deg == 0.0
    assert report.rpe_pos_m == 0.0


def test_constant_rotation_offset_reports_the_angle():
    truth = make_trajectory()
    off = rot([0, 0, 1], np.radians(7.0))
    est = [EV.PoseSample(s.t, s.rotation @ off, s.position, s.velocity)
           for s in truth]
    report = EV.evaluate(truth, est)
    assert np.isclose(report.ate_rot_deg, 7.0, atol=1e-9)


def test_constant_position_offset_with_identity_rotation():
    truth = [EV.PoseSample(0.1 * k, np.eye(3), [0.02 * k, 0, 0], np.zeros(3))
             for k in range(30)]
    c = np.array([0.3, -0.4, 0.0])
    est = [EV.PoseSample(s.t, s.rotation, s.position + c, s.velocity)
           for s in truth]
    rot_e, pos_e, vel_e, _ = EV.ate(truth, est)
    assert np.isclose(pos_e, 0.5, atol=1e-12)
    assert rot_e == 0.0 and vel_e == 0.0


def test_rpe_ignores_a_constant_global_offset():
    truth = make_trajectory(seed=3)
    offset = G.se3_element(rot([1, 1, 0], 0.4), [1.0, -2.0, 0.5])
    est = []
    for s in truth:
        pose = G.compose(offset, s.pose)
        est.append(EV.PoseSample(s.t, pose.matrix[:3, :3],
                                 pose.matrix[:3, 3], s.velocity))
    rpe_rot, rpe_pos = EV.rpe(truth, est, interval=3)
    assert rpe_rot < 1e-12 and rpe_pos < 1e-12


def test_rpe_of_a_uniform_drift_telescopes():
    """A constant per-step increment error accumulates linearly with the
    evaluation interval, to first order in the drift size."""
    n = 80
    delta = np.array([2e-4, 0.0, 0.0])
    truth = [EV.PoseSample(0.01 * k, np.eye(3), [0.01 * k, 0, 0], np.zeros(3))
             for k in range(n)]
    est = [EV.PoseSample(s.t, s.rotation, s.position + k * delta, s.velocity)
           for k, s in enumerate(truth)]
    for e in (1, 4, 10):
        _, rpe_pos = EV.rpe(truth, est, interval=e)
        assert np.isclose(rpe_pos, e * np.linalg.norm(delta), rtol=1e-6)


@pytest.mark.parametrize("side", ["left", "right"])
def test_rpe_builds_each_pose_once_with_unchanged_results(monkeypatch, side):
    truth = make_trajectory(seed=10)
    est = make_trajectory(seed=11)
    sq_rot = sq_pos = 0.0  # reference: each increment builds its own poses
    for k in range(len(truth) - 4):
        inc_true = G.compose(G.inverse(truth[k].pose), truth[k + 4].pose)
        inc_est = G.compose(G.inverse(est[k].pose), est[k + 4].pose)
        vec = G.logvee(G.compose(G.inverse(inc_est), inc_true))
        if side == "right":
            vec = G.adjoint(inc_est) @ vec
        sq_pos += float(vec[:3] @ vec[:3])
        sq_rot += float(vec[3:] @ vec[3:])
    count = len(truth) - 4
    built = []
    se3_element = G.se3_element
    monkeypatch.setattr(G, "se3_element",
                        lambda *args: built.append(1) or se3_element(*args))
    assert EV.rpe(truth, est, interval=4, side=side) == (
        np.sqrt(sq_rot / count), np.sqrt(sq_pos / count))
    assert len(built) == len(truth) + len(est)


def test_rpe_rejects_a_non_orthonormal_rotation():
    truth = make_trajectory(n=10)
    bad = list(truth)
    bad[6] = EV.PoseSample(bad[6].t, 1.01 * bad[6].rotation, bad[6].position,
                           bad[6].velocity)
    for a, b in ((truth, bad), (bad, truth)):
        with pytest.raises(G.InvalidArgumentError):
            EV.rpe(a, b, interval=2)


def test_align_first_pose_matches_and_preserves_increments():
    truth = make_trajectory(seed=5)
    est = make_trajectory(seed=6)
    aligned = EV.align_first_pose(truth, est)
    assert np.allclose(aligned[0].pose.matrix, truth[0].pose.matrix,
                       atol=1e-12)
    for k in range(len(est) - 1):
        inc_old = G.compose(G.inverse(est[k].pose), est[k + 1].pose)
        inc_new = G.compose(G.inverse(aligned[k].pose), aligned[k + 1].pose)
        assert np.allclose(inc_old.matrix, inc_new.matrix, atol=1e-12)
    already = EV.align_first_pose(truth, truth)
    for a, b in zip(already, truth):
        assert np.allclose(a.pose.matrix, b.pose.matrix, atol=1e-12)


def test_left_ate_is_right_translation_invariant():
    truth = make_trajectory(seed=8)
    est = make_trajectory(seed=9)
    base = EV.ate(truth, est, side="left")
    shift = G.se3_element(rot([0, 1, 0], 0.7), [0.3, 0.1, -0.2])

    def right_translate(traj):
        out = []
        for s in traj:
            pose = G.compose(s.pose, shift)
            out.append(EV.PoseSample(s.t, pose.matrix[:3, :3],
                                     pose.matrix[:3, 3], s.velocity))
        return out

    moved = EV.ate(right_translate(truth), right_translate(est), side="left")
    assert np.isclose(base[0], moved[0], atol=1e-10)
    # positions do not stay invariant under right translation in general,
    # but the rotation part must


def test_errors_on_bad_inputs():
    traj = make_trajectory(n=10)
    with pytest.raises(G.InvalidArgumentError):
        EV.ate(traj, traj[:-1])
    with pytest.raises(G.InvalidArgumentError):
        EV.ate([], [])
    with pytest.raises(G.InvalidArgumentError):
        EV.rpe(traj, traj, interval=10)
    with pytest.raises(G.InvalidArgumentError):
        EV.ate(traj, traj, side="middle")


def test_report_serializes_to_json():
    traj = make_trajectory(n=20)
    report = EV.evaluate(traj, traj, rpe_interval=2)
    data = __import__("json").loads(report.to_json())
    assert data["samples"] == 20
    assert data["rpe_interval"] == 2
    assert all(v >= 0 for k, v in data.items())
