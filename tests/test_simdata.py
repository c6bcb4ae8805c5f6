"""Tests for the synthetic walk generator and sensor emulation."""

import numpy as np
import pytest

import lie_estimate.contact as C
import lie_estimate.estimators as E
import lie_estimate.groups as G
import lie_estimate.kinematics as K
import lie_estimate.simdata as S
from lie_estimate.estimators.diligent import ImuInput


@pytest.fixture(scope="module")
def walk():
    return S.generate_walk(S.WalkProfile(step_length=0.1, step_period=0.8,
                                         duration=10.0))


def test_profile_validation():
    with pytest.raises(G.InvalidArgumentError):
        S.WalkProfile(step_period=-1.0)
    with pytest.raises(G.InvalidArgumentError):
        S.WalkProfile(duration=0.0)


def test_walk_poses_are_valid_rigid_transforms(walk):
    for sample in walk:
        poses = [sample.base_pose, *sample.foot_poses.values()]
        for pose in poses:
            assert pose.tag == G.SE3
            G._check_element(G.SE3, pose.matrix)


def test_sample_count_and_monotone_time(walk):
    assert len(walk) == 1000
    times = [s.t for s in walk]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_zero_step_length_is_stationary():
    traj = S.generate_walk(S.WalkProfile(step_length=0.0, duration=2.0))
    first = traj[0]
    for s in traj:
        assert s.contacts == {"left": True, "right": True}
        assert np.allclose(s.base_pose.matrix, first.base_pose.matrix)
        assert np.allclose(s.base_twist, 0.0)


def test_stance_feet_are_pinned_exactly(walk):
    for side in ("left", "right"):
        prev = None
        for s in walk:
            pos = s.foot_poses[side].matrix[:3, 3]
            if prev is not None and s.contacts[side] and prev[1]:
                assert np.array_equal(pos, prev[0])
            prev = (pos, s.contacts[side])


def test_base_advances_one_step_length_per_period(walk):
    steps = int(10.0 // 0.8)
    final_x = walk[-1].base_pose.matrix[0, 3]
    assert abs(final_x - steps * 0.1) < 0.01 * steps * 0.1


def test_gait_alternates_single_and_double_support(walk):
    states = {(s.contacts["left"], s.contacts["right"]) for s in walk}
    assert (True, True) in states
    assert (False, True) in states
    assert (True, False) in states
    assert (False, False) not in states


def test_encoders_match_forward_kinematics(walk):
    chain = walk.chain
    for s in walk[::97]:
        for side in ("left", "right"):
            rel = K.relative_fk(chain, s.joint_state.positions, "pelvis",
                                f"{side}_sole")
            world = G.compose(s.base_pose, rel)
            assert np.allclose(world.matrix, s.foot_poses[side].matrix,
                               atol=1e-9)


def test_out_of_reach_profile_fails():
    with pytest.raises(G.InvalidArgumentError):
        S.generate_walk(S.WalkProfile(step_length=0.8, base_height=0.65,
                                      duration=2.0))


def test_static_imu_reads_gravity():
    traj = S.generate_walk(S.WalkProfile(step_length=0.0, duration=1.0))
    for rec in S.emulate_imu(traj):
        assert np.allclose(rec["accel"], [0.0, 0.0, 9.80665])
        assert np.allclose(rec["gyro"], 0.0)


def test_imu_noise_statistics_match_configuration():
    traj = S.generate_walk(S.WalkProfile(step_length=0.0, duration=1.0))
    # repeat the short static log to get 1e5 samples cheaply
    noise = E.NoiseConfig(accel=0.09, gyro=0.01,
                          accel_bias=0.0, gyro_bias=0.0)
    acc = []
    gyr = []
    for trial in range(1000):
        for rec in S.emulate_imu(traj, noise, seed=trial):
            acc.append(np.asarray(rec["accel"]) - [0, 0, 9.80665])
            gyr.append(rec["gyro"])
    acc = np.asarray(acc)
    gyr = np.asarray(gyr)
    assert acc.shape[0] == 100000
    assert np.allclose(acc.std(axis=0), 0.09, rtol=0.05)
    assert np.allclose(gyr.std(axis=0), 0.01, rtol=0.05)


def test_streams_are_deterministic_per_seed(walk):
    noise = E.NoiseConfig()
    a = S.emulate_imu(walk, noise, seed=7)
    b = S.emulate_imu(walk, noise, seed=7)
    assert a == b
    assert S.emulate_encoders(walk, 0.01, seed=3) == \
        S.emulate_encoders(walk, 0.01, seed=3)
    assert S.emulate_imu(walk, noise, seed=8) != a


def test_zero_std_encoders_are_exact(walk):
    for rec, s in zip(S.emulate_encoders(walk, std=0.0), walk):
        assert np.array_equal(rec["positions"], s.joint_state.positions)


def test_wrench_split_and_cop_round_trip(walk):
    geometry = C.FootGeometry(0.2, 0.1)
    records = S.emulate_wrenches(walk, 500.0, geometry)
    by_t = {}
    for rec in records:
        by_t.setdefault(rec["t"], {})[rec["foot"]] = rec
    # quiet double support at t = 0: symmetric split
    assert by_t[0.0]["left"]["force"][2] == 250.0
    assert by_t[0.0]["right"]["force"][2] == 250.0
    # decomposition reproduces the scheduled CoP exactly
    sweep = []
    for rec in records:
        wrench = np.asarray(rec["force"] + rec["torque"])
        state = C.decompose_wrench(wrench, geometry)
        if rec["force"][2] > 0:
            assert state.in_contact
            assert np.isclose(sum(state.forces), rec["force"][2], atol=1e-9)
            expected_cop = -rec["torque"][1] / rec["force"][2]
            assert np.isclose(state.cop[0], expected_cop, atol=1e-9)
            sweep.append(expected_cop)
    # the CoP actually sweeps from heel to toe
    assert min(sweep) < -0.05 and max(sweep) > 0.05


def test_zero_noise_round_trip_through_the_filter():
    traj = S.generate_walk(S.WalkProfile(duration=5.0))
    imu = S.emulate_imu(traj)
    noise = E.NoiseConfig()
    chain = traj.chain
    s0 = traj[0]
    st = E.diligent_initial_state(s0.base_pose, s0.base_twist[:3],
                                  s0.foot_poses["left"],
                                  s0.foot_poses["right"], noise)
    worst = 0.0
    for k in range(1, len(traj)):
        rec = imu[k - 1]
        u = ImuInput(np.array(rec["accel"]), np.array(rec["gyro"]), traj.dt)
        st = E.diligent_predict(st, u, traj[k - 1].contacts, noise)
        meas = []
        for side in ("left", "right"):
            if traj[k].contacts[side]:
                z, n = E.foot_pose_measurement(
                    chain, traj[k].joint_state.positions, f"{side}_sole",
                    noise)
                meas.append((side, z, n))
        st = E.diligent_update(st, meas)
        worst = max(worst, np.linalg.norm(
            st.base_position - traj[k].base_pose.matrix[:3, 3]))
    assert worst < 1e-4
