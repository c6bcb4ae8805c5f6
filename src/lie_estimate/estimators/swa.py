"""Lightweight legged odometry that anchors a stance sole frame.

No covariance is kept: the base pose comes from forward kinematics through
a foot frame held fixed in the world, the orientation is improved by fusing
the kinematic yaw with the IMU roll and pitch, and the base twist is a
damped least-squares blend of the rigid-contact constraints, the gyro, and
the measured joint rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import averaging as A
from .. import groups as G
from .. import kinematics as K


@dataclass
class SwaState:
    odometry: K.OdometryState
    base_pose: G.GroupElement
    base_twist: np.ndarray
    stance: tuple


def swa_start(chain, joint_positions, stance_frame, base_pose=None,
              poses=None) -> SwaState:
    """Anchor at a stance frame; poses, when given, is
    chain.link_poses(joint_positions)."""
    if base_pose is None:
        base_pose = G.identity(G.SE3)
    odo = K.odometry_start(chain, joint_positions, stance_frame, base_pose,
                           poses)
    return SwaState(odo, base_pose, np.zeros(6), (stance_frame,))


def _pick_stance(state, contacts):
    """Anchor to the most recently made contact: switching at touchdown,
    while both feet are still planted, keeps the odometry seamless. With no
    contact at all, coast on the old anchor."""
    active = tuple(name for name, on in contacts.items() if on)
    current = state.odometry.fixed_frame
    fresh = [name for name in active if name not in state.stance]
    if fresh:
        return fresh[0], active
    if current in active:
        return current, active
    if active:
        return active[0], active
    return current, ()


def swa_step(state, chain, joint_positions, joint_velocities, gyro,
             imu_rotation, contacts, orientation_weights=(0.5, 0.5),
             joint_rate_weight=1.0, contact_weight=1e3,
             poses=None) -> SwaState:
    """Advance the odometry one sample.

    gyro is the body-frame base angular rate (already rotated into the base
    frame), imu_rotation the world base rotation reported by the IMU filter,
    contacts a mapping from sole frame name to a boolean contact flag.
    orientation_weights weighs (kinematic, imu-tilt) in the rotation fusion.
    poses, when given, is chain.link_poses(joint_positions); otherwise it is
    computed once here for all the kinematics of the sample.
    """
    if poses is None:
        poses = chain.link_poses(joint_positions)
    anchor, active = _pick_stance(state, contacts)
    switch = None if anchor == state.odometry.fixed_frame else anchor
    odo = K.odometry_update(state.odometry, chain, joint_positions,
                            contact_switch=switch, poses=poses)

    # the kinematic rotation and the Karcher mean are kernel results and go
    # unchecked; the caller's imu_rotation is validated
    r_lo = G._trusted_element(G.SO3, odo.base_pose.matrix[:3, :3])
    pos = odo.base_pose.matrix[:3, 3]
    # overwrite the IMU yaw with the kinematic one, keep the IMU tilt
    _, _, yaw = G.rotation_to_rpy(r_lo)
    roll, pitch, _ = G.rotation_to_rpy(G.so3_element(imu_rotation))
    r_tilt = G.rpy_to_rotation(roll, pitch, yaw)
    fused = A.karcher_mean(
        [r_lo, r_tilt], weights=list(orientation_weights),
        cfg=A.AveragingConfig(step_size=1.0, tolerance=1e-10, max_iters=50))
    pose = G._trusted_se3(fused.matrix, pos)

    ndof = chain.dof
    size = 6 + ndof
    sdot = np.asarray(joint_velocities, float).reshape(ndof)
    constraints = []
    for frame in active:
        jac = K.mixed_jacobian(chain, joint_positions, pose, frame, poses)
        constraints.append({"rows": jac[:3], "target": np.zeros(3),
                            "weight": contact_weight * np.eye(3)})
    ang = np.zeros((3, size))
    ang[:, 3:6] = np.eye(3)
    constraints.append({"rows": ang,
                        "target": fused.matrix @ np.asarray(gyro, float),
                        "weight": np.eye(3)})
    joint_rows = np.zeros((ndof, size))
    joint_rows[:, 6:] = np.eye(ndof)
    constraints.append({"rows": joint_rows, "target": sdot,
                        "weight": joint_rate_weight * np.eye(ndof)})
    nu = K.fused_base_velocity(constraints, size=size)

    return SwaState(odo, pose, nu[:6], active)
