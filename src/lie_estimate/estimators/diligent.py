"""Proprioceptive base estimator for bipeds with flat feet.

The state is one matrix Lie group element combining base extended pose
(rotation, position, velocity), both foot poses, optional landmark poses,
and IMU biases. Prediction integrates bias-corrected IMU readings;
updates consume relative base-to-foot pose measurements from joint
encoders and forward kinematics.

One function per filter step, diligent_predict and diligent_update; their
side argument is the error side: "right" keeps the error on the right of
the mean (X = mean * exp(err), DILIGENT-KIO), "left" keeps it on the left
(X = exp(err) * mean, DILIGENT-KIO-RIE). Error vector layout, 27 + 6*L dims:
base position, base rotation, base velocity, left foot position, left foot
rotation, right foot position, right foot rotation, [landmarks...],
accelerometer bias, gyro bias.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .. import filtercore as FC
from .. import groups as G
from .noise import GRAVITY_MAGNITUDE, NoiseConfig

GRAVITY = np.array([0.0, 0.0, -GRAVITY_MAGNITUDE])
MAX_RECOMMENDED_DT = 0.02

_FOOT_INDEX = {"left": 0, "right": 1}


@dataclass(frozen=True)
class ImuInput:
    accel: np.ndarray
    gyro: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "accel", np.asarray(self.accel, float).reshape(3))
        object.__setattr__(self, "gyro", np.asarray(self.gyro, float).reshape(3))
        if self.dt <= 0.0:
            raise G.InvalidArgumentError("dt must be positive")


def _state_tag(n_landmarks):
    parts = [G.SEk3(2), G.SE3, G.SE3] + [G.SE3] * n_landmarks + [G.Tn(6)]
    return G.composite(*parts)


def _slot(name, n_landmarks):
    base = {"p": 0, "r": 3, "v": 6, "dl": 9, "zl": 12, "dr": 15, "zr": 18}
    if name in base:
        return slice(base[name], base[name] + 3)
    off = 21 + 6 * n_landmarks
    return {"ba": slice(off, off + 3), "bg": slice(off + 3, off + 6)}[name]


@dataclass(frozen=True)
class DiligentState:
    element: G.GroupElement
    covariance: np.ndarray
    landmark_ids: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "covariance",
                           np.asarray(self.covariance, float))
        if self.element.tag != _state_tag(len(self.landmark_ids)):
            raise G.InvalidArgumentError("state element has the wrong group")
        d = self.element.tag.algebra_dim
        if self.covariance.shape != (d, d):
            raise G.InvalidArgumentError("covariance dimension mismatch")

    @property
    def dim(self):
        return self.element.tag.algebra_dim

    # The accessors read views of the state matrix. Its blocks, in order:
    # base SE_2(3) (5x5), left and right foot SE(3) (4x4 each), one SE(3)
    # per landmark, and the T(6) bias block last (7x7).

    @property
    def base_rotation(self):
        return self.element.matrix[:3, :3]

    @property
    def base_position(self):
        return self.element.matrix[:3, 3]

    @property
    def base_velocity(self):
        return self.element.matrix[:3, 4]

    @property
    def base_pose(self):
        return G._trusted_se3(self.base_rotation, self.base_position)

    def foot_pose(self, side):
        i = 5 + 4 * _FOOT_INDEX[side]
        return G._trusted_element(G.SE3, self.element.matrix[i:i + 4, i:i + 4])

    @property
    def accel_bias(self):
        return self.element.matrix[-7:-4, -1]

    @property
    def gyro_bias(self):
        return self.element.matrix[-4:-1, -1]


def diligent_initial_state(base_pose, velocity, left_foot_pose,
                           right_foot_pose, noise: NoiseConfig,
                           accel_bias=np.zeros(3),
                           gyro_bias=np.zeros(3)) -> DiligentState:
    """Assemble the state and a diagonal prior covariance from the config."""
    r = base_pose.matrix[:3, :3]
    p = G.se3_translation(base_pose)
    core = G.sek3_element(r, [p, np.asarray(velocity, float).reshape(3)])
    bias = G.tn_element(np.concatenate([np.asarray(accel_bias, float).reshape(3),
                                        np.asarray(gyro_bias, float).reshape(3)]))
    element = G.composite_of(core, left_foot_pose, right_foot_pose, bias)
    stds = np.concatenate([
        np.full(3, noise.prior_position), np.full(3, noise.prior_rotation),
        np.full(3, noise.prior_velocity),
        np.full(3, noise.prior_position), np.full(3, noise.prior_rotation),
        np.full(3, noise.prior_position), np.full(3, noise.prior_rotation),
        np.full(3, noise.prior_accel_bias), np.full(3, noise.prior_gyro_bias)])
    return DiligentState(element, np.diag(stds ** 2))


def bias_corrected_readings(state, imu):
    """Body-frame specific force with gravity removed, and angular rate."""
    r = state.base_rotation
    a_bar = imu.accel - state.accel_bias + r.T @ GRAVITY
    w_bar = imu.gyro - state.gyro_bias
    return a_bar, w_bar


def _motion_increment(state, imu):
    a_bar, w_bar = bias_corrected_readings(state, imu)
    r, v, dt = state.base_rotation, state.base_velocity, imu.dt
    omega = np.zeros(state.dim)
    nl = len(state.landmark_ids)
    omega[_slot("p", nl)] = r.T @ v * dt + 0.5 * a_bar * dt * dt
    omega[_slot("r", nl)] = w_bar * dt
    omega[_slot("v", nl)] = a_bar * dt
    return G.TangentVector(state.element.tag, omega)


def _process_cov(state, contacts, noise, dt):
    nl = len(state.landmark_ids)
    stds = np.zeros(state.dim)
    stds[_slot("p", nl)] = 0.5 * noise.accel * dt * dt
    stds[_slot("r", nl)] = noise.gyro * dt
    stds[_slot("v", nl)] = noise.accel * dt
    for side, dslot, zslot in (("left", "dl", "zl"), ("right", "dr", "zr")):
        scale = 1.0 if contacts.get(side, False) else noise.swing_scale
        stds[_slot(dslot, nl)] = scale * noise.foot_linear * dt
        stds[_slot(zslot, nl)] = scale * noise.foot_angular * dt
    stds[_slot("ba", nl)] = noise.accel_bias * dt
    stds[_slot("bg", nl)] = noise.gyro_bias * dt
    return np.diag(stds ** 2)


def _motion_jacobian_right(state, imu):
    """Derivative of the motion increment w.r.t. a right-multiplied error."""
    nl = len(state.landmark_ids)
    r, v, dt = state.base_rotation, state.base_velocity, imu.dt
    f = np.zeros((state.dim, state.dim))
    xi = r.T @ v * dt + 0.5 * r.T @ GRAVITY * dt * dt
    f[_slot("p", nl), _slot("r", nl)] = G.skew(xi)
    f[_slot("p", nl), _slot("v", nl)] = np.eye(3) * dt
    f[_slot("p", nl), _slot("ba", nl)] = -0.5 * np.eye(3) * dt * dt
    f[_slot("r", nl), _slot("bg", nl)] = -np.eye(3) * dt
    f[_slot("v", nl), _slot("r", nl)] = G.skew(r.T @ GRAVITY * dt)
    f[_slot("v", nl), _slot("ba", nl)] = -np.eye(3) * dt
    return f


def _motion_jacobian_left(state, imu):
    """Derivative of the motion increment w.r.t. a left-multiplied error."""
    nl = len(state.landmark_ids)
    r, dt = state.base_rotation, imu.dt
    f = np.zeros((state.dim, state.dim))
    xi1 = r.T @ G.skew(GRAVITY) * dt
    f[_slot("p", nl), _slot("r", nl)] = 0.5 * xi1 * dt
    f[_slot("p", nl), _slot("v", nl)] = r.T * dt
    f[_slot("p", nl), _slot("ba", nl)] = -0.5 * np.eye(3) * dt * dt
    f[_slot("r", nl), _slot("bg", nl)] = -np.eye(3) * dt
    f[_slot("v", nl), _slot("r", nl)] = xi1
    f[_slot("v", nl), _slot("ba", nl)] = -np.eye(3) * dt
    return f


def _exact_mean(state, imu):
    """Closed-form zero-order-hold integration of the base block."""
    a_bar, w_bar = bias_corrected_readings(state, imu)
    r, p, v, dt = (state.base_rotation, state.base_position,
                   state.base_velocity, imu.dt)
    acc_world = r @ a_bar
    r_new = r @ G.exp(G.TangentVector(G.SO3, w_bar * dt)).matrix
    p_new = p + v * dt + 0.5 * acc_world * dt * dt
    v_new = v + acc_world * dt
    parts = G.composite_parts(state.element)
    core = G.sek3_element(r_new, [p_new, v_new])
    return G.composite_of(core, *parts[1:])


def _check_dt(dt):
    if dt > MAX_RECOMMENDED_DT:
        warnings.warn(f"step {dt} s exceeds the validated {MAX_RECOMMENDED_DT}"
                      " s; the first-order integrator may be inaccurate",
                      stacklevel=3)


def diligent_predict(state, imu: ImuInput, contacts, noise: NoiseConfig,
                     side="right", exact_integration=False) -> DiligentState:
    """Propagate through the IMU, with the error on the given side of the
    mean ("right" or "left").

    contacts is a (left, right) pair of booleans; a swing foot gets its
    process noise inflated so the next stance measurement re-seats it.
    """
    _check_dt(imu.dt)
    jacobian = (_motion_jacobian_right if side == "right"
                else _motion_jacobian_left)
    belief = FC.dlgekf_predict(
        FC.BeliefState(state.element, state.covariance),
        _motion_increment(state, imu), jacobian(state, imu),
        _process_cov(state, contacts, noise, imu.dt), side=side)
    mean = _exact_mean(state, imu) if exact_integration else belief.mean
    return DiligentState(mean, belief.covariance, state.landmark_ids)


def foot_pose_measurement(chain, joint_positions, sole_frame,
                          noise: NoiseConfig, poses=None):
    """Relative base-to-sole pose from encoders, with its lifted covariance.

    The encoder noise maps into the pose through the left-trivialized
    relative Jacobian; a tiny jitter keeps the result invertible when the
    leg has fewer than six joints. poses, when given, is
    chain.link_poses(joint_positions).
    """
    from .. import kinematics as K
    if poses is None:
        poses = chain.link_poses(joint_positions)
    z = K.relative_fk(chain, joint_positions, chain.base_link, sole_frame,
                      poses)
    jac = K.relative_jacobian_left_trivialized(
        chain, joint_positions, chain.base_link, sole_frame, poses)
    cov = (noise.encoder ** 2) * (jac @ jac.T) + 1e-12 * np.eye(6)
    return z, cov


def _predicted_foot_pose(state, side):
    r, p = state.base_rotation, state.base_position
    foot = state.foot_pose(side)
    z_f, d_f = foot.matrix[:3, :3], foot.matrix[:3, 3]
    return G._trusted_se3(r.T @ z_f, r.T @ (d_f - p))


def _measurement_jacobian_right(state, side):
    nl = len(state.landmark_ids)
    r, p = state.base_rotation, state.base_position
    foot = state.foot_pose(side)
    z_f, d_f = foot.matrix[:3, :3], foot.matrix[:3, 3]
    dslot = _slot("dl" if side == "left" else "dr", nl)
    zslot = _slot("zl" if side == "left" else "zr", nl)
    h = np.zeros((6, state.dim))
    h[0:3, _slot("p", nl)] = -z_f.T @ r
    h[0:3, _slot("r", nl)] = z_f.T @ G.skew(d_f - p) @ r
    h[0:3, dslot] = np.eye(3)
    h[3:6, _slot("r", nl)] = -z_f.T @ r
    h[3:6, zslot] = np.eye(3)
    return h


def _measurement_jacobian_left(state, side):
    nl = len(state.landmark_ids)
    foot = state.foot_pose(side)
    z_f, d_f = foot.matrix[:3, :3], foot.matrix[:3, 3]
    dslot = _slot("dl" if side == "left" else "dr", nl)
    zslot = _slot("zl" if side == "left" else "zr", nl)
    h = np.zeros((6, state.dim))
    h[0:3, _slot("p", nl)] = -z_f.T
    h[0:3, _slot("r", nl)] = z_f.T @ G.skew(d_f)
    h[0:3, dslot] = z_f.T
    h[0:3, zslot] = -z_f.T @ G.skew(d_f)
    h[3:6, _slot("r", nl)] = -z_f.T
    h[3:6, zslot] = z_f.T
    return h


def _stacked_measurement(state, measurements, jacobian_fn):
    """(predicted, z, h, n) for a list of (side, pose, covariance) foot
    measurements, stacked on composite(SE3, ...) with one part per foot.
    The poses come from FK and the predictions from _trusted_se3, so the
    block-diagonals need no re-validation."""
    if len(measurements) == 0:
        raise G.InvalidArgumentError("need at least one foot measurement")
    for side, pose, _ in measurements:
        if side not in _FOOT_INDEX:
            raise G.InvalidArgumentError(f"unknown foot {side!r}")
        if pose.tag != G.SE3:
            raise G.InvalidArgumentError("a foot measurement is an SE(3) pose")
    tag = G.composite(*[G.SE3] * len(measurements))
    predicted = G._trusted_element(tag, G._blkdiag(
        [_predicted_foot_pose(state, side).matrix
         for side, _, _ in measurements]))
    z = G._trusted_element(tag, G._blkdiag(
        [pose.matrix for _, pose, _ in measurements]))
    h = np.vstack([jacobian_fn(state, side) for side, _, _ in measurements])
    n = G._blkdiag([np.asarray(cov, float) for _, _, cov in measurements])
    return predicted, z, h, n


def diligent_update(state, measurements, side="right",
                    gate=None) -> DiligentState:
    """Fuse relative foot-pose measurements, with the error on the given
    side of the mean ("right" or "left").

    measurements is a list of (side, pose, covariance) triples; double
    support stacks both feet into one update.
    """
    jacobian = (_measurement_jacobian_right if side == "right"
                else _measurement_jacobian_left)
    predicted, z, h, n = _stacked_measurement(state, measurements, jacobian)
    belief = FC.dlgekf_update(FC.BeliefState(state.element, state.covariance),
                              predicted, z, h, n, side=side, gate=gate)
    return DiligentState(belief.mean, belief.covariance, state.landmark_ids)


# bench/tracing.py looks these names up to count calls; nothing in the
# package calls them
diligent_rie_predict = functools.partial(diligent_predict, side="left")
diligent_rie_update = functools.partial(diligent_update, side="left")
