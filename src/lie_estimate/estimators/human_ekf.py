"""Base estimator for a sensorized human walking with instrumented shoes.

State: base extended pose (rotation, position, velocity), eight candidate
contact points (four per shoe, left then right), the left-trivialized base
angular velocity, and both shoe orientations. The error lives on the left
of the mean (X = exp(err) * mean), 42 dims ordered:
position(3) rotation(3) velocity(3) contacts(24) angular-rate(3)
left-shoe rotation(3) right-shoe rotation(3).

Updates come in three flavors, dispatched to the matching engine:
contact-point position and both zero-velocity updates act on the raw state
columns; terrain height and the base gyro act on body-frame quantities and
wrap a covariance transport; foot rotation, contact plane, and the
non-invariant terrain variant are plain group-valued measurements, fused
by the discrete filter with the error on the left (side="left").

The contact-point and invariant terrain updates also take a sequence of
vertex indices and fold all of their rows into one update: one gain, and
for terrain one covariance transport each way. The CLI driver does one
contact stack and then one terrain stack per encoder sample, over the
vertices of every stance shoe. Contact goes first because the terrain rows
copy their horizontal target from the estimate, which the contact
correction moves; a single stack of both would take it from the estimate
before that correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import filtercore as FC
from .. import groups as G
from .. import uncertainty as U
from .noise import NoiseConfig

N_VERTICES = 8
_TAG = G.composite(G.SEk3(10), G.Tn(3), G.SO3, G.SO3)
_DIM = 42        # algebra dimension
_MDIM = 23       # stacked matrix dimension

# error-vector slots
_P = slice(0, 3)
_R = slice(3, 6)
_V = slice(6, 9)
_W = slice(33, 36)
_ZL = slice(36, 39)
_ZR = slice(39, 42)

# homogeneous column positions inside the big state matrix
_COL_P = 3
_COL_V = 4
_COL_D0 = 5
_ROW_W = 13      # translation-block rows for the angular-rate slot
_COL_W_ONE = 16
_ROW_Z = 17      # first row of the left-shoe rotation block

HUMAN_NOISE = NoiseConfig(foot_linear=1e-3, foot_angular=1e-3)


def _vslot(i):
    if not 0 <= i < N_VERTICES:
        raise G.InvalidArgumentError(f"vertex index {i} out of range")
    return slice(9 + 3 * i, 12 + 3 * i)


def _vertex_list(vertex):
    """(indices, single) for one vertex index or a sequence of them."""
    single = np.ndim(vertex) == 0
    verts = np.atleast_1d(np.asarray(vertex, dtype=int))
    if verts.ndim != 1 or verts.size == 0:
        raise G.InvalidArgumentError("need one vertex index or a sequence")
    for i in verts:
        _vslot(i)
    return verts, single


@dataclass(frozen=True)
class HumanEkfState:
    element: G.GroupElement
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "covariance", np.asarray(self.covariance, float))
        if self.element.tag != _TAG:
            raise G.InvalidArgumentError("state element has the wrong group")
        if self.covariance.shape != (_DIM, _DIM):
            raise G.InvalidArgumentError("covariance must be 42x42")

    # The accessors read views of the 23x23 state matrix: the SE_10(3)
    # block (13x13) holds the base pose, velocity and vertices, then come
    # the T(3) angular-rate block and the two shoe rotations.

    @property
    def base_rotation(self):
        return self.element.matrix[:3, :3]

    @property
    def base_position(self):
        return self.element.matrix[:3, _COL_P]

    @property
    def base_velocity(self):
        return self.element.matrix[:3, _COL_V]

    @property
    def base_pose(self):
        return G._trusted_se3(self.base_rotation, self.base_position)

    def vertex_position(self, i):
        _vslot(i)
        return self.element.matrix[:3, _COL_D0 + i]

    @property
    def angular_velocity(self):
        return self.element.matrix[_ROW_W:_ROW_W + 3, _COL_W_ONE]

    def foot_rotation(self, side):
        i = _ROW_Z if side == "left" else _ROW_Z + 3
        return self.element.matrix[i:i + 3, i:i + 3]


def human_initial_state(base_pose, velocity, vertex_positions,
                        angular_velocity, left_foot_rotation,
                        right_foot_rotation,
                        noise: NoiseConfig = HUMAN_NOISE) -> HumanEkfState:
    vertices = [np.asarray(v, float).reshape(3) for v in vertex_positions]
    if len(vertices) != N_VERTICES:
        raise G.InvalidArgumentError(f"need {N_VERTICES} vertex positions")
    r = base_pose.matrix[:3, :3]
    cols = [G.se3_translation(base_pose),
            np.asarray(velocity, float).reshape(3)] + vertices
    core = G.sek3_element(r, cols)
    element = G.composite_element(_TAG, [
        core, G.tn_element(np.asarray(angular_velocity, float).reshape(3)),
        G.so3_element(left_foot_rotation), G.so3_element(right_foot_rotation)])
    stds = np.concatenate([
        np.full(3, noise.prior_position), np.full(3, noise.prior_rotation),
        np.full(3, noise.prior_velocity),
        np.full(24, noise.prior_position),
        np.full(3, noise.prior_velocity),
        np.full(6, noise.prior_rotation)])
    return HumanEkfState(element, np.diag(stds ** 2))


def human_ekf_predict(state, dt, noise: NoiseConfig = HUMAN_NOISE,
                      contacts=None) -> HumanEkfState:
    """Constant-velocity prediction with first-order covariance propagation.

    contacts optionally maps "left"/"right" to booleans; a swinging shoe
    gets its contact-point and orientation noise inflated so the next
    stance measurements can re-seat it.
    """
    if dt <= 0.0:
        raise G.InvalidArgumentError("dt must be positive")
    r, p, v = state.base_rotation, state.base_position, state.base_velocity
    w = state.angular_velocity
    # only the base rotation and position move; the rest is copied
    m = state.element.matrix.copy()
    m[:3, :3] = r @ G.exp(G.TangentVector(G.SO3, w * dt)).matrix
    m[:3, _COL_P] = p + v * dt
    mean = G._trusted_element(_TAG, m)

    f_c = np.zeros((_DIM, _DIM))
    f_c[_P, _V] = np.eye(3)
    f_c[_P, _W] = G.skew(p) @ r
    f_c[_R, _W] = r
    f_c[_V, _W] = G.skew(v) @ r
    for i in range(N_VERTICES):
        f_c[_vslot(i), _W] = G.skew(state.vertex_position(i)) @ r

    q_c = np.zeros((_DIM, _DIM))
    q_c[_V, _V] = noise.base_linear_rate ** 2 * np.eye(3)
    q_c[_W, _W] = noise.base_angular_rate ** 2 * np.eye(3)
    vert_cov = noise.foot_linear ** 2 * np.eye(3)
    scales = {"left": 1.0, "right": 1.0}
    if contacts is not None:
        for side in scales:
            if not contacts.get(side, False):
                scales[side] = noise.swing_scale ** 2
    for i in range(N_VERTICES):
        side = "left" if i < 4 else "right"
        q_c[_vslot(i), _vslot(i)] = scales[side] * vert_cov
    q_c[_ZL, _ZL] = scales["left"] * noise.foot_angular ** 2 * np.eye(3)
    q_c[_ZR, _ZR] = scales["right"] * noise.foot_angular ** 2 * np.eye(3)
    adj = G.adjoint(state.element)
    q_hat = adj @ q_c @ adj.T
    f_k = np.eye(_DIM) + f_c * dt
    cov = f_k @ state.covariance @ f_k.T + f_k @ (q_hat * dt) @ f_k.T
    return HumanEkfState(mean, (cov + cov.T) / 2.0)


def _invariant_update(state, z, b, h, n, side, rows, gate=None):
    """Raw-column update; 'left'-side observations transport the covariance
    into the local frame and back."""
    selector = np.zeros((3, _MDIM))
    selector[:, rows] = np.eye(3)
    cov = state.covariance
    if side == "left":
        cov = U.transport_covariance(cov, state.element,
                                     U.TransportDirection.LEFT_TO_RIGHT)
    belief = FC.invekf_update(FC.BeliefState(state.element, cov), z, b, h, n,
                              side, selector=selector, gate=gate)
    cov = belief.covariance
    if side == "left":
        cov = U.transport_covariance(cov, belief.mean,
                                     U.TransportDirection.RIGHT_TO_LEFT)
    return HumanEkfState(belief.mean, cov)


def human_update_relative_contact_position(state, vertex, rel_position,
                                           covariance, gate=None):
    """Contact-point position seen from the base via joint kinematics.

    rel_position is the base-frame vector to vertex i; covariance is its
    base-frame noise (typically the joint noise through the position rows of
    the relative Jacobian). vertex may also be a sequence of indices; then
    rel_position and covariance hold one 3-vector and one 3x3 matrix per
    vertex, and all of them go into one stacked update.
    """
    verts, single = _vertex_list(vertex)
    m = len(verts)
    rel = np.asarray(rel_position, float).reshape(m, 3)
    covs = np.asarray(covariance, float).reshape(m, 3, 3)
    b = np.zeros((m, _MDIM))
    b[:, _COL_P] = 1.0
    b[np.arange(m), _COL_D0 + verts] = -1.0
    z = b.copy()
    z[:, 0:3] = rel
    h = np.zeros((3 * m, _DIM))
    n = np.zeros((3 * m, 3 * m))
    r = state.base_rotation
    for j, v in enumerate(verts):
        rows = slice(3 * j, 3 * j + 3)
        h[rows, _P] = np.eye(3)
        h[rows, _vslot(v)] = -np.eye(3)
        n[rows, rows] = r @ covs[j] @ r.T + 1e-12 * np.eye(3)
    if single:
        z, b = z[0], b[0]
    return _invariant_update(state, z, b, h, n, "right", slice(0, 3), gate)


def human_update_zupt_linear(state, body_velocity, covariance, gate=None):
    """Zero-velocity information expressed as the measured body-frame base
    velocity (zero during flat-foot contact)."""
    b = np.zeros(_MDIM)
    b[_COL_V] = -1.0
    z = b.copy()
    z[0:3] = np.asarray(body_velocity, float).reshape(3)
    h = np.zeros((3, _DIM))
    h[:, _V] = -np.eye(3)
    r = state.base_rotation
    n = r @ np.asarray(covariance, float) @ r.T + 1e-12 * np.eye(3)
    return _invariant_update(state, z, b, h, n, "right", slice(0, 3), gate)


def human_update_zupt_angular(state, body_angular_velocity, covariance,
                              gate=None):
    """Angular-rate pseudo-measurement (zero during flat-foot contact)."""
    b = np.zeros(_MDIM)
    b[_COL_W_ONE] = 1.0
    z = b.copy()
    z[_ROW_W:_ROW_W + 3] = -np.asarray(body_angular_velocity, float).reshape(3)
    h = np.zeros((3, _DIM))
    h[:, _W] = np.eye(3)
    n = np.asarray(covariance, float)
    return _invariant_update(state, z, b, h, n, "right",
                             slice(_ROW_W, _ROW_W + 3), gate)


def human_update_base_gyro(state, gyro_in_base, covariance, gate=None):
    """Direct measurement of the angular-rate state from the base IMU."""
    b = np.zeros(_MDIM)
    b[_COL_W_ONE] = 1.0
    z = b.copy()
    z[_ROW_W:_ROW_W + 3] = np.asarray(gyro_in_base, float).reshape(3)
    h = np.zeros((3, _DIM))
    h[:, _W] = -np.eye(3)
    n = np.asarray(covariance, float)
    return _invariant_update(state, z, b, h, n, "left",
                             slice(_ROW_W, _ROW_W + 3), gate)


def human_update_terrain_height(state, vertex, height,
                                noise: NoiseConfig = HUMAN_NOISE,
                                invariant=True, gate=None):
    """Snap a contact point's height to a known ground elevation.

    Only the vertical component is informative; the horizontal components
    are copied from the estimate and carry inflated noise. The invariant
    flag switches between the body-frame update (with covariance transport)
    and the plain world-frame one. In the invariant form vertex may also be
    a sequence of indices with one height each; all of them go into one
    stacked update, which transports the covariance once each way.
    """
    verts, single = _vertex_list(vertex)
    heights = np.asarray(height, float).reshape(len(verts))
    cov = np.diag([1e6 * noise.terrain_height ** 2,
                   1e6 * noise.terrain_height ** 2,
                   noise.terrain_height ** 2])
    if invariant:
        m = len(verts)
        b = np.zeros((m, _MDIM))
        b[np.arange(m), _COL_D0 + verts] = 1.0
        z = b.copy()
        z[:, 0:2] = state.element.matrix[0:2, _COL_D0 + verts].T
        z[:, 2] = heights
        h = np.zeros((3 * m, _DIM))
        for j, v in enumerate(verts):
            h[3 * j:3 * j + 3, _vslot(v)] = -np.eye(3)
        r = state.base_rotation
        n = np.kron(np.eye(m), r.T @ cov @ r)
        if single:
            z, b = z[0], b[0]
        return _invariant_update(state, z, b, h, n, "left", slice(0, 3), gate)
    if not single:
        raise G.InvalidArgumentError(
            "the non-invariant terrain update takes one vertex")
    vertex = verts[0]
    d_hat = state.vertex_position(vertex)
    target = np.array([d_hat[0], d_hat[1], heights[0]])
    h = np.zeros((3, _DIM))
    h[:, _R] = -G.skew(d_hat)
    h[:, _vslot(vertex)] = np.eye(3)
    belief = FC.dlgekf_update(
        FC.BeliefState(state.element, state.covariance),
        G.tn_element(d_hat), G.tn_element(target), h, cov, side="left",
        gate=gate)
    return HumanEkfState(belief.mean, belief.covariance)


def human_update_relative_foot_rotation(state, side, measured_rotation,
                                        covariance, gate=None):
    """Base-to-shoe orientation from joint kinematics, as a rotation-group
    measurement."""
    z_f = state.foot_rotation(side)
    r = state.base_rotation
    h = np.zeros((3, _DIM))
    h[:, _R] = -z_f.T
    h[:, _ZL if side == "left" else _ZR] = z_f.T
    n = np.asarray(covariance, float) + 1e-12 * np.eye(3)
    belief = FC.dlgekf_update(
        FC.BeliefState(state.element, state.covariance),
        G.so3_element(r.T @ z_f), G.so3_element(measured_rotation), h, n,
        side="left", gate=gate)
    return HumanEkfState(belief.mean, belief.covariance)


def human_update_contact_plane(state, side, plane_rotation, covariance,
                               gate=None):
    """World orientation of the contact surface under a flat-foot shoe."""
    z_f = state.foot_rotation(side)
    h = np.zeros((3, _DIM))
    h[:, _ZL if side == "left" else _ZR] = z_f.T
    belief = FC.dlgekf_update(
        FC.BeliefState(state.element, state.covariance), G.so3_element(z_f),
        G.so3_element(plane_rotation), h, np.asarray(covariance, float),
        side="left", gate=gate)
    return HumanEkfState(belief.mean, belief.covariance)


def vertex_position_measurement(chain, joint_positions, vertex_frame,
                                noise: NoiseConfig = HUMAN_NOISE, poses=None,
                                pose=None):
    """Relative base-to-vertex position and its base-frame covariance;
    poses, when given, is chain.link_poses(joint_positions), and pose is
    the base-to-vertex_frame relative_fk result."""
    from .. import kinematics as K
    if poses is None:
        poses = chain.link_poses(joint_positions)
    if pose is None:
        pose = K.relative_fk(chain, joint_positions, chain.base_link,
                             vertex_frame, poses)
    jac = K.relative_jacobian_left_trivialized(
        chain, joint_positions, chain.base_link, vertex_frame, poses)
    rot = pose.matrix[:3, :3]
    j_lin = rot @ jac[:3]  # base-frame position rows
    cov = noise.joint_position ** 2 * (j_lin @ j_lin.T) + 1e-12 * np.eye(3)
    return G.se3_translation(pose), cov
