"""Minimal rigid-multibody layer for floating-base chains.

Revolute-joint trees only; fixed attachments are modeled as sensor frames
(a link plus a constant offset). Provides forward kinematics, relative and
free-floating Jacobians, foot-anchored odometry, contact-constrained base
velocity, a regularized weighted least-squares fuser, and a velocity-level
inverse-kinematics step.

Every function that needs the link poses of a joint vector s takes an
optional ``poses``: the result of ``chain.link_poses(s)``, computed once by
the caller and shared by all the kinematics of one encoder sample. When it
is omitted the function computes it itself.

Twist conventions, linear components first:

  * left-trivialized: hat(V) = H^-1 dH/dt (body-frame linear and angular).
  * mixed: (dp/dt in world coordinates, world angular rate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import groups as G


class SingularNormalEquations(G.LieGroupError):
    pass


@dataclass(frozen=True)
class Joint:
    name: str
    parent: str
    child: str
    axis: np.ndarray
    origin: G.GroupElement  # parent link to joint frame, at zero angle

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float).reshape(3)
        if abs(np.linalg.norm(a) - 1.0) > 1e-9:
            raise G.InvalidArgumentError(f"joint {self.name}: axis must be unit")
        object.__setattr__(self, "axis", a)
        if self.origin.tag != G.SE3:
            raise G.InvalidArgumentError("joint origin must be a rigid transform")


@dataclass(frozen=True)
class SensorFrame:
    name: str
    link: str
    origin: G.GroupElement  # link to frame


@dataclass(frozen=True)
class JointState:
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, dtype=float).reshape(-1))
        object.__setattr__(self, "velocities",
                           np.asarray(self.velocities, dtype=float).reshape(-1))
        if self.positions.shape != self.velocities.shape:
            raise G.InvalidArgumentError("positions/velocities length mismatch")


class KinematicChain:
    """Immutable tree of links connected by revolute joints."""

    def __init__(self, links, joints, base_link, sensor_frames=()):
        self.links = list(links)
        self.joints = list(joints)
        self.base_link = base_link
        self.sensor_frames = {f.name: f for f in sensor_frames}
        if base_link not in self.links:
            raise G.InvalidArgumentError(f"unknown base link {base_link!r}")
        parent_joint = {}
        for j in self.joints:
            if j.parent not in self.links or j.child not in self.links:
                raise G.InvalidArgumentError(f"joint {j.name}: unknown link")
            if j.child in parent_joint or j.child == base_link:
                raise G.InvalidArgumentError("chain is not a tree")
            parent_joint[j.child] = j
        for link in self.links:
            node, seen = link, set()
            while node != base_link:
                if node not in parent_joint or node in seen:
                    raise G.InvalidArgumentError(f"link {link!r} unreachable from base")
                seen.add(node)
                node = parent_joint[node].parent
        for f in self.sensor_frames.values():
            if f.link not in self.links:
                raise G.InvalidArgumentError(f"sensor frame {f.name}: unknown link")
            if f.name in self.links:
                raise G.InvalidArgumentError(f"frame name {f.name!r} shadows a link")
        self._parent_joint = parent_joint
        self._joint_index = {j.name: i for i, j in enumerate(self.joints)}
        # Parent-first joint order, and per joint the Rodrigues terms of
        # origin * rot(axis, theta) = O + sin(theta) O K + (1 - cos(theta)) O K^2
        # with K = skew(axis), embedded as 4x4 matrices.
        children = {}
        for j in self.joints:
            children.setdefault(j.parent, []).append(j)
        order, frontier = [], [base_link]
        while frontier:
            for j in children.get(frontier.pop(0), ()):
                order.append(j)
                frontier.append(j.child)
        self._fk_links = [(j.parent, j.child) for j in order]
        self._fk_index = np.array([self._joint_index[j.name] for j in order],
                                  dtype=int)
        origin = np.array([j.origin.matrix for j in order]).reshape(-1, 4, 4)
        k = np.array([G.skew(j.axis) for j in order]).reshape(-1, 3, 3)
        self._fk_origin = origin
        self._fk_sin = np.zeros_like(origin)
        self._fk_sin[:, :3, :3] = origin[:, :3, :3] @ k
        self._fk_vers = np.zeros_like(origin)
        self._fk_vers[:, :3, :3] = origin[:, :3, :3] @ (k @ k)
        self._paths = {}

    @property
    def dof(self):
        return len(self.joints)

    def frame_link(self, frame):
        """The link a frame is attached to, and the fixed link-to-frame offset."""
        if frame in self.sensor_frames:
            f = self.sensor_frames[frame]
            return f.link, f.origin
        if frame in self.links:
            return frame, G.identity(G.SE3)
        raise G.InvalidArgumentError(f"unknown frame {frame!r}")

    def _check_positions(self, s):
        s = np.asarray(s, dtype=float).reshape(-1)
        if s.shape != (self.dof,):
            raise G.InvalidArgumentError(
                f"expected {self.dof} joint positions, got {s.shape[0]}")
        return s

    def link_poses(self, s):
        """Pose of every link relative to the base link, as a dict.

        One 4x4 product per joint, parent first; the joint rotations come
        from Rodrigues' formula on the precomputed axis generators.
        """
        s = self._check_positions(s)
        theta = s[self._fk_index][:, None, None]
        local = (self._fk_origin + np.sin(theta) * self._fk_sin
                 + (1.0 - np.cos(theta)) * self._fk_vers)
        poses = {self.base_link: G.identity(G.SE3)}
        for (parent, child), m in zip(self._fk_links, local):
            poses[child] = G._trusted_element(G.SE3, poses[parent].matrix @ m)
        return poses

    def frame_pose(self, s, frame, poses=None):
        """Pose of a frame relative to the base link; poses, when given, is
        link_poses(s)."""
        link, offset = self.frame_link(frame)
        poses = poses if poses is not None else self.link_poses(s)
        return G.compose(poses[link], offset)

    def _path(self, link_from, link_to):
        """The joints on the tree path, as (child links, axes (n, 3, 1),
        signs (n, 1), Jacobian columns). The sign is +1 for a joint walked
        parent-to-child. Built once per pair of links."""
        path = self._paths.get((link_from, link_to))
        if path is not None:
            return path

        def chain_to_base(link):
            out = []
            while link != self.base_link:
                j = self._parent_joint[link]
                out.append(j)
                link = j.parent
            return out
        up_from = chain_to_base(link_from)
        up_to = chain_to_base(link_to)
        names_from = {j.name for j in up_from}
        names_to = {j.name for j in up_to}
        joints = [(j, -1.0) for j in up_from if j.name not in names_to]
        joints += [(j, +1.0) for j in up_to if j.name not in names_from]
        path = ([j.child for j, _ in joints],
                np.array([j.axis for j, _ in joints]).reshape(-1, 3, 1),
                np.array([sign for _, sign in joints]).reshape(-1, 1),
                np.array([self._joint_index[j.name] for j, _ in joints],
                         dtype=int))
        self._paths[(link_from, link_to)] = path
        return path


def load_chain(source) -> KinematicChain:
    """Build a chain from a JSON file path, file object, or parsed dict.

    Transforms are 7 numbers: x y z qw qx qy qz.
    """
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    def xform(seven):
        seven = np.asarray(seven, dtype=float).reshape(7)
        rot = G.quaternion_to_rotation(seven[3:])
        return G.se3_element(rot, seven[:3])
    joints = [Joint(j["name"], j["parent"], j["child"], j["axis"],
                    xform(j["origin"])) for j in data.get("joints", [])]
    frames = [SensorFrame(f["name"], f["link"], xform(f["origin"]))
              for f in data.get("sensor_frames", [])]
    return KinematicChain(data["links"], joints, data["base"], frames)


def joint_transform(axis, theta) -> G.GroupElement:
    """Pure rotation by theta about a unit axis, zero translation.

    Rodrigues' formula R = I + sin(theta) K + (1 - cos(theta)) K^2 with
    K = skew(axis).
    """
    axis = np.asarray(axis, dtype=float).reshape(3)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise G.InvalidArgumentError("joint axis must be unit")
    k = G.skew(axis)
    m = np.eye(4)
    m[:3, :3] += math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)
    return G._trusted_element(G.SE3, m)


def relative_fk(chain, s, frame_from, frame_to,
                poses=None) -> G.GroupElement:
    """Pose of frame_to expressed in frame_from; poses, when given, is
    chain.link_poses(s)."""
    if poses is None:
        poses = chain.link_poses(s)
    a = chain.frame_pose(s, frame_from, poses)
    b = chain.frame_pose(s, frame_to, poses)
    return G.compose(G.inverse(a), b)


# (p x w)_i = p[A_i] w[B_i] - p[B_i] w[A_i]
_CROSS_A = np.array([1, 2, 0])
_CROSS_B = np.array([2, 0, 1])


def relative_jacobian_left_trivialized(chain, s, frame_from, frame_to,
                                       poses=None):
    """6 x dof map from joint rates to the left-trivialized relative twist.

    hat(J s_dot) = H^-1 dH/dt for H the frame_from-to-frame_to pose. Column
    j is the joint's rotation generator carried to the target frame, with a
    sign from the walking direction along the tree path. poses, when given,
    is chain.link_poses(s).
    """
    if poses is None:
        poses = chain.link_poses(s)
    target_inv = G.inverse(chain.frame_pose(s, frame_to, poses))
    link_from, _ = chain.frame_link(frame_from)
    link_to, _ = chain.frame_link(frame_to)
    children, axes, signs, columns = chain._path(link_from, link_to)
    jac = np.zeros((6, chain.dof))
    if columns.size:
        # Ad(rel) (0, a) = (p x R a, R a) for rel = (R, p), all joints at once
        rel = target_inv.matrix @ np.array([poses[c].matrix for c in children])
        w = (rel[:, :3, :3] @ axes)[:, :, 0]
        p = rel[:, :3, 3]
        v = p[:, _CROSS_A] * w[:, _CROSS_B] - p[:, _CROSS_B] * w[:, _CROSS_A]
        jac[:3, columns] = (signs * v).T
        jac[3:, columns] = (signs * w).T
    return jac


def _twice(r):
    """6x6 block diagonal diag(r, r)."""
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[3:, 3:] = r
    return out


def mixed_jacobian(chain, s, base_pose, frame, poses=None):
    """6 x (6 + dof) free-floating Jacobian in the mixed convention.

    Maps (mixed base twist, joint rates) to the frame's mixed twist. The
    linear rows differentiate the world position of the frame origin.
    poses, when given, is chain.link_poses(s).
    """
    if poses is None:
        poses = chain.link_poses(s)
    r_base = base_pose.matrix[:3, :3]
    frame_in_base = chain.frame_pose(s, frame, poses)
    r_frame = r_base @ frame_in_base.matrix[:3, :3]
    mixed_to_left = _twice(r_base.T)
    left_to_mixed = _twice(r_frame)
    base_block = G.adjoint(G.inverse(frame_in_base)) @ mixed_to_left
    joint_block = relative_jacobian_left_trivialized(
        chain, s, chain.base_link, frame, poses)
    return left_to_mixed @ np.hstack([base_block, joint_block])


@dataclass(frozen=True)
class OdometryState:
    fixed_frame: str
    fixed_pose: G.GroupElement
    base_pose: G.GroupElement


def odometry_start(chain, s, fixed_frame, base_pose,
                   poses=None) -> OdometryState:
    """Anchor odometry at a contact frame given the current base pose;
    poses, when given, is chain.link_poses(s)."""
    fixed = G.compose(base_pose, relative_fk(chain, s, chain.base_link,
                                             fixed_frame, poses))
    return OdometryState(fixed_frame, fixed, base_pose)


def odometry_update(state, chain, s, contact_switch=None,
                    poses=None) -> OdometryState:
    """Recompute the base pose from the anchored frame; optionally re-anchor.

    On a switch the new anchor pose is composed through the current shape, so
    a coincident switch leaves the base pose untouched. poses, when given, is
    chain.link_poses(s).
    """
    if poses is None:
        poses = chain.link_poses(s)
    fixed_frame, fixed_pose = state.fixed_frame, state.fixed_pose
    if contact_switch is not None and contact_switch != fixed_frame:
        chain.frame_link(contact_switch)
        fixed_pose = G.compose(
            fixed_pose, relative_fk(chain, s, fixed_frame, contact_switch,
                                    poses))
        fixed_frame = contact_switch
    base = G.compose(fixed_pose,
                     relative_fk(chain, s, fixed_frame, chain.base_link,
                                 poses))
    return OdometryState(fixed_frame, fixed_pose, base)


def base_velocity_from_contact(chain, s, s_dot, stance_frame, base_pose,
                               poses=None):
    """Mixed base twist implied by a stationary stance frame; poses, when
    given, is chain.link_poses(s)."""
    s_dot = np.asarray(s_dot, dtype=float).reshape(-1)
    jac = mixed_jacobian(chain, s, base_pose, stance_frame, poses)
    return -np.linalg.solve(jac[:, :6], jac[:, 6:] @ s_dot)


def fused_base_velocity(constraints, regularizer=None, size=None):
    """Regularized weighted least squares over stacked velocity constraints.

    Each constraint supplies rows A, a target y, and a weight (scalar or
    matrix W). Solves (sum A^T W A + D) x = sum A^T W y for the damping
    matrix D (default 1e-6 I).
    """
    if len(constraints) == 0:
        raise G.InvalidArgumentError("need at least one constraint")
    first = np.atleast_2d(np.asarray(constraints[0]["rows"], dtype=float))
    n = size if size is not None else first.shape[1]
    normal = np.zeros((n, n))
    rhs = np.zeros(n)
    for c in constraints:
        a = np.atleast_2d(np.asarray(c["rows"], dtype=float))
        y = np.asarray(c["target"], dtype=float).reshape(-1)
        w = c.get("weight", 1.0)
        w = np.asarray(w, dtype=float)
        if w.ndim == 0:
            w = float(w) * np.eye(a.shape[0])
        normal += a.T @ w @ a
        rhs += a.T @ w @ y
    if regularizer is None:
        normal += 1e-6 * np.eye(n)
    else:
        reg = np.asarray(regularizer, dtype=float)
        normal += float(reg) * np.eye(n) if reg.ndim == 0 else reg
    try:
        x = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularNormalEquations("normal equations are singular") from e
    if not np.all(np.isfinite(x)):
        raise SingularNormalEquations("normal equations are singular")
    return x


def rotating_foot_velocity(foot_gyro, contact_point, foot_rotation):
    """Mixed twist of a foot pivoting about a stationary contact point.

    foot_gyro is the local angular rate, contact_point the pivot in the foot
    frame, foot_rotation the world orientation estimate of the foot.
    """
    w = np.asarray(foot_gyro, dtype=float).reshape(3)
    p = np.asarray(contact_point, dtype=float).reshape(3)
    r = foot_rotation.matrix[:3, :3] if isinstance(
        foot_rotation, G.GroupElement) else np.asarray(foot_rotation, float)
    return np.concatenate([r @ (G.skew(p) @ w), r @ w])


@dataclass(frozen=True)
class IkTarget:
    frame: str
    position: np.ndarray = None
    rotation: np.ndarray = None  # 3x3 target orientation
    linear_velocity: np.ndarray = None
    angular_velocity: np.ndarray = None
    gain: float = 1.0
    weight: float = 1.0


@dataclass(frozen=True)
class DynIkState:
    base_pose: G.GroupElement
    joint_positions: np.ndarray
    velocity: np.ndarray  # mixed base twist stacked with joint rates


def dynik_step(chain, state, targets, dt, damping=1e-6,
               joint_limits=None) -> DynIkState:
    """One velocity-level inverse-kinematics integration step.

    Builds pose/orientation residuals against the targets, forms corrected
    velocities v* = v + gain * r, solves for the system velocity with a
    regularized weighted pseudo-inverse, then integrates: Euclidean slots by
    explicit Euler and the base rotation on the rotation group.
    """
    if dt <= 0.0:
        raise G.InvalidArgumentError("dt must be positive")
    s = np.asarray(state.joint_positions, dtype=float)
    poses = chain.link_poses(s)
    constraints = []
    for t in targets:
        jac = mixed_jacobian(chain, s, state.base_pose, t.frame, poses)
        world = G.compose(state.base_pose,
                          relative_fk(chain, s, chain.base_link, t.frame,
                                      poses))
        rows, target = [], []
        if t.position is not None:
            r_p = np.asarray(t.position, float) - G.se3_translation(world)
            v = np.zeros(3) if t.linear_velocity is None else np.asarray(
                t.linear_velocity, float)
            rows.append(jac[:3])
            target.append(v + t.gain * r_p)
        if t.rotation is not None:
            r_now = world.matrix[:3, :3]
            r_err = G.logvee(G.so3_element(r_now.T @ np.asarray(t.rotation, float)))
            w = np.zeros(3) if t.angular_velocity is None else np.asarray(
                t.angular_velocity, float)
            # residual is body-frame; lift to the world frame of mixed rates
            rows.append(jac[3:])
            target.append(w + t.gain * (r_now @ r_err))
        if rows:
            constraints.append({"rows": np.vstack(rows),
                                "target": np.concatenate(target),
                                "weight": t.weight})
    nu = fused_base_velocity(constraints, regularizer=damping * np.eye(6 + chain.dof),
                             size=6 + chain.dof)
    p_new = G.se3_translation(state.base_pose) + dt * nu[:3]
    rot_step = G.exp(G.TangentVector(G.SO3, dt * nu[3:6]))
    r_new = rot_step.matrix @ state.base_pose.matrix[:3, :3]
    s_new = s + dt * nu[6:]
    if joint_limits is not None:
        lo, hi = joint_limits
        s_new = np.clip(s_new, lo, hi)
    return DynIkState(G.se3_element(r_new, p_new), s_new, nu)
