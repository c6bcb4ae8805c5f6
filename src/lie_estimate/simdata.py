"""Synthetic walking data for desk-scale validation of the estimators.

A planar biped (two three-pitch-joint legs) walks forward on flat ground.
The base keeps an identity orientation and its translation is integrated
with a zero-order hold on per-sample accelerations, so a filter using the
same integrator replays the truth exactly when fed noise-free sensors.
Stance feet are pinned bit-exactly; swing feet follow a smooth lift-and-
advance profile, and leg joints track everything through closed-form
two-link inverse kinematics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import contact as C
from . import groups as G
from . import kinematics as K

GRAVITY = np.array([0.0, 0.0, -9.80665])
DEFAULT_RATE = 100.0


def walker_chain() -> K.KinematicChain:
    """The sagittal biped used by the generator: per leg a hip, knee, and
    ankle pitch, thigh and shank 0.35 m, sole 0.05 m under the ankle."""
    joints = []
    links = ["pelvis"]
    for side, sign in (("left", 1.0), ("right", -1.0)):
        links += [f"{side}_thigh", f"{side}_shank", f"{side}_foot"]
        joints.append(dict(name=f"{side}_hip", parent="pelvis",
                           child=f"{side}_thigh", axis=[0, 1, 0],
                           origin=[0, sign * 0.1, 0, 1, 0, 0, 0]))
        joints.append(dict(name=f"{side}_knee", parent=f"{side}_thigh",
                           child=f"{side}_shank", axis=[0, 1, 0],
                           origin=[0, 0, -0.35, 1, 0, 0, 0]))
        joints.append(dict(name=f"{side}_ankle", parent=f"{side}_shank",
                           child=f"{side}_foot", axis=[0, 1, 0],
                           origin=[0, 0, -0.35, 1, 0, 0, 0]))
    frames = [dict(name="left_sole", link="left_foot",
                   origin=[0, 0, -0.05, 1, 0, 0, 0]),
              dict(name="right_sole", link="right_foot",
                   origin=[0, 0, -0.05, 1, 0, 0, 0])]
    return K.load_chain(dict(links=links, base="pelvis", joints=joints,
                             sensor_frames=frames))


@dataclass(frozen=True)
class WalkProfile:
    step_length: float = 0.1
    step_period: float = 0.8
    duration: float = 10.0
    rate: float = DEFAULT_RATE
    double_support_fraction: float = 0.4
    foot_lift: float = 0.04
    base_height: float = 0.65
    chain: K.KinematicChain = None

    def __post_init__(self):
        if (self.step_length < 0 or self.step_period <= 0
                or self.duration <= 0 or self.rate <= 0
                or not 0.0 < self.double_support_fraction < 1.0):
            raise G.InvalidArgumentError("invalid walk profile")
        if self.chain is None:
            object.__setattr__(self, "chain", walker_chain())


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    base_pose: G.GroupElement
    base_twist: np.ndarray          # mixed: (linear, angular)
    joint_state: K.JointState
    foot_poses: dict                # side -> SE(3) sole pose in the world
    contacts: dict                  # side -> bool
    base_acceleration: np.ndarray = field(default=None)


@dataclass(frozen=True)
class Trajectory:
    samples: list
    dt: float
    chain: K.KinematicChain

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def _leg_geometry(chain, side):
    by_name = {j.name: j for j in chain.joints}
    hip = by_name[f"{side}_hip"].origin.matrix[:3, 3]
    thigh = abs(by_name[f"{side}_knee"].origin.matrix[2, 3])
    shank = abs(by_name[f"{side}_ankle"].origin.matrix[2, 3])
    sole = abs(chain.frame_link(f"{side}_sole")[1].matrix[2, 3]) \
        if hasattr(chain, "frame_link") else 0.05
    return hip, thigh, shank, sole


def _leg_ik(target_in_base, hip, l1, l2):
    """Pitch angles (hip, knee, ankle) placing the ankle at target_in_base
    with a flat foot. Raises when the point is out of reach."""
    ax = target_in_base[0] - hip[0]
    az = target_in_base[2] - hip[2]
    r = np.hypot(ax, az)
    if r > l1 + l2 - 1e-9 or r < abs(l1 - l2) + 1e-9:
        raise G.InvalidArgumentError("foot target out of reach")
    cos_knee = (r * r - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    knee = np.arccos(np.clip(cos_knee, -1.0, 1.0))
    psi = np.arctan2(-ax, -az)
    hip_pitch = psi - np.arctan2(l2 * np.sin(knee), l1 + l2 * np.cos(knee))
    ankle = -(hip_pitch + knee)
    return hip_pitch, knee, ankle


def _minjerk(tau):
    tau = np.clip(tau, 0.0, 1.0)
    return 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5


def generate_walk(profile: WalkProfile, seed=0) -> Trajectory:
    """Ground-truth walk: alternating single and double support, stance feet
    exactly stationary, base advancing one step length per gait period."""
    chain = profile.chain
    dt = 1.0 / profile.rate
    n = int(round(profile.duration * profile.rate))
    s_len, period = profile.step_length, profile.step_period
    n_periods = 0 if s_len == 0 else int(profile.duration // period)
    ds_half = profile.double_support_fraction / 2.0

    hips = {side: _leg_geometry(chain, side)[0] for side in ("left", "right")}
    _, l1, l2, sole_off = _leg_geometry(chain, "left")

    # forward velocity: raised cosine per period, zero in the remainder
    def base_velocity(t):
        k = int(t // period) if period > 0 else 0
        if s_len == 0 or k >= n_periods:
            return 0.0
        tau = (t - k * period) / period
        return (s_len / period) * (1.0 - np.cos(2.0 * np.pi * tau))

    # foot waypoints: the swing target keeps the feet symmetric about the
    # base position scheduled for the end of the period
    foot_x = {"left": 0.0, "right": 0.0}
    plans = []  # per period: (swing side, x from, x to)
    for i in range(1, n_periods + 1):
        side = "left" if i % 2 == 1 else "right"
        stance = "right" if side == "left" else "left"
        x_to = 2.0 * i * s_len - foot_x[stance]
        plans.append((side, foot_x[side], x_to))
        foot_x[side] = x_to

    joint_order = [j.name for j in chain.joints]

    samples = []
    p = np.zeros(3)
    p[2] = profile.base_height
    v_prev = base_velocity(0.0)
    q_list = []
    foot_state = {"left": np.array([0.0, hips["left"][1], 0.0]),
                  "right": np.array([0.0, hips["right"][1], 0.0])}
    for k in range(n):
        t = k * dt
        idx = int(t // period) if period > 0 else 0
        in_gait = s_len > 0 and idx < n_periods
        tau = (t - idx * period) / period if in_gait else 0.0
        contacts = {"left": True, "right": True}
        feet = {side: foot_state[side].copy() for side in foot_state}
        if in_gait:
            side, x_from, x_to = plans[idx]
            if ds_half < tau < 1.0 - ds_half:
                sw = (tau - ds_half) / (1.0 - 2.0 * ds_half)
                contacts[side] = False
                feet[side][0] = x_from + (x_to - x_from) * _minjerk(sw)
                feet[side][2] = profile.foot_lift * np.sin(np.pi * sw)
            elif tau >= 1.0 - ds_half:
                foot_state[side][0] = x_to
                feet[side] = foot_state[side].copy()

        vx = base_velocity(t)
        vx_next = base_velocity((k + 1) * dt)
        accel = np.array([(vx_next - vx) / dt, 0.0, 0.0])
        twist = np.array([vx, 0.0, 0.0, 0.0, 0.0, 0.0])

        q = np.zeros(chain.dof)
        foot_poses = {}
        for side in ("left", "right"):
            ankle_target = feet[side] + np.array([0.0, 0.0, sole_off]) - p
            hp, kn, an = _leg_ik(ankle_target, hips[side], l1, l2)
            for name, val in ((f"{side}_hip", hp), (f"{side}_knee", kn),
                              (f"{side}_ankle", an)):
                q[joint_order.index(name)] = val
            foot_poses[side] = G._trusted_se3(np.eye(3), feet[side])
        q_list.append(q)
        samples.append(dict(t=t, p=p.copy(), twist=twist, accel=accel, q=q,
                            feet=foot_poses, contacts=contacts))
        p = p + np.array([vx, 0.0, 0.0]) * dt + 0.5 * accel * dt * dt

    out = []
    for k, raw in enumerate(samples):
        q_prev = q_list[max(k - 1, 0)]
        q_next = q_list[min(k + 1, n - 1)]
        span = dt * (min(k + 1, n - 1) - max(k - 1, 0))
        qd = (q_next - q_prev) / span if span > 0 else np.zeros(chain.dof)
        out.append(TrajectorySample(
            t=raw["t"],
            base_pose=G._trusted_se3(np.eye(3), raw["p"]),
            base_twist=raw["twist"],
            joint_state=K.JointState(raw["q"], qd),
            foot_poses=raw["feet"],
            contacts=raw["contacts"],
            base_acceleration=raw["accel"]))
    return Trajectory(out, dt, chain)


def emulate_imu(trajectory, noise=None, seed=0):
    """Accelerometer and gyro stream: specific force in the body frame plus
    a bias random walk and white noise; exact ZOH accelerations are used
    when the trajectory carries them, central differences otherwise."""
    rng = np.random.default_rng(seed)
    dt = trajectory.dt
    sigma_a = getattr(noise, "accel", 0.0)
    sigma_g = getattr(noise, "gyro", 0.0)
    sigma_ba = getattr(noise, "accel_bias", 0.0)
    sigma_bg = getattr(noise, "gyro_bias", 0.0)
    b_a = np.zeros(3)
    b_g = np.zeros(3)
    records = []
    n = len(trajectory)
    for k, sample in enumerate(trajectory):
        r = sample.base_pose.matrix[:3, :3]
        if sample.base_acceleration is not None:
            acc = sample.base_acceleration
        else:
            lo, hi = max(k - 1, 0), min(k + 1, n - 1)
            span = dt * (hi - lo)
            acc = (trajectory[hi].base_twist[:3]
                   - trajectory[lo].base_twist[:3]) / span if span else 0.0
        omega = r.T @ sample.base_twist[3:]
        y_acc = r.T @ (acc - GRAVITY) + b_a + sigma_a * rng.standard_normal(3)
        y_gyro = omega + b_g + sigma_g * rng.standard_normal(3)
        records.append({"t": sample.t, "kind": "imu",
                        "accel": y_acc.tolist(), "gyro": y_gyro.tolist()})
        b_a = b_a + sigma_ba * dt * rng.standard_normal(3)
        b_g = b_g + sigma_bg * dt * rng.standard_normal(3)
    return records


def emulate_encoders(trajectory, std=0.0, seed=0):
    """Joint position/velocity stream with optional white position noise."""
    rng = np.random.default_rng(seed)
    records = []
    for sample in trajectory:
        q = sample.joint_state.positions
        if std > 0:
            q = q + std * rng.standard_normal(q.shape)
        records.append({"t": sample.t, "kind": "encoder",
                        "positions": q.tolist(),
                        "velocities": sample.joint_state.velocities.tolist()})
    return records


def emulate_contacts(trajectory):
    """Scheduled contact flags, one record per sample."""
    return [{"t": s.t, "kind": "contact",
             "left": bool(s.contacts["left"]),
             "right": bool(s.contacts["right"])} for s in trajectory]


def emulate_wrenches(trajectory, body_weight, geometry=None):
    """Foot wrench stream consistent with the contact schedule.

    Load splits evenly in double support and transfers fully to the stance
    foot in single support; the center of pressure sweeps heel to toe over
    each foot's contact interval.
    """
    geometry = geometry or C.FootGeometry(0.2, 0.1)
    records = []
    n = len(trajectory)
    # per-foot contact intervals for the CoP sweep phase
    for side in ("left", "right"):
        flags = [s.contacts[side] for s in trajectory]
        starts = [k for k in range(n)
                  if flags[k] and (k == 0 or not flags[k - 1])]
        ends = {}
        for k0 in starts:
            k1 = k0
            while k1 + 1 < n and flags[k1 + 1]:
                k1 += 1
            ends[k0] = k1
        phase = np.zeros(n)
        for k0, k1 in ends.items():
            span = max(k1 - k0, 1)
            for k in range(k0, k1 + 1):
                phase[k] = (k - k0) / span
        for k, sample in enumerate(trajectory):
            if not flags[k]:
                force = np.zeros(3)
                torque = np.zeros(3)
            else:
                both = sample.contacts["left"] and sample.contacts["right"]
                fz = body_weight / 2.0 if both else body_weight
                cop_x = (phase[k] - 0.5) * 0.8 * geometry.length
                force = np.array([0.0, 0.0, fz])
                torque = np.array([0.0, -cop_x * fz, 0.0])
            records.append({"t": sample.t, "kind": "wrench", "foot": side,
                            "force": force.tolist(),
                            "torque": torque.tolist()})
    records.sort(key=lambda rec: (rec["t"], rec["foot"]))
    return records
