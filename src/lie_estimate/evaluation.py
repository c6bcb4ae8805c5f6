"""Trajectory accuracy metrics for base estimators.

Errors are measured group-invariantly: the "left" flavor expresses the
error in the true body frame (rotation via logvee(R_hat^T R), position and
velocity via R_hat^T differences), the "right" flavor in the world frame.
Per-sample error norms are aggregated as a root-mean-square so the
reported numbers carry the same units as the inputs; the raw mean-square
values are exposed alongside.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, asdict

import numpy as np

from . import groups as G


@dataclass(frozen=True)
class PoseSample:
    t: float
    rotation: np.ndarray
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, float).reshape(3, 3))
        object.__setattr__(self, "position",
                           np.asarray(self.position, float).reshape(3))
        object.__setattr__(self, "velocity",
                           np.asarray(self.velocity, float).reshape(3))

    @property
    def pose(self):
        return G.se3_element(self.rotation, self.position)


@dataclass(frozen=True)
class MetricsReport:
    ate_rot_deg: float
    ate_pos_m: float
    ate_vel_mps: float
    rpe_rot_deg: float
    rpe_pos_m: float
    samples: int
    rpe_interval: int
    mean_square_rot: float = 0.0
    mean_square_pos: float = 0.0
    mean_square_vel: float = 0.0

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _check_lengths(truth, estimate):
    if len(truth) != len(estimate):
        raise G.InvalidArgumentError(
            f"trajectory lengths differ: {len(truth)} vs {len(estimate)}")
    if len(truth) == 0:
        raise G.InvalidArgumentError("empty trajectories")


def ate(truth, estimate, side="left"):
    """Absolute trajectory error, returned as RMS (rotation rad, position m,
    velocity m/s) together with the underlying mean squared norms."""
    _check_lengths(truth, estimate)
    if side not in ("left", "right"):
        raise G.InvalidArgumentError("side must be 'left' or 'right'")
    sq_rot = sq_pos = sq_vel = 0.0
    for a, b in zip(truth, estimate):
        r, r_hat = a.rotation, b.rotation
        rot_err = G.logvee(G.so3_element(r_hat.T @ r))
        if side == "left":
            pos_err = r_hat.T @ (a.position - b.position)
            vel_err = r_hat.T @ (a.velocity - b.velocity)
        else:
            pos_err = a.position - b.position
            vel_err = a.velocity - b.velocity
        sq_rot += float(rot_err @ rot_err)
        sq_pos += float(pos_err @ pos_err)
        sq_vel += float(vel_err @ vel_err)
    n = len(truth)
    return (np.sqrt(sq_rot / n), np.sqrt(sq_pos / n), np.sqrt(sq_vel / n),
            (sq_rot / n, sq_pos / n, sq_vel / n))


def _increments(samples, interval):
    """Pose increments over `interval` samples. Each pose starts one
    increment and ends another; tee builds it once and keeps only the
    poses between the two ends."""
    starts, ends = itertools.tee(s.pose for s in samples)
    for a, b in zip(starts, itertools.islice(ends, interval, None)):
        yield G.compose(G.inverse(a), b)


def rpe(truth, estimate, interval=1, side="left"):
    """Relative pose error over a fixed sample interval.

    Each term compares the pose increment over `interval` samples between
    estimate and truth, so any constant global offset cancels.
    """
    _check_lengths(truth, estimate)
    if interval < 1 or interval >= len(truth):
        raise G.InvalidArgumentError("interval must be in [1, n)")
    sq_rot = sq_pos = 0.0
    count = 0
    for inc_true, inc_est in zip(_increments(truth, interval),
                                 _increments(estimate, interval)):
        err = G.compose(G.inverse(inc_est), inc_true)
        vec = G.logvee(err)
        if side == "right":
            vec = G.adjoint(inc_est) @ vec
        sq_pos += float(vec[:3] @ vec[:3])
        sq_rot += float(vec[3:] @ vec[3:])
        count += 1
    return np.sqrt(sq_rot / count), np.sqrt(sq_pos / count)


def align_first_pose(truth, estimate):
    """Left-translate the estimate so its first pose coincides with the
    truth; all pose increments are preserved."""
    _check_lengths(truth, estimate)
    offset = G.compose(truth[0].pose, G.inverse(estimate[0].pose))
    rot_off = offset.matrix[:3, :3]
    out = []
    for s in estimate:
        pose = G.compose(offset, s.pose)
        out.append(PoseSample(s.t, pose.matrix[:3, :3], pose.matrix[:3, 3],
                              rot_off @ s.velocity))
    return out


def evaluate(truth, estimate, rpe_interval=1, side="left") -> MetricsReport:
    """Full metrics bundle; rotations reported in degrees."""
    ate_rot, ate_pos, ate_vel, mean_sq = ate(truth, estimate, side)
    rpe_rot, rpe_pos = rpe(truth, estimate, rpe_interval, side)
    return MetricsReport(
        ate_rot_deg=float(np.degrees(ate_rot)),
        ate_pos_m=float(ate_pos),
        ate_vel_mps=float(ate_vel),
        rpe_rot_deg=float(np.degrees(rpe_rot)),
        rpe_pos_m=float(rpe_pos),
        samples=len(truth),
        rpe_interval=int(rpe_interval),
        mean_square_rot=float(mean_sq[0]),
        mean_square_pos=float(mean_sq[1]),
        mean_square_vel=float(mean_sq[2]))
