"""Correctness checks on the program's outputs, independent of its code.

Trajectory CSVs are parsed with numpy, quaternions are turned into
rotation matrices and rotation angles are measured here, so a fault in the
program's own conversions cannot hide itself. Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

HEADER = "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz"


def load_trajectory(path):
    """(n, 11) array of a trajectory CSV; raises ValueError when malformed."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise ValueError(f"{path}: header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 11 or data.shape[0] == 0:
        raise ValueError(f"{path}: shape {data.shape}")
    return data


def log_timestamps(path):
    """Sorted distinct timestamps of a JSON Lines sensor log."""
    with open(path) as fh:
        return np.array(sorted({json.loads(line)["t"] for line in fh
                                if line.strip()}))


def quaternion_matrices(q):
    """(n, 3, 3) rotations from (n, 4) w-first quaternions, normalized."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
                  2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
                  2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x),
                  1 - 2 * (x * x + y * y)], -1)], -2)


def rotation_angles(r):
    """Angle of each (n, 3, 3) rotation, from its trace and its skew part;
    atan2 keeps small angles accurate where arccos of the trace would not."""
    skew = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0],
                     r[:, 1, 0] - r[:, 0, 1]], -1)
    sin = np.linalg.norm(skew, axis=1) / 2.0
    cos = (np.trace(r, axis1=1, axis2=2) - 1.0) / 2.0
    return np.arctan2(sin, cos)


def check_structure(est, times):
    """One row per distinct log timestamp, in order, finite values, unit
    quaternions (to the 9 written decimals)."""
    problems = []
    if est.shape[0] != times.shape[0]:
        return [f"{est.shape[0]} rows for {times.shape[0]} log timestamps"]
    if not np.all(np.isfinite(est)):
        problems.append("non-finite values")
    if np.any(np.abs(est[:, 0] - times) > 5e-7):
        problems.append("row timestamps differ from the log's")
    if np.any(np.diff(est[:, 0]) <= 0.0):
        problems.append("timestamps not strictly increasing")
    norms = np.linalg.norm(est[:, 4:8], axis=1)
    if not np.all(np.abs(norms - 1.0) < 1e-6):
        problems.append("quaternions are not unit length")
    return problems


def ate(truth, est):
    """RMS position (m), rotation (deg) and velocity (m/s) error.

    The rotation error is the angle of R_est^T R_true. Position and velocity
    errors are Euclidean norms, which a body-frame rotation of the error
    vector leaves unchanged.
    """
    r_true = quaternion_matrices(truth[:, 4:8])
    r_est = quaternion_matrices(est[:, 4:8])
    angles = rotation_angles(np.einsum("nji,njk->nik", r_est, r_true))
    pos = np.linalg.norm(truth[:, 1:4] - est[:, 1:4], axis=1)
    vel = np.linalg.norm(truth[:, 8:11] - est[:, 8:11], axis=1)
    return {"ate_pos_m": _rms(pos), "ate_rot_deg": np.degrees(_rms(angles)),
            "ate_vel_mps": _rms(vel)}


def _rms(errors):
    return float(np.sqrt(np.mean(errors * errors)))


def check_report(report, truth, est, rtol=1e-6, atol=1e-9):
    """The evaluate JSON covers every row and its ATE matches ours."""
    problems = []
    if report.get("samples") != truth.shape[0]:
        problems.append(f"report covers {report.get('samples')} samples "
                        f"of {truth.shape[0]}")
    for key, value in ate(truth, est).items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or \
                abs(got - value) > atol + rtol * abs(value):
            problems.append(f"{key} {got!r} != recomputed {value:.9g}")
    return problems


def check_bounds(report, bounds):
    """Each named report entry stays under its bound."""
    return [f"{key} {report.get(key)!r} >= {bound}"
            for key, bound in bounds.items()
            if not (isinstance(report.get(key), (int, float))
                    and report[key] < bound)]


def _tilt_degrees(truth, est):
    """Angle between true and estimated gravity directions in the body
    frame; blind to yaw, which the estimators cannot observe."""
    g_true = quaternion_matrices(truth[:, 4:8])[:, 2, :]
    g_est = quaternion_matrices(est[:, 4:8])[:, 2, :]
    cross = np.linalg.norm(np.cross(g_true, g_est), axis=1)
    return np.degrees(np.arctan2(cross, np.sum(g_true * g_est, axis=1)))


def check_convergence(truth, est, after, tilt_deg, vel_mps):
    """Convergent-observer property: from `after` seconds on, tilt and
    velocity errors stay under their bounds."""
    keep = truth[:, 0] >= after - 1e-9
    tilt = _tilt_degrees(truth[keep], est[keep])
    vel = np.linalg.norm(truth[keep, 8:11] - est[keep, 8:11], axis=1)
    problems = []
    if tilt.max() >= tilt_deg:
        problems.append(f"tilt error {tilt.max():.4f} deg after {after} s")
    if vel.max() >= vel_mps:
        problems.append(f"velocity error {vel.max():.4f} m/s after {after} s")
    return problems


def check_window_velocity(truth, est, start, end, vel_mps):
    """Velocity error stays under the bound over [start, end)."""
    keep = (truth[:, 0] >= start - 1e-9) & (truth[:, 0] < end - 1e-9)
    vel = np.linalg.norm(truth[keep, 8:11] - est[keep, 8:11], axis=1)
    if vel.max() >= vel_mps:
        return [f"velocity error {vel.max():.4f} m/s in [{start}, {end}) s"]
    return []
