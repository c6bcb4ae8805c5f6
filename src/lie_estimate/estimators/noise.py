"""Noise and prior configuration shared by the estimators.

All entries are standard deviations. Defaults correspond to a typical
humanoid sensor suite; the wearable-suit entries (base rate prediction,
terrain height, joint position) drive the human base estimator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .. import groups as G

GRAVITY_MAGNITUDE = 9.80665


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor, process and prior standard deviations.

    Process noise scales with the step differently per estimator family.
    The DILIGENT predictors add sigma^2 dt^2 of variance per step for
    accel, gyro, the bias random walks and the foot slip (exactly in
    diligent_predict, to leading order in codiligent_predict): sigma is
    the standard deviation of a rate held over the step. human_ekf_predict
    adds sigma^2 dt for the base rates and the shoe slip: sigma is a
    continuous-time noise density. So the same foot_linear gives a
    DILIGENT foot dt times the position variance per step that it gives a
    human-EKF contact vertex.
    """
    accel: float = 0.09                      # m/s^2
    gyro: float = 0.01                       # rad/s
    accel_bias: float = 0.01                 # m/s^2 random walk
    gyro_bias: float = 0.001                 # rad/s random walk
    foot_linear: float = 0.009               # m/s contact foot slip
    foot_angular: float = 0.004              # rad/s contact foot slip
    encoder: float = math.radians(0.1)       # rad
    base_linear_rate: float = 10.0           # m/s prediction noise
    base_angular_rate: float = 10.0          # rad/s prediction noise
    terrain_height: float = 0.03             # m
    joint_position: float = 0.00872          # rad (wearable kinematics)
    prior_position: float = 0.01             # m
    prior_rotation: float = math.radians(10.0)
    prior_velocity: float = 0.5              # m/s
    prior_accel_bias: float = 0.01           # m/s^2
    prior_gyro_bias: float = 0.002           # rad/s
    swing_scale: float = 1e3                 # foot noise inflation off contact

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0.0:
                raise G.InvalidArgumentError(f"{f.name} must be nonnegative")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_noise_config(source) -> NoiseConfig:
    """Read a NoiseConfig from a JSON file path, file object, or dict.

    Missing fields keep their defaults; unknown fields are rejected.
    """
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    known = {f.name for f in fields(NoiseConfig)}
    unknown = set(data) - known
    if unknown:
        raise G.InvalidArgumentError(f"unknown noise fields: {sorted(unknown)}")
    return NoiseConfig(**data)
