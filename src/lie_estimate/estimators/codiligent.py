"""Continuous-time linearization variants of the flat-foot base estimator.

Same state, measurements, and mean propagation as the discrete family, but
the error covariance follows a linearized continuous-time error model
discretized to first order. The "rie" variant keeps the error on the left
of the mean; there the bias-free part of the error dynamics is
state-independent, one of the main draws of this formulation. The "lie"
variant keeps it on the right and depends on the bias-corrected readings.
"""

from __future__ import annotations

import numpy as np

from .. import filtercore as FC
from .. import groups as G
from .diligent import (GRAVITY, DiligentState, ImuInput, _check_dt,
                       _motion_increment, _slot, bias_corrected_readings)
from .noise import NoiseConfig


def _noise_vector_cov(state, contacts, noise, dt):
    """Covariance of the continuous error-model noise vector.

    Scaled by dt so the discretized increment matches the discrete family's
    per-step noise to leading order.
    """
    nl = len(state.landmark_ids)
    stds = np.zeros(state.dim)
    stds[_slot("r", nl)] = noise.gyro
    stds[_slot("v", nl)] = noise.accel
    for side, dslot, zslot in (("left", "dl", "zl"), ("right", "dr", "zr")):
        scale = 1.0 if contacts.get(side, False) else noise.swing_scale
        stds[_slot(dslot, nl)] = scale * noise.foot_linear
        stds[_slot(zslot, nl)] = scale * noise.foot_angular
    stds[_slot("ba", nl)] = noise.accel_bias
    stds[_slot("bg", nl)] = noise.gyro_bias
    return np.diag(stds ** 2) * dt


def codiligent_error_matrix(state, imu: ImuInput, variant):
    """Continuous error-dynamics matrix for the chosen error side."""
    nl = len(state.landmark_ids)
    f = np.zeros((state.dim, state.dim))
    eye = np.eye(3)
    if variant == "rie":
        r, p, v = state.base_rotation, state.base_position, state.base_velocity
        f[_slot("p", nl), _slot("v", nl)] = eye
        f[_slot("p", nl), _slot("bg", nl)] = -G.skew(p) @ r
        f[_slot("r", nl), _slot("bg", nl)] = -r
        f[_slot("v", nl), _slot("r", nl)] = G.skew(GRAVITY)
        f[_slot("v", nl), _slot("ba", nl)] = -r
        f[_slot("v", nl), _slot("bg", nl)] = -G.skew(v) @ r
    elif variant == "lie":
        a_bar, w_bar = bias_corrected_readings(state, imu)
        f[_slot("p", nl), _slot("p", nl)] = -G.skew(w_bar)
        f[_slot("p", nl), _slot("v", nl)] = eye
        f[_slot("r", nl), _slot("r", nl)] = -G.skew(w_bar)
        f[_slot("r", nl), _slot("bg", nl)] = -eye
        f[_slot("v", nl), _slot("r", nl)] = -G.skew(imu.accel - state.accel_bias)
        f[_slot("v", nl), _slot("v", nl)] = -G.skew(w_bar)
        f[_slot("v", nl), _slot("ba", nl)] = -eye
    else:
        raise G.InvalidArgumentError("variant must be 'rie' or 'lie'")
    return f


def codiligent_predict(state, imu: ImuInput, contacts, noise: NoiseConfig,
                       variant) -> DiligentState:
    """One prediction step of the continuous-linearization estimator."""
    _check_dt(imu.dt)
    dt = imu.dt
    f_c = codiligent_error_matrix(state, imu, variant)
    w_cov = _noise_vector_cov(state, contacts, noise, dt)
    if variant == "rie":
        lift = G.adjoint(state.element)
        q_hat = lift @ w_cov @ lift.T
    else:
        q_hat = w_cov
    mean = G.compose(state.element, G.exp(_motion_increment(state, imu)))
    f_k = np.eye(state.dim) + f_c * dt
    q_k = f_k @ q_hat @ f_k.T
    belief = FC.invekf_propagate(
        FC.BeliefState(state.element, state.covariance), mean, f_c, q_k, dt)
    return DiligentState(belief.mean, belief.covariance, state.landmark_ids)
