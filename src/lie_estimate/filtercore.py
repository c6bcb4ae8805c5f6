"""Kalman filtering engines on matrix Lie groups.

Three engines, all pure functions of (belief, model, input):

  * dlgekf_predict / dlgekf_update           - discrete filter whose error
    lives on the right of the mean (X = mean * exp(err)).
  * dlgekf_rie_predict / dlgekf_rie_update   - the mirrored variant with the
    error on the left (X = exp(err) * mean).
  * invekf_propagate / invekf_update         - continuous-discrete invariant
    filter for group-affine dynamics with left- or right-invariant vector
    observations.

Error/correction bookkeeping for the invariant engine: with a right-side
observation z = X^-1 b + n and error estimate = exp(err) * truth, the raw
innovation mean * z - b linearizes to hat(err) b, so the correction is
exp(-gain*innovation) * mean; the left-side case mirrors this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups as G


class MeasurementRejected(G.LieGroupError):
    pass


@dataclass(frozen=True)
class BeliefState:
    mean: G.GroupElement
    covariance: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", p)
        d = self.mean.tag.algebra_dim
        if p.shape != (d, d):
            raise G.InvalidArgumentError(
                f"covariance shape {p.shape} does not match algebra dim {d}")
        if np.abs(p - p.T).max() > 1e-9:
            raise G.InvalidArgumentError("covariance must be symmetric")


@dataclass(frozen=True)
class MotionModel:
    """Discrete motion increment and its linearization.

    motion(X, u, dt) returns the tangent increment applied multiplicatively
    to the mean; jacobian(X, u, dt) is the derivative of that increment with
    respect to the state error; noise(X, u, dt) is the increment covariance.
    """
    motion: callable
    jacobian: callable
    noise: callable


@dataclass(frozen=True)
class GroupMeasurementModel:
    """Group-valued observation h(X) with error-derivative H and noise N."""
    h: callable
    jacobian: callable
    noise: callable


def _sym(p):
    return (p + p.T) / 2.0


def _posterior_cov(p, k, h, n, joseph):
    i = np.eye(p.shape[0])
    if joseph:
        a = i - k @ h
        return a @ p @ a.T + k @ n @ k.T
    return (i - k @ h) @ p


def _gain_and_offset(p, h, n, innovation, gate):
    s = h @ p @ h.T + np.asarray(n, dtype=float)
    if gate is not None:
        maha = float(innovation @ np.linalg.solve(s, innovation))
        if maha > gate:
            raise MeasurementRejected(
                f"innovation gate failed ({maha:.3f} > {gate:.3f})")
    k = np.linalg.solve(s.T, (p @ h.T).T).T
    return k, k @ innovation


def dlgekf_predict(belief, model: MotionModel, u, dt) -> BeliefState:
    """Right-error prediction: mean moves by exp of the motion increment."""
    x = belief.mean
    omega = model.motion(x, u, dt)
    f_input = np.asarray(model.jacobian(x, u, dt), dtype=float)
    q = np.asarray(model.noise(x, u, dt), dtype=float)
    jr = G.right_jacobian(omega)
    neg = G.TangentVector(omega.tag, -omega.components)
    f = G.adjoint(G.exp(neg)) + jr @ f_input
    mean = G.compose(x, G.exp(omega))
    cov = _sym(f @ belief.covariance @ f.T + jr @ q @ jr.T)
    return BeliefState(mean, cov)


def dlgekf_update(belief, model: GroupMeasurementModel, z,
                  joseph=False, gate=None) -> BeliefState:
    """Right-error update against a group-valued measurement."""
    x = belief.mean
    predicted = model.h(x)
    try:
        innovation = G.logvee(G.compose(G.inverse(predicted), z))
    except G.AmbiguousLogarithmError as e:
        raise MeasurementRejected("measurement log is ambiguous") from e
    h = np.asarray(model.jacobian(x), dtype=float)
    n = model.noise(x) if callable(model.noise) else model.noise
    k, m = _gain_and_offset(belief.covariance, h, n, innovation, gate)
    step = G.TangentVector(x.tag, m)
    mean = G.compose(x, G.exp(step))
    jr = G.right_jacobian(step)
    cov = _sym(jr @ _posterior_cov(belief.covariance, k, h, n, joseph) @ jr.T)
    return BeliefState(mean, cov)


def dlgekf_rie_predict(belief, model: MotionModel, u, dt) -> BeliefState:
    """Left-error prediction; the motion Jacobian is given in left terms."""
    x = belief.mean
    omega = model.motion(x, u, dt)
    f_input = np.asarray(model.jacobian(x, u, dt), dtype=float)
    q = np.asarray(model.noise(x, u, dt), dtype=float)
    lift = G.adjoint(x) @ G.left_jacobian(omega)
    f = np.eye(x.tag.algebra_dim) + lift @ f_input
    mean = G.compose(x, G.exp(omega))
    cov = _sym(f @ belief.covariance @ f.T + lift @ q @ lift.T)
    return BeliefState(mean, cov)


def dlgekf_rie_update(belief, model: GroupMeasurementModel, z,
                      joseph=False, gate=None) -> BeliefState:
    """Left-error update against a group-valued measurement."""
    x = belief.mean
    predicted = model.h(x)
    try:
        innovation = G.logvee(G.compose(G.inverse(predicted), z))
    except G.AmbiguousLogarithmError as e:
        raise MeasurementRejected("measurement log is ambiguous") from e
    h = np.asarray(model.jacobian(x), dtype=float)
    n = model.noise(x) if callable(model.noise) else model.noise
    k, m = _gain_and_offset(belief.covariance, h, n, innovation, gate)
    step = G.TangentVector(x.tag, m)
    mean = G.compose(G.exp(step), x)
    jl = G.left_jacobian(step)
    cov = _sym(jl @ _posterior_cov(belief.covariance, k, h, n, joseph) @ jl.T)
    return BeliefState(mean, cov)


def invekf_propagate(belief, flow, a_matrix, q_hat, dt) -> BeliefState:
    """Invariant-filter propagation.

    flow(X) advances the mean over one step; the error covariance follows
    the linear error dynamics discretized to first order:
    P+ = (I + A dt) P (I + A dt)^T + Q_hat dt.
    """
    mean = flow(belief.mean)
    d = belief.mean.tag.algebra_dim
    f = np.eye(d) + np.asarray(a_matrix, dtype=float) * dt
    q = np.asarray(q_hat, dtype=float)
    cov = _sym(f @ belief.covariance @ f.T + q * dt)
    return BeliefState(mean, cov)


def invekf_update(belief, z, b, h, n, side, selector=None,
                  joseph=False, gate=None) -> BeliefState:
    """Invariant-filter update from a homogeneous-vector observation.

    side "right" handles z = X^-1 b + n with a left-multiplied error,
    side "left" handles z = X b + n with a right-multiplied error. The
    selector picks the informative rows of the raw innovation; h must be
    the derivative of the selected innovation with respect to the error.

    z and b may also be (m, matrix_dim) arrays holding one observation per
    row. The selector is applied to each row and the selected innovations
    are concatenated, so h is (m*s, d) and n is (m*s, m*s) for an (s,
    matrix_dim) selector. The whole stack gets one gain and one correction.
    """
    x = belief.mean
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if z.ndim != 2 or b.ndim != 2:
        z, b = z.reshape(1, -1), b.reshape(1, -1)
    if z.shape != b.shape or z.shape[1] != x.tag.matrix_dim:
        raise G.InvalidArgumentError("observation length must match matrix size")
    if side == "right":
        raw = z @ x.matrix.T - b
    elif side == "left":
        raw = z @ G.inverse(x).matrix.T - b
    else:
        raise G.InvalidArgumentError("side must be 'left' or 'right'")
    if selector is not None:
        raw = raw @ np.asarray(selector, float).T
    innovation = raw.reshape(-1)
    h = np.asarray(h, dtype=float)
    k, m = _gain_and_offset(belief.covariance, h, n, innovation, gate)
    step = G.exp(G.TangentVector(x.tag, -m))
    mean = G.compose(step, x) if side == "right" else G.compose(x, step)
    cov = _sym(_posterior_cov(belief.covariance, k, h, n, joseph))
    return BeliefState(mean, cov)
