"""Kalman filtering engines on matrix Lie groups.

Two engines, all pure functions of a belief and the step's linearization,
given as arrays the caller computes at the mean it holds:

  * dlgekf_predict / dlgekf_update           - discrete filter; one function
    per step, whose side argument is the error side: "right" keeps
    X = mean * exp(err), "left" keeps X = exp(err) * mean. A prediction is
    a tangent increment, its error Jacobian and its noise; an update is a
    predicted and a measured group element, H and N.
  * invekf_propagate / invekf_update         - continuous-discrete invariant
    filter for group-affine dynamics with left- or right-invariant vector
    observations; here side names the observation side. Propagation takes
    the advanced mean and the error-dynamics matrix.

Error/correction bookkeeping for the invariant engine: with a right-side
observation z = X^-1 b + n and error estimate = exp(err) * truth, the raw
innovation mean * z - b linearizes to hat(err) b, so the correction is
exp(-gain*innovation) * mean; the left-side case mirrors this.
"""

from __future__ import annotations

import functools
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


def _sym(p):
    return (p + p.T) / 2.0


def _posterior_cov(p, k, h, n, joseph=False):
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


def dlgekf_predict(belief, omega, f_input, q, side="right") -> BeliefState:
    """The mean moves by exp of the tangent increment omega, a
    TangentVector on the mean's group. f_input is the derivative of omega
    with respect to the state error and q its covariance. side is the error
    side, "right" (X = mean * exp(err)) or "left" (X = exp(err) * mean);
    f_input is given in the same terms."""
    if side not in ("right", "left"):
        raise G.InvalidArgumentError("side must be 'right' or 'left'")
    x = belief.mean
    f_input = np.asarray(f_input, dtype=float)
    q = np.asarray(q, dtype=float)
    step = G.exp(omega)
    if side == "right":
        lift = G.right_jacobian(omega)
        f = G.adjoint(G.inverse(step)) + lift @ f_input
    else:
        lift = G.adjoint(x) @ G.left_jacobian(omega)
        f = np.eye(x.tag.algebra_dim) + lift @ f_input
    mean = G.compose(x, step)
    cov = _sym(f @ belief.covariance @ f.T + lift @ q @ lift.T)
    return BeliefState(mean, cov)


def dlgekf_update(belief, predicted, z, h, n, side="right", joseph=False,
                  gate=None) -> BeliefState:
    """Update against a group-valued measurement z, where predicted is the
    measurement expected at the mean, h the derivative of
    log(predicted^-1 z) with respect to the state error and n its noise.
    side is the error side, as in dlgekf_predict (invekf_update's side is
    the observation side)."""
    if side not in ("right", "left"):
        raise G.InvalidArgumentError("side must be 'right' or 'left'")
    x = belief.mean
    try:
        innovation = G.logvee(G.compose(G.inverse(predicted), z))
    except G.AmbiguousLogarithmError as e:
        raise MeasurementRejected("measurement log is ambiguous") from e
    h = np.asarray(h, dtype=float)
    k, m = _gain_and_offset(belief.covariance, h, n, innovation, gate)
    step = G.TangentVector(x.tag, m)
    if side == "right":
        mean = G.compose(x, G.exp(step))
        jac = G.right_jacobian(step)
    else:
        mean = G.compose(G.exp(step), x)
        jac = G.left_jacobian(step)
    cov = _sym(jac @ _posterior_cov(belief.covariance, k, h, n, joseph) @ jac.T)
    return BeliefState(mean, cov)


# bench/tracing.py looks these names up to count calls; nothing in the
# package calls them
dlgekf_rie_predict = functools.partial(dlgekf_predict, side="left")
dlgekf_rie_update = functools.partial(dlgekf_update, side="left")


def invekf_propagate(belief, mean, a_matrix, q_hat, dt) -> BeliefState:
    """Invariant-filter propagation.

    mean is the mean advanced over one step; the error covariance follows
    the linear error dynamics discretized to first order:
    P+ = (I + A dt) P (I + A dt)^T + Q_hat dt.
    """
    d = belief.mean.tag.algebra_dim
    f = np.eye(d) + np.asarray(a_matrix, dtype=float) * dt
    q = np.asarray(q_hat, dtype=float)
    cov = _sym(f @ belief.covariance @ f.T + q * dt)
    return BeliefState(mean, cov)


def invekf_update(belief, z, b, h, n, side, selector=None,
                  gate=None) -> BeliefState:
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
    cov = _sym(_posterior_cov(belief.covariance, k, h, n))
    return BeliefState(mean, cov)
