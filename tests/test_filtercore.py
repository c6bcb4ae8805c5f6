import numpy as np
import pytest

import lie_estimate.groups as G
import lie_estimate.uncertainty as U
import lie_estimate.filtercore as FC

from conftest import random_element


def spd(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + 0.5 * np.eye(n))


def constant_motion(tag, omega_vec, f_tilde, q):
    return FC.MotionModel(
        motion=lambda x, u, dt: G.TangentVector(tag, np.asarray(omega_vec, float)),
        jacobian=lambda x, u, dt: f_tilde,
        noise=lambda x, u, dt: q)


def full_state_measurement(n_cov):
    return FC.GroupMeasurementModel(
        h=lambda x: x,
        jacobian=lambda x: np.eye(n_cov.shape[0]),
        noise=lambda x: n_cov)


# --- prediction ------------------------------------------------------------------

def test_predict_zero_motion_zero_noise_is_identity(rng):
    x = random_element(G.SE3, rng)
    p = spd(6, rng, 0.01)
    belief = FC.BeliefState(x, p)
    model = constant_motion(G.SE3, np.zeros(6), np.zeros((6, 6)), np.zeros((6, 6)))
    out = FC.dlgekf_predict(belief, model, None, 0.01)
    assert np.abs(out.mean.matrix - x.matrix).max() < 1e-12
    assert np.abs(out.covariance - p).max() < 1e-12


def test_predict_euclidean_reduction(rng):
    tag = G.Tn(3)
    x0 = rng.standard_normal(3)
    p0 = spd(3, rng)
    omega = rng.standard_normal(3)
    f_tilde = 0.3 * rng.standard_normal((3, 3))
    q = spd(3, rng, 0.1)
    belief = FC.BeliefState(G.tn_element(x0), p0)
    model = constant_motion(tag, omega, f_tilde, q)
    out = FC.dlgekf_predict(belief, model, None, 1.0)
    f_ref = np.eye(3) + f_tilde
    assert np.abs(out.mean.matrix[:3, 3] - (x0 + omega)).max() < 1e-12
    assert np.abs(out.covariance - (f_ref @ p0 @ f_ref.T + q)).max() < 1e-12


def test_predict_so3_monte_carlo(rng):
    x_hat = random_element(G.SO3, rng)
    p0 = np.diag([0.02, 0.03, 0.025]) ** 2
    q = np.diag([0.01, 0.015, 0.012]) ** 2
    omega = np.array([0.3, -0.5, 0.2])
    belief = FC.BeliefState(x_hat, p0)
    model = constant_motion(G.SO3, omega, np.zeros((3, 3)), q)
    out = FC.dlgekf_predict(belief, model, None, 1.0)

    gen = np.random.default_rng(77)
    l0 = np.linalg.cholesky(p0)
    lq = np.linalg.cholesky(q)
    errs = np.empty((100000, 3))
    inv_new = G.inverse(out.mean)
    for i in range(errs.shape[0]):
        x = G.compose(x_hat, G.exp(G.TangentVector(G.SO3, l0 @ gen.standard_normal(3))))
        step = G.TangentVector(G.SO3, omega + lq @ gen.standard_normal(3))
        errs[i] = G.logvee(G.compose(inv_new, G.compose(x, G.exp(step))))
    p_mc = errs.T @ errs / errs.shape[0]
    assert np.abs(np.diag(p_mc) - np.diag(out.covariance)).max() \
        < 0.05 * np.diag(out.covariance).max()


# --- update ----------------------------------------------------------------------

def test_update_perfect_measurement_keeps_mean(rng):
    x = random_element(G.SE3, rng)
    p = spd(6, rng, 0.01)
    n = spd(6, rng, 0.001)
    belief = FC.BeliefState(x, p)
    model = full_state_measurement(n)
    out = FC.dlgekf_update(belief, model, x)
    assert np.abs(out.mean.matrix - x.matrix).max() < 1e-12
    k = p @ np.linalg.inv(p + n)
    assert np.abs(out.covariance - (np.eye(6) - k) @ p).max() < 1e-10


def test_update_euclidean_reduction(rng):
    x0 = rng.standard_normal(3)
    p0 = spd(3, rng)
    n = spd(3, rng, 0.2)
    z = rng.standard_normal(3)
    belief = FC.BeliefState(G.tn_element(x0), p0)
    out = FC.dlgekf_update(belief, full_state_measurement(n), G.tn_element(z))
    k = p0 @ np.linalg.inv(p0 + n)
    assert np.abs(out.mean.matrix[:3, 3] - (x0 + k @ (z - x0))).max() < 1e-12
    assert np.abs(out.covariance - (np.eye(3) - k) @ p0).max() < 1e-12


def test_update_absorbs_offset_into_mean(rng):
    # after the update the stored belief carries no residual tangent offset:
    # re-running the innovation at the new mean with the old data shrinks it
    x = random_element(G.SO3, rng)
    p = 0.04 * np.eye(3)
    n = 1e-6 * np.eye(3)
    z = G.compose(x, G.exp(G.TangentVector(G.SO3, [0.05, -0.02, 0.03])))
    out = FC.dlgekf_update(FC.BeliefState(x, p), full_state_measurement(n), z)
    resid = G.logvee(G.compose(G.inverse(out.mean), z))
    assert np.linalg.norm(resid) < 1e-4  # nearly all innovation absorbed


def test_update_joseph_matches_short_form(rng):
    x = random_element(G.SE3, rng)
    p = spd(6, rng, 0.01)
    n = spd(6, rng, 0.01)
    z = random_element(G.SE3, rng)
    z = G.compose(x, G.exp(G.TangentVector(G.SE3, 0.01 * rng.standard_normal(6))))
    model = full_state_measurement(n)
    belief = FC.BeliefState(x, p)
    a = FC.dlgekf_update(belief, model, z)
    b = FC.dlgekf_update(belief, model, z, joseph=True)
    assert np.abs(a.covariance - b.covariance).max() < 1e-9
    assert np.abs(a.mean.matrix - b.mean.matrix).max() < 1e-12


def test_update_gate_rejects_outlier(rng):
    x = G.identity(G.SO3)
    belief = FC.BeliefState(x, 1e-6 * np.eye(3))
    model = full_state_measurement(1e-6 * np.eye(3))
    z = G.exp(G.TangentVector(G.SO3, [0.5, 0.0, 0.0]))
    with pytest.raises(FC.MeasurementRejected):
        FC.dlgekf_update(belief, model, z, gate=16.27)
    # default has no gate
    FC.dlgekf_update(belief, model, z)


# --- left-error variant ------------------------------------------------------------

def test_rie_zero_motion_identity(rng):
    x = random_element(G.SE3, rng)
    p = spd(6, rng, 0.01)
    model = constant_motion(G.SE3, np.zeros(6), np.zeros((6, 6)), np.zeros((6, 6)))
    out = FC.dlgekf_rie_predict(FC.BeliefState(x, p), model, None, 0.01)
    assert np.abs(out.mean.matrix - x.matrix).max() < 1e-12
    assert np.abs(out.covariance - p).max() < 1e-12


def test_rie_euclidean_reduction_matches_left(rng):
    tag = G.Tn(4)
    x0 = rng.standard_normal(4)
    p0 = spd(4, rng)
    model = constant_motion(tag, rng.standard_normal(4),
                            0.2 * rng.standard_normal((4, 4)), spd(4, rng, 0.1))
    belief = FC.BeliefState(G.tn_element(x0), p0)
    a = FC.dlgekf_predict(belief, model, None, 1.0)
    b = FC.dlgekf_rie_predict(belief, model, None, 1.0)
    assert np.abs(a.mean.matrix - b.mean.matrix).max() < 1e-12
    assert np.abs(a.covariance - b.covariance).max() < 1e-12


def test_rie_relates_to_left_by_transport(rng):
    # same prior at the identity, state-independent motion, no input coupling:
    # the two error conventions must describe the same distribution
    p0 = np.diag([0.04, 0.02, 0.03])
    q = np.diag([0.01, 0.02, 0.015])
    omega = np.array([0.4, -0.2, 0.7])
    model = constant_motion(G.SO3, omega, np.zeros((3, 3)), q)
    belief = FC.BeliefState(G.identity(G.SO3), p0)
    left = FC.dlgekf_predict(belief, model, None, 1.0)
    right = FC.dlgekf_rie_predict(belief, model, None, 1.0)
    assert np.abs(left.mean.matrix - right.mean.matrix).max() < 1e-12
    moved = U.transport_covariance(right.covariance, left.mean,
                                   U.TransportDirection.LEFT_TO_RIGHT)
    assert np.abs(moved - left.covariance).max() < 1e-6


def test_rie_update_mirrors_left_on_euclidean(rng):
    x0 = rng.standard_normal(3)
    p0 = spd(3, rng)
    n = spd(3, rng, 0.1)
    z = G.tn_element(rng.standard_normal(3))
    belief = FC.BeliefState(G.tn_element(x0), p0)
    model = full_state_measurement(n)
    a = FC.dlgekf_update(belief, model, z)
    b = FC.dlgekf_rie_update(belief, model, z)
    assert np.abs(a.mean.matrix - b.mean.matrix).max() < 1e-12
    assert np.abs(a.covariance - b.covariance).max() < 1e-12


# --- invariant engine ----------------------------------------------------------------

GRAVITY = np.array([0.0, 0.0, -9.80665])
SE23 = G.SEk3(2)


def imu_flow(a_meas, w_meas, dt):
    def flow(x):
        r, (p, v) = x.matrix[:3, :3], (x.matrix[:3, 3], x.matrix[:3, 4])
        r_new = r @ G.exp(G.TangentVector(G.SO3, w_meas * dt)).matrix
        acc = r @ a_meas + GRAVITY
        p_new = p + v * dt + 0.5 * acc * dt * dt
        v_new = v + acc * dt
        return G.sek3_element(r_new, [p_new, v_new])
    return flow


def test_invekf_propagate_constant_covariance(rng):
    x = random_element(SE23, rng)
    p = spd(9, rng, 0.01)
    out = FC.invekf_propagate(FC.BeliefState(x, p), imu_flow(np.zeros(3), np.zeros(3), 0.01),
                              np.zeros((9, 9)), np.zeros((9, 9)), 0.01)
    assert np.abs(out.covariance - p).max() < 1e-15


def test_invekf_group_affine_error_is_state_independent(rng):
    # right-invariant error between two trajectories driven by the same inputs
    # depends only on its own initial value, not on where the pair sits
    dt = 0.01
    x1 = random_element(SE23, rng)
    eta0 = G.exp(G.TangentVector(SE23, 0.3 * rng.standard_normal(9)))
    x2 = G.compose(G.inverse(eta0), x1)
    shift = random_element(SE23, rng)
    y1, y2 = G.compose(x1, shift), G.compose(x2, shift)
    gen = np.random.default_rng(3)
    for _ in range(100):
        flow = imu_flow(gen.standard_normal(3), gen.standard_normal(3), dt)
        x1, x2, y1, y2 = flow(x1), flow(x2), flow(y1), flow(y2)
        eta_x = G.compose(x1, G.inverse(x2)).matrix
        eta_y = G.compose(y1, G.inverse(y2)).matrix
        assert np.abs(eta_x - eta_y).max() < 1e-9


def test_invekf_log_linear_error_evolution(rng):
    # the group error of group-affine dynamics follows the linear tangent
    # system exactly; the linear map is identified by finite differences
    dt = 1e-3
    a_meas = np.array([0.3, -0.2, 9.9])
    w_meas = np.array([0.1, 0.2, -0.1])
    flow = imu_flow(a_meas, w_meas, dt)

    def error_flow(eps, x_ref):
        x_pert = G.compose(G.exp(G.TangentVector(SE23, eps)), x_ref)
        return G.logvee(G.compose(flow(x_pert), G.inverse(flow(x_ref))))

    x_ref = random_element(SE23, rng)
    h = 1e-5
    a_d = np.zeros((9, 9))
    for j in range(9):
        e = np.zeros(9)
        e[j] = h
        a_d[:, j] = (error_flow(e, x_ref) - error_flow(-e, x_ref)) / (2 * h)

    eps = 0.1 * rng.standard_normal(9)
    x_true = G.compose(G.exp(G.TangentVector(SE23, -eps)),
                       x_ref)  # estimate = exp(eps) * truth
    x_hat = x_ref
    eps_lin = eps.copy()
    for _ in range(1000):
        x_hat, x_true = flow(x_hat), flow(x_true)
        eps_lin = a_d @ eps_lin
    eps_nl = G.logvee(G.compose(x_hat, G.inverse(x_true)))
    assert np.abs(eps_nl - eps_lin).max() < 1e-6


def test_invekf_update_euclidean_reduction(rng):
    tag = G.Tn(3)
    x_hat = rng.standard_normal(3)
    p0 = spd(3, rng)
    n = spd(3, rng, 0.3)
    b = np.array([1.0, 2.0, 3.0, 1.0])
    x_true = rng.standard_normal(3)
    noise = 0.1 * rng.standard_normal(3)
    z = np.concatenate([b[:3] - x_true + noise, [1.0]])
    selector = np.hstack([np.eye(3), np.zeros((3, 1))])
    belief = FC.BeliefState(G.tn_element(x_hat), p0)
    out = FC.invekf_update(belief, z, b, np.eye(3), n, "right",
                           selector=selector)
    y = b[:3] - z[:3]  # equivalent direct state measurement
    k = p0 @ np.linalg.inv(p0 + n)
    assert np.abs(out.mean.matrix[:3, 3] - (x_hat + k @ (y - x_hat))).max() < 1e-12
    assert np.abs(out.covariance - (np.eye(3) - k) @ p0).max() < 1e-12


def test_invekf_left_update_euclidean_reduction(rng):
    tag = G.Tn(3)
    x_hat = rng.standard_normal(3)
    p0 = spd(3, rng)
    n = spd(3, rng, 0.3)
    b = np.array([0.5, -1.0, 2.0, 1.0])
    x_true = rng.standard_normal(3)
    z = np.concatenate([b[:3] + x_true + 0.1 * rng.standard_normal(3), [1.0]])
    selector = np.hstack([np.eye(3), np.zeros((3, 1))])
    belief = FC.BeliefState(G.tn_element(x_hat), p0)
    # innovation x_hat^-1 z - b = (z - x_hat) - b ~= -(x_hat - x_true), H = -I
    out = FC.invekf_update(belief, z, b, -np.eye(3), n, "left",
                           selector=selector)
    y = z[:3] - b[:3]
    k = p0 @ np.linalg.inv(p0 + n)
    assert np.abs(out.mean.matrix[:3, 3] - (x_hat + k @ (y - x_hat))).max() < 1e-12


@pytest.mark.parametrize("side", ["right", "left"])
def test_invekf_stacked_update_equals_rows_applied_one_by_one(rng, side):
    # linear Gaussian case: one stacked update is the sequential updates
    x_hat = rng.standard_normal(3)
    p0 = spd(3, rng)
    sign = 1.0 if side == "right" else -1.0
    selector = np.hstack([np.eye(3), np.zeros((3, 1))])
    b = np.hstack([rng.standard_normal((3, 3)), np.ones((3, 1))])
    z = np.hstack([rng.standard_normal((3, 3)), np.ones((3, 1))])
    noises = [spd(3, rng, 0.3) for _ in range(3)]
    n = np.zeros((9, 9))
    for j, nj in enumerate(noises):
        n[3 * j:3 * j + 3, 3 * j:3 * j + 3] = nj
    belief = FC.BeliefState(G.tn_element(x_hat), p0)
    stacked = FC.invekf_update(belief, z, b, sign * np.vstack([np.eye(3)] * 3),
                               n, side, selector=selector)
    one_by_one = belief
    for zj, bj, nj in zip(z, b, noises):
        one_by_one = FC.invekf_update(one_by_one, zj, bj, sign * np.eye(3),
                                      nj, side, selector=selector)
    assert np.abs(stacked.mean.matrix - one_by_one.mean.matrix).max() < 1e-12
    assert np.abs(stacked.covariance - one_by_one.covariance).max() < 1e-12
    with pytest.raises(G.InvalidArgumentError):
        FC.invekf_update(belief, z[:2], b, np.zeros((6, 3)), np.eye(6), side,
                         selector=selector)


def test_invekf_right_update_reduces_rotation_error(rng):
    x_true = random_element(SE23, rng)
    eps = 0.05 * rng.standard_normal(9)
    x_hat = G.compose(G.exp(G.TangentVector(SE23, eps)), x_true)
    # observe the world-frame direction of a body landmark: z = X^-1 b
    b = np.array([2.0, -1.0, 0.5, 1.0, 0.0])
    z = G.inverse(x_true).matrix @ b
    selector = np.hstack([np.eye(3), np.zeros((3, 2))])
    # innovation = selector (hat(eps) b); derivative w.r.t. eps:
    h = np.zeros((3, 9))
    h[:, 0:3] = np.eye(3)                      # translation column scale 1
    h[:, 3:6] = -G.skew(b[:3])                 # rotation block
    belief = FC.BeliefState(x_hat, 0.01 * np.eye(9))
    out = FC.invekf_update(belief, z, b, h, 1e-8 * np.eye(3), "right",
                           selector=selector)
    err_before = np.linalg.norm(G.logvee(G.compose(x_hat, G.inverse(x_true))))
    err_after = np.linalg.norm(G.logvee(G.compose(out.mean, G.inverse(x_true))))
    assert err_after < err_before


# --- long-run properties ----------------------------------------------------------

def test_covariance_stays_symmetric_psd_over_many_cycles(rng):
    tag = G.Tn(3)
    belief = FC.BeliefState(G.tn_element(np.zeros(3)), np.eye(3))
    n = 0.5 * np.eye(3)
    model_meas = full_state_measurement(n)
    for i in range(10000):
        f_tilde = 0.05 * rng.standard_normal((3, 3))
        q = spd(3, rng, 0.01)
        model = constant_motion(tag, rng.standard_normal(3), f_tilde, q)
        belief = FC.dlgekf_predict(belief, model, None, 0.01)
        if i % 3 == 0:
            z = G.tn_element(belief.mean.matrix[:3, 3] + rng.standard_normal(3))
            belief = FC.dlgekf_update(belief, model_meas, z)
        assert np.abs(belief.covariance - belief.covariance.T).max() == 0.0
    assert np.linalg.eigvalsh(belief.covariance).min() > -1e-9


def test_determinism(rng):
    x = random_element(G.SO3, rng)
    p = spd(3, rng, 0.01)
    model = constant_motion(G.SO3, [0.1, 0.2, 0.3], np.zeros((3, 3)),
                            0.01 * np.eye(3))
    a = FC.dlgekf_predict(FC.BeliefState(x, p), model, None, 0.1)
    b = FC.dlgekf_predict(FC.BeliefState(x, p), model, None, 0.1)
    assert np.array_equal(a.mean.matrix, b.mean.matrix)
    assert np.array_equal(a.covariance, b.covariance)
