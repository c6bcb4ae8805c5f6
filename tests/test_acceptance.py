"""End-to-end acceptance checks.

Each test here exercises a complete capability: statistical averaging on
rotation and pose groups, group-kernel accuracy against independent oracles,
reduction of every filter engine to a textbook EKF on translation groups,
Jacobian consistency by finite differences, structural invariance properties,
estimator convergence and round-trip accuracy on synthetic walks, wrench
decomposition, and sampling statistics.
"""

import time

import numpy as np
import pytest

import lie_estimate.averaging as A
import lie_estimate.cli as cli
import lie_estimate.contact as CT
import lie_estimate.estimators as E
import lie_estimate.evaluation as EV
import lie_estimate.filtercore as FC
import lie_estimate.groups as G
import lie_estimate.simdata as S
import lie_estimate.uncertainty as U
from lie_estimate.estimators import codiligent as CD
from lie_estimate.estimators import diligent as D
from lie_estimate.estimators import human_ekf as H
from lie_estimate.estimators.diligent import ImuInput

from conftest import random_tangent, series_expm
import test_estimators as TE


# ---------------------------------------------------------------------------
# averaging recovers configured means


def test_rotation_averaging_recovers_the_configured_mean():
    mean = G.rpy_to_rotation(*np.radians([10.0, 10.0, 10.0]))
    dist = U.GaussianOnGroup(mean, 0.05 ** 2 * np.eye(3))
    samples = U.sample(dist, 1000, seed=42)
    start = time.perf_counter()
    cfg = A.AveragingConfig(step_size=0.1, tolerance=1e-4, max_iters=500)
    est = A.karcher_mean(samples, cfg=cfg)
    elapsed = time.perf_counter() - start
    rpy = np.degrees(G.rotation_to_rpy(est))
    assert np.all(np.abs(rpy - 10.0) < 0.3)
    assert elapsed < 2.0


def test_pose_averaging_recovers_the_configured_mean():
    rot = G.rpy_to_rotation(*np.radians([10.0, 10.0, 10.0])).matrix
    mean = G.se3_element(rot, [0.0, 0.5, 0.0])
    dist = U.GaussianOnGroup(mean, 0.05 ** 2 * np.eye(6))
    samples = U.sample(dist, 1000, seed=43)
    start = time.perf_counter()
    cfg = A.AveragingConfig(step_size=0.1, tolerance=1e-4, max_iters=500)
    est = A.karcher_mean(samples, cfg=cfg)
    elapsed = time.perf_counter() - start
    rpy = np.degrees(G.rotation_to_rpy(G.so3_element(est.matrix[:3, :3])))
    assert np.all(np.abs(rpy - 10.0) < 0.5)
    assert np.all(np.abs(est.matrix[:3, 3] - [0.0, 0.5, 0.0]) < 0.01)
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# group kernels against independent oracles


KERNEL_TAGS = [G.SO3, G.SE3, G.SEk3(2), G.SEk3(3), G.Tn(3)]


def test_group_kernels_match_independent_oracles():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    h = 1e-6
    for tag in KERNEL_TAGS:
        dim = tag.algebra_dim
        for _ in range(1000):
            v = random_tangent(tag, rng, scale=0.9)
            x = G.exp(v)
            assert np.abs(x.matrix - series_expm(G.hat(v))).max() < 1e-10
            assert np.abs(G.logvee(x) - v.components).max() < 1e-10
            # adjoint via the exact conjugation identity
            w = random_tangent(tag, rng, scale=1.0)
            lhs = x.matrix @ G.hat(w) @ G.inverse(x).matrix
            rhs = G.hat(G.TangentVector(tag, G.adjoint(x) @ w.components))
            assert np.abs(lhs - rhs).max() < 1e-10
            # directional finite differences for both Jacobians
            d = w.components / np.linalg.norm(w.components)
            vp = G.exp(G.TangentVector(tag, v.components + h * d))
            vm = G.exp(G.TangentVector(tag, v.components - h * d))
            fd_l = (G.logvee(G.compose(vp, G.inverse(x)))
                    - G.logvee(G.compose(vm, G.inverse(x)))) / (2 * h)
            assert np.abs(G.left_jacobian(v) @ d - fd_l).max() < 1e-5
            fd_r = (G.logvee(G.compose(G.inverse(x), vp))
                    - G.logvee(G.compose(G.inverse(x), vm))) / (2 * h)
            assert np.abs(G.right_jacobian(v) @ d - fd_r).max() < 1e-5
            inv_check = G.left_jacobian(v) @ G.left_jacobian_inv(v)
            assert np.abs(inv_check - np.eye(dim)).max() < 1e-10
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# every filter engine reduces to a textbook EKF on translation groups


def _textbook_gain(p, hmat, r):
    s = hmat @ p @ hmat.T + r
    return np.linalg.solve(s.T, (p @ hmat.T).T).T


@pytest.mark.parametrize("engine", ["dlgekf", "dlgekf_rie", "invekf"])
def test_translation_group_filtering_matches_a_textbook_ekf(engine):
    rng = np.random.default_rng(3)
    n, dt = 3, 0.02
    a_lin = 0.1 * rng.standard_normal((n, n))
    q = np.diag(rng.uniform(0.01, 0.1, n))
    h_lin = rng.standard_normal((2, n))
    r_cov = np.diag(rng.uniform(0.05, 0.2, 2))
    x = rng.standard_normal(n)
    p = 0.5 * np.eye(n)
    belief = FC.BeliefState(G.tn_element(x), p.copy())
    inputs = rng.standard_normal((1000, n))
    readings = rng.standard_normal((1000, 2))

    def motion(X, u):
        return (G.TangentVector(X.tag, dt * (a_lin @ G.tn_vector(X) + u)),
                dt * a_lin, q)

    def meas(X, y):
        return (G.tn_element(h_lin @ G.tn_vector(X)), G.tn_element(y), h_lin,
                r_cov)
    h_pinv = np.linalg.pinv(h_lin)

    for k in range(1000):
        u, y = inputs[k], readings[k]
        # textbook reference
        f = np.eye(n) + dt * a_lin
        x = x + dt * (a_lin @ x + u)
        p = f @ p @ f.T + q
        p = (p + p.T) / 2.0
        kk = _textbook_gain(p, h_lin, r_cov)
        x = x + kk @ (y - h_lin @ x)
        p = (np.eye(n) - kk @ h_lin) @ p
        p = (p + p.T) / 2.0
        # engine under test
        if engine == "dlgekf":
            belief = FC.dlgekf_predict(belief, *motion(belief.mean, u))
            belief = FC.dlgekf_update(belief, *meas(belief.mean, y))
        elif engine == "dlgekf_rie":
            belief = FC.dlgekf_predict(belief, *motion(belief.mean, u),
                                       side="left")
            belief = FC.dlgekf_update(belief, *meas(belief.mean, y),
                                      side="left")
        else:
            vec = G.tn_vector(belief.mean)
            mean = G.tn_element(vec + dt * (a_lin @ vec + u))
            belief = FC.invekf_propagate(belief, mean, a_lin, q / dt, dt)
            z = np.append(h_pinv @ y, 1.0)
            b = np.append(np.zeros(n), 1.0)
            selector = np.hstack([h_lin, np.zeros((2, 1))])
            belief = FC.invekf_update(belief, z, b, -h_lin, r_cov, "left",
                                      selector=selector)
        assert np.abs(G.tn_vector(belief.mean) - x).max() <= 1e-12
        assert np.abs(belief.covariance - p).max() <= 1e-12


# ---------------------------------------------------------------------------
# analytic filter Jacobians against finite differences


def _rel_tol(analytic):
    return 1e-5 * (1.0 + np.abs(analytic).max())


def test_base_filter_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(3):
        state = TE.random_diligent_state(rng)
        imu = ImuInput(accel=rng.normal(0.0, 2.0, 3) + [0.0, 0.0, 9.8],
                       gyro=rng.normal(0.0, 0.4, 3), dt=0.01)
        pairs = [(D._motion_jacobian_right(state, imu),
                  TE.fd_motion_jacobian(state, imu, "right")),
                 (D._motion_jacobian_left(state, imu),
                  TE.fd_motion_jacobian(state, imu, "left"))]
        for foot in ("left", "right"):
            pairs.append((D._measurement_jacobian_right(state, foot),
                          TE.fd_measurement_jacobian(state, foot, "right")))
            pairs.append((D._measurement_jacobian_left(state, foot),
                          TE.fd_measurement_jacobian(state, foot, "left")))
        for analytic, fd in pairs:
            assert np.abs(analytic - fd).max() <= _rel_tol(analytic)


def _error_map_jacobian(state, imu, variant, h=1e-6):
    """Finite-difference Jacobian of the one-step error propagation."""
    tag = state.element.tag
    def prop(el):
        st = D.DiligentState(el, state.covariance)
        return G.compose(el, G.exp(D._motion_increment(st, imu)))
    base = prop(state.element)
    jac = np.zeros((state.dim, state.dim))
    for j in range(state.dim):
        cols = []
        for sgn in (+1.0, -1.0):
            eps = np.zeros(state.dim)
            eps[j] = sgn * h
            step = G.exp(G.TangentVector(tag, eps))
            if variant == "rie":
                out = prop(G.compose(step, state.element))
                err = G.logvee(G.compose(out, G.inverse(base)))
            else:
                out = prop(G.compose(state.element, step))
                err = G.logvee(G.compose(G.inverse(base), out))
            cols.append(err)
        jac[:, j] = (cols[0] - cols[1]) / (2.0 * h)
    return jac


@pytest.mark.parametrize("variant", ["rie", "lie"])
def test_continuous_error_matrix_matches_finite_differences(variant):
    rng = np.random.default_rng(17)
    state = TE.random_diligent_state(rng)
    accel = rng.normal(0.0, 2.0, 3) + np.array([0.0, 0.0, 9.8])
    gyro = rng.normal(0.0, 0.4, 3)
    eye = np.eye(state.dim)
    slopes = []
    for dt in (2e-4, 1e-4):
        imu = ImuInput(accel=accel, gyro=gyro, dt=dt)
        slopes.append((_error_map_jacobian(state, imu, variant) - eye) / dt)
    fd = 2.0 * slopes[1] - slopes[0]  # Richardson step removes the O(dt) term
    analytic = CD.codiligent_error_matrix(
        state, ImuInput(accel=accel, gyro=gyro, dt=1e-4), variant)
    assert np.abs(analytic - fd).max() <= _rel_tol(analytic)


def _generic_human_state():
    rng = np.random.default_rng(5)
    base = G.se3_element(G.rpy_to_rotation(0.2, -0.1, 0.4).matrix,
                         [0.1, -0.3, 0.9])
    verts = [rng.uniform(-0.5, 0.5, 3) for _ in range(8)]
    return H.human_initial_state(
        base, [0.2, -0.1, 0.05], verts, [0.1, -0.2, 0.05],
        G.rpy_to_rotation(0.05, 0.1, -0.2).matrix,
        G.rpy_to_rotation(-0.1, 0.05, 0.3).matrix, E.NoiseConfig())


def _capture_raw_update(fn, state, *args, **kwargs):
    """Record the linearization a column-observation update feeds the core."""
    rec = {}
    orig = FC.invekf_update
    def spy(belief, z, b, h, n, side, selector=None, **kw):
        rec.update(z=np.array(z, float), b=np.array(b, float),
                   h=np.array(h, float), side=side,
                   selector=np.array(selector, float))
        return orig(belief, z, b, h, n, side, selector=selector, **kw)
    FC.invekf_update = spy
    try:
        fn(state, *args, **kwargs)
    finally:
        FC.invekf_update = orig
    return rec


def _fd_raw_update_h(state, rec, h=1e-6):
    tag = state.element.tag
    sel, z, b = rec["selector"], rec["z"], rec["b"]
    def innov(eps):
        step = G.exp(G.TangentVector(tag, eps))
        if rec["side"] == "right":
            el = G.compose(step, state.element)
            raw = el.matrix @ z - b
        else:
            el = G.compose(state.element, step)
            raw = G.inverse(el).matrix @ z - b
        return sel @ raw
    dim = tag.algebra_dim
    out = np.zeros((sel.shape[0], dim))
    for j in range(dim):
        eps = np.zeros(dim)
        eps[j] = h
        out[:, j] = (innov(eps) - innov(-eps)) / (2.0 * h)
    return out


def _capture_group_update(fn, state, *args, **kwargs):
    """Record the linearization a group-observation update feeds the core."""
    rec = {}
    orig = FC.dlgekf_update
    def spy(belief, predicted, z, h, n, **kw):
        rec.update(pred=predicted, h=np.array(h, float), z=z)
        return orig(belief, predicted, z, h, n, **kw)
    FC.dlgekf_update = spy
    try:
        fn(state, *args, **kwargs)
    finally:
        FC.dlgekf_update = orig
    return rec


def _fd_group_update_h(fn, state, args, kwargs, h=1e-6):
    base = _capture_group_update(fn, state, *args, **kwargs)
    z, dim = base["z"], state.element.tag.algebra_dim
    out = np.zeros((base["h"].shape[0], dim))
    for j in range(dim):
        cols = []
        for sgn in (+1.0, -1.0):
            eps = np.zeros(dim)
            eps[j] = sgn * h
            el = G.compose(G.exp(G.TangentVector(state.element.tag, eps)),
                           state.element)
            pert = H.HumanEkfState(el, state.covariance)
            rec = _capture_group_update(fn, pert, *args, **kwargs)
            cols.append(G.logvee(G.compose(G.inverse(rec["pred"]), z)))
        out[:, j] = -(cols[0] - cols[1]) / (2.0 * h)
    return out, base["h"]


def test_human_measurement_jacobians_match_finite_differences():
    state = _generic_human_state()
    cov3 = np.diag([4e-4, 5e-4, 6e-4])
    # an invariant-filter H is the exact derivative only at zero innovation,
    # so every synthetic measurement must agree with the state
    raw_cases = [
        (H.human_update_relative_contact_position,
         (2, state.base_rotation.T
          @ (state.vertex_position(2) - state.base_position), cov3)),
        (H.human_update_zupt_linear,
         (state.base_rotation.T @ state.base_velocity, cov3)),
        (H.human_update_zupt_angular, (state.angular_velocity, cov3)),
        (H.human_update_base_gyro, (state.angular_velocity, cov3)),
        (H.human_update_terrain_height, (5, state.vertex_position(5)[2])),
    ]
    for fn, args in raw_cases:
        rec = _capture_raw_update(fn, state, *args)
        fd = _fd_raw_update_h(state, rec)
        assert np.abs(rec["h"] - fd).max() <= _rel_tol(rec["h"])

    group_cases = [
        (H.human_update_terrain_height, (4, state.vertex_position(4)[2]),
         {"invariant": False}),
        (H.human_update_relative_foot_rotation,
         ("left", state.base_rotation.T @ state.foot_rotation("left"), cov3),
         {}),
        (H.human_update_contact_plane,
         ("right", state.foot_rotation("right"), cov3), {}),
    ]
    for fn, args, kwargs in group_cases:
        fd, analytic = _fd_group_update_h(fn, state, args, kwargs)
        assert np.abs(analytic - fd).max() <= _rel_tol(analytic)


def test_stacked_human_measurement_jacobians_match_finite_differences():
    state = _generic_human_state()
    verts = [1, 2, 6]
    rel = [state.base_rotation.T
           @ (state.vertex_position(v) - state.base_position) for v in verts]
    covs = [np.diag([4e-4, 5e-4, 6e-4]) * (1 + j) for j in range(len(verts))]
    heights = [state.vertex_position(v)[2] for v in verts]
    for fn, args in ((H.human_update_relative_contact_position,
                      (verts, rel, covs)),
                     (H.human_update_terrain_height, (verts, heights))):
        rec = _capture_raw_update(fn, state, *args)
        assert rec["z"].shape == rec["b"].shape == (len(verts), 23)
        # the stacked innovation is the selected rows, one after another
        fd = np.vstack([_fd_raw_update_h(state, dict(rec, z=z, b=b))
                        for z, b in zip(rec["z"], rec["b"])])
        assert rec["h"].shape == (3 * len(verts), 42)
        assert np.abs(rec["h"] - fd).max() <= _rel_tol(rec["h"])


# ---------------------------------------------------------------------------
# structural properties of the invariant error


_GRAV = np.array([0.0, 0.0, -9.80665])


def _imu_flow(x, omega, acc, dt):
    r = x.matrix[:3, :3]
    v = x.matrix[:3, 3]
    p = x.matrix[:3, 4]
    r2 = r @ G.exp(G.TangentVector(G.SO3, omega * dt)).matrix
    v2 = v + r @ acc * dt + _GRAV * dt
    return G.sek3_element(r2, [v2, p + v * dt])


def _toy_inputs(k):
    return (np.array([0.4 * np.sin(0.01 * k), 0.2, -0.3 * np.cos(0.02 * k)]),
            np.array([0.5, -0.2 * np.sin(0.015 * k), 9.5]))


def test_twin_trajectory_error_is_state_independent():
    rng = np.random.default_rng(2)
    tag = G.SEk3(2)
    dt = 1e-3
    eta0 = G.exp(random_tangent(tag, rng, scale=0.3))
    xa = G.exp(random_tangent(tag, rng, scale=0.8))
    xb = G.exp(random_tangent(tag, rng, scale=0.8))
    x1a, x1b = G.compose(eta0, xa), G.compose(eta0, xb)
    for k in range(1000):
        omega, acc = _toy_inputs(k)
        xa = _imu_flow(xa, omega, acc, dt)
        xb = _imu_flow(xb, omega, acc, dt)
        x1a = _imu_flow(x1a, omega, acc, dt)
        x1b = _imu_flow(x1b, omega, acc, dt)
    eta_a = G.compose(x1a, G.inverse(xa))
    eta_b = G.compose(x1b, G.inverse(xb))
    assert np.abs(eta_a.matrix - eta_b.matrix).max() < 1e-9


def test_error_propagation_is_log_linear():
    rng = np.random.default_rng(4)
    tag = G.SEk3(2)
    dt, h = 1e-3, 1e-6
    dim = tag.algebra_dim
    xt = G.exp(random_tangent(tag, rng, scale=0.5))
    xi = random_tangent(tag, rng, scale=0.2).components
    xp = G.compose(G.exp(G.TangentVector(tag, xi)), xt)
    for k in range(1000):
        omega, acc = _toy_inputs(k)
        nxt = _imu_flow(xt, omega, acc, dt)
        # per-step transition matrix of the left error, by finite differences
        f = np.zeros((dim, dim))
        for j in range(dim):
            cols = []
            for sgn in (+1.0, -1.0):
                eps = np.zeros(dim)
                eps[j] = sgn * h
                out = _imu_flow(
                    G.compose(G.exp(G.TangentVector(tag, eps)), xt),
                    omega, acc, dt)
                cols.append(G.logvee(G.compose(out, G.inverse(nxt))))
            f[:, j] = (cols[0] - cols[1]) / (2.0 * h)
        xi = f @ xi
        xt = nxt
        xp = _imu_flow(xp, omega, acc, dt)
    nonlinear = G.logvee(G.compose(xp, G.inverse(xt)))
    assert np.abs(nonlinear - xi).max() < 1e-6


def test_left_error_dynamics_block_is_state_independent():
    rng = np.random.default_rng(6)
    imu = ImuInput(accel=np.array([0.3, -0.2, 9.7]),
                   gyro=np.array([0.1, 0.05, -0.08]), dt=1e-3)
    f1 = CD.codiligent_error_matrix(TE.random_diligent_state(rng), imu, "rie")
    f2 = CD.codiligent_error_matrix(TE.random_diligent_state(rng), imu, "rie")
    assert np.array_equal(f1[:21, :21], f2[:21, :21])


# ---------------------------------------------------------------------------
# synthetic-walk estimator behavior


def _walk_records(profile, seed=3):
    quiet = E.NoiseConfig(accel=0.0, gyro=0.0, accel_bias=0.0, gyro_bias=0.0,
                          encoder=0.0)
    traj = S.generate_walk(profile, seed=seed)
    records = (S.emulate_imu(traj, quiet, seed=seed)
               + S.emulate_encoders(traj)
               + S.emulate_contacts(traj))
    records.sort(key=lambda r: (r["t"], r["kind"]))
    return traj, records


def test_perturbed_initializations_converge_within_five_seconds():
    traj, records = _walk_records(S.WalkProfile(duration=10.0, rate=100.0))
    chain = traj.chain or S.walker_chain()
    noise = E.NoiseConfig()
    truth = {round(s.t, 9): s for s in traj}
    start = time.perf_counter()
    for seed in range(25):
        rows = cli.run_estimator("diligent-kio", records, chain, noise,
                                 seed=seed, init_rot_deg=30.0, init_vel=0.5)
        for t, pos, rot, vel in rows:
            if t < 5.0:
                continue
            s = truth[round(t, 9)]
            r_true = s.base_pose.matrix[:3, :3]
            rot_err = np.degrees(np.linalg.norm(
                G.logvee(G.so3_element(rot.T @ r_true))))
            vel_err = np.linalg.norm(np.asarray(vel) - s.base_twist[:3])
            assert rot_err < 3.0, f"seed {seed} rotation {rot_err:.2f} at {t}"
            assert vel_err < 0.05, f"seed {seed} velocity {vel_err:.3f} at {t}"
    assert time.perf_counter() - start < 60.0


ROUND_TRIP_CONFIGS = [
    ("diligent-kio", None),
    ("diligent-kio-rie", None),
    ("codiligent-kio", None),
    ("codiligent-kio-rie", None),
    ("swa", None),
    ("human-ekf", E.NoiseConfig(joint_position=1e-7, terrain_height=1e-7,
                                foot_linear=1e-5, foot_angular=1e-5,
                                gyro=1e-6, swing_scale=1e7)),
]


@pytest.mark.parametrize("name,config",
                         ROUND_TRIP_CONFIGS, ids=[c[0] for c in ROUND_TRIP_CONFIGS])
def test_zero_noise_walk_replays_almost_exactly(name, config):
    traj, records = _walk_records(S.WalkProfile(duration=4.0, rate=100.0))
    chain = traj.chain or S.walker_chain()
    truth = [EV.PoseSample(s.t, s.base_pose.matrix[:3, :3],
                           s.base_pose.matrix[:3, 3], s.base_twist[:3])
             for s in traj]
    rows = cli.run_estimator(name, records, chain, config or E.NoiseConfig())
    est = [EV.PoseSample(t, rot, pos, vel) for t, pos, rot, vel in rows]
    report = EV.evaluate(truth, est)
    assert report.ate_pos_m < 1e-4
    assert report.ate_rot_deg < 0.01


# ---------------------------------------------------------------------------
# wrench decomposition


def test_wrench_decomposition_reconstructs_the_input():
    geom = CT.FootGeometry(length=0.2, width=0.1)
    verts = geom.vertices
    rng = np.random.default_rng(9)
    for _ in range(10000):
        fz = rng.uniform(1.0, 500.0)
        cop_x = 0.98 * rng.uniform(-geom.length / 2, geom.length / 2)
        cop_y = 0.98 * rng.uniform(-geom.width / 2, geom.width / 2)
        wrench = [0.0, 0.0, fz, cop_y * fz, -cop_x * fz, 0.0]
        state = CT.decompose_wrench(wrench, geom)
        assert abs(state.forces.sum() - fz) <= 1e-9
        tau_x = float(verts[:, 1] @ state.forces)
        tau_y = -float(verts[:, 0] @ state.forces)
        assert abs(tau_x - wrench[3]) <= 1e-9
        assert abs(tau_y - wrench[4]) <= 1e-9
    centered = CT.decompose_wrench([0.0, 0.0, 120.0, 0.0, 0.0, 0.0], geom)
    assert np.array_equal(centered.ratios, np.full(4, 0.25))


# ---------------------------------------------------------------------------
# sampling statistics and covariance transport


def test_sampling_reproduces_the_configured_covariance():
    rot = G.rpy_to_rotation(0.3, -0.2, 0.7).matrix
    mean = G.se3_element(rot, [0.3, -0.2, 0.5])
    stds = np.array([0.05, 0.08, 0.03, 0.04, 0.06, 0.07])
    dist = U.GaussianOnGroup(mean, np.diag(stds ** 2))
    samples = U.sample(dist, 100000, seed=13)
    inv_mean = G.inverse(mean)
    eps = np.array([G.logvee(G.compose(inv_mean, s)) for s in samples])
    emp = (eps ** 2).mean(axis=0)
    assert np.all(np.abs(emp - stds ** 2) <= 0.05 * stds ** 2)


def test_covariance_transport_round_trips():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = G.exp(random_tangent(G.SEk3(2), rng, scale=1.0))
        a = rng.standard_normal((9, 9))
        p = a @ a.T + 0.1 * np.eye(9)
        there = U.transport_covariance(p, x, U.TransportDirection.RIGHT_TO_LEFT)
        back = U.transport_covariance(there, x,
                                      U.TransportDirection.LEFT_TO_RIGHT)
        assert np.abs(back - p).max() <= 1e-10
