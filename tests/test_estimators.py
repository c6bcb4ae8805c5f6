"""Tests for the legged-robot and human base estimators.

Jacobians are checked against central finite differences of the underlying
nonlinear maps; behavioral tests check fixed points, noise scaling, and
convergence on hand-built scenarios.
"""

import numpy as np
import pytest

import lie_estimate.groups as G
import lie_estimate.kinematics as K
import lie_estimate.filtercore as FC
import lie_estimate.estimators as E
from lie_estimate.estimators import diligent as D
from lie_estimate.estimators import codiligent as CD
from lie_estimate.estimators import human_ekf as H
from lie_estimate.estimators.diligent import ImuInput

GRAV = np.array([0.0, 0.0, -9.80665])


def make_biped():
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


def standing_setup(noise=None):
    chain = make_biped()
    noise = noise or E.NoiseConfig()
    s = np.zeros(chain.dof)
    zl, nl = E.foot_pose_measurement(chain, s, "left_sole", noise)
    zr, nr = E.foot_pose_measurement(chain, s, "right_sole", noise)
    pose = G.se3_element(np.eye(3), [0.0, 0.0, 0.75])
    lf = G.se3_element(np.eye(3), pose.matrix[:3, 3] + zl.matrix[:3, 3])
    rf = G.se3_element(np.eye(3), pose.matrix[:3, 3] + zr.matrix[:3, 3])
    state = E.diligent_initial_state(pose, np.zeros(3), lf, rf, noise)
    imu = ImuInput(accel=-GRAV, gyro=np.zeros(3), dt=0.01)
    return chain, state, imu, [("left", zl, nl), ("right", zr, nr)]


def random_diligent_state(rng, scale=0.4):
    noise = E.NoiseConfig()
    base = E.diligent_initial_state(
        G.se3_element(np.eye(3), [0.1, -0.2, 0.8]),
        np.array([0.3, -0.1, 0.05]),
        G.se3_element(np.eye(3), [0.0, 0.1, 0.0]),
        G.se3_element(np.eye(3), [0.0, -0.1, 0.0]), noise,
        accel_bias=[0.02, -0.01, 0.015], gyro_bias=[0.004, 0.001, -0.002])
    eps = scale * rng.standard_normal(base.dim)
    element = G.compose(base.element, G.exp(G.TangentVector(base.element.tag,
                                                            eps)))
    return D.DiligentState(element, base.covariance)


# ---------------------------------------------------------------------------
# IMU predictor Jacobians against finite differences


def fd_motion_jacobian(state, imu, side="right", h=1e-6):
    tag = state.element.tag
    dim = state.dim
    jac = np.zeros((dim, dim))
    for j in range(dim):
        eps = np.zeros(dim)
        eps[j] = h
        out = []
        for sgn in (+1.0, -1.0):
            step = G.exp(G.TangentVector(tag, sgn * eps))
            if side == "right":
                el = G.compose(state.element, step)
            else:
                el = G.compose(step, state.element)
            pert = D.DiligentState(el, state.covariance, state.landmark_ids)
            out.append(D._motion_increment(pert, imu).components)
        jac[:, j] = (out[0] - out[1]) / (2.0 * h)
    return jac


@pytest.mark.parametrize("side", ["right", "left"])
def test_motion_jacobian_matches_finite_differences(rng, side):
    state = random_diligent_state(rng)
    imu = ImuInput(accel=np.array([0.2, -0.1, 9.9]),
                   gyro=np.array([0.05, -0.02, 0.1]), dt=0.01)
    if side == "right":
        analytic = D._motion_jacobian_right(state, imu)
    else:
        analytic = D._motion_jacobian_left(state, imu)
    fd = fd_motion_jacobian(state, imu, side)
    assert np.allclose(analytic, fd, atol=1e-5)


def fd_measurement_jacobian(state, foot, side, h=1e-6):
    tag = state.element.tag
    dim = state.dim
    z0 = D._predicted_foot_pose(state, foot)
    jac = np.zeros((6, dim))
    for j in range(dim):
        eps = np.zeros(dim)
        eps[j] = h
        out = []
        for sgn in (+1.0, -1.0):
            step = G.exp(G.TangentVector(tag, sgn * eps))
            if side == "right":
                el = G.compose(state.element, step)
            else:
                el = G.compose(step, state.element)
            pert = D.DiligentState(el, state.covariance, state.landmark_ids)
            zp = D._predicted_foot_pose(pert, foot)
            out.append(G.logvee(G.compose(G.inverse(z0), zp)))
        jac[:, j] = (out[0] - out[1]) / (2.0 * h)
    return jac


@pytest.mark.parametrize("foot", ["left", "right"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_foot_measurement_jacobian_matches_finite_differences(rng, foot, side):
    state = random_diligent_state(rng)
    if side == "right":
        analytic = D._measurement_jacobian_right(state, foot)
    else:
        analytic = D._measurement_jacobian_left(state, foot)
    fd = fd_measurement_jacobian(state, foot, side)
    assert np.allclose(analytic, fd, atol=1e-5)


# ---------------------------------------------------------------------------
# Behavior of the discrete-linearization filters


def test_standing_is_a_fixed_point_of_all_variants():
    _, state0, imu, meas = standing_setup()
    noise = E.NoiseConfig()
    contacts = {"left": True, "right": True}
    runs = {
        "plain": lambda st: E.diligent_update(
            E.diligent_predict(st, imu, contacts, noise), meas),
        "rie": lambda st: E.diligent_update(
            E.diligent_predict(st, imu, contacts, noise, side="left"), meas,
            side="left"),
        "cod": lambda st: E.diligent_update(
            E.codiligent_predict(st, imu, contacts, noise, "lie"), meas),
        "cod_rie": lambda st: E.diligent_update(
            E.codiligent_predict(st, imu, contacts, noise, "rie"), meas,
            side="left"),
    }
    for name, step in runs.items():
        st = state0
        for _ in range(50):
            st = step(st)
        assert np.allclose(st.base_position, state0.base_position,
                           atol=1e-9), name
        assert np.allclose(st.base_velocity, np.zeros(3), atol=1e-9), name
        assert np.allclose(st.base_rotation, np.eye(3), atol=1e-9), name
        evals = np.linalg.eigvalsh((st.covariance + st.covariance.T) / 2)
        assert np.all(evals > -1e-12), name


def test_free_fall_integrates_gravity():
    _, state, _, _ = standing_setup()
    noise = E.NoiseConfig()
    imu = ImuInput(accel=np.zeros(3), gyro=np.zeros(3), dt=0.01)
    contacts = {"left": False, "right": False}
    st = state
    for _ in range(100):
        st = E.diligent_predict(st, imu, contacts, noise)
    assert np.allclose(st.base_velocity, GRAV * 1.0, rtol=1e-6)
    # per-step v*dt + 0.5*a*dt^2 telescopes to exactly 0.5*a*T^2
    assert np.isclose(st.base_position[2] - 0.75, 0.5 * GRAV[2], rtol=1e-9)


def test_exact_integration_matches_first_order_for_small_steps():
    _, state, _, _ = standing_setup()
    noise = E.NoiseConfig()
    imu = ImuInput(accel=np.array([0.5, 0.0, 9.80665]),
                   gyro=np.array([0.0, 0.0, 0.4]), dt=0.001)
    contacts = {"left": True, "right": True}
    a = E.diligent_predict(state, imu, contacts, noise)
    b = E.diligent_predict(state, imu, contacts, noise,
                           exact_integration=True)
    assert np.allclose(a.element.matrix, b.element.matrix, atol=1e-6)
    assert np.allclose(a.covariance, b.covariance)


def test_large_step_warns():
    _, state, _, _ = standing_setup()
    noise = E.NoiseConfig()
    imu = ImuInput(accel=-GRAV, gyro=np.zeros(3), dt=0.05)
    with pytest.warns(UserWarning):
        E.diligent_predict(state, imu, {"left": True, "right": True}, noise)


def test_swing_foot_noise_is_inflated():
    _, state, imu, _ = standing_setup()
    noise = E.NoiseConfig()
    stance = E.diligent_predict(state, imu, {"left": True, "right": True},
                                noise)
    swing = E.diligent_predict(state, imu, {"left": False, "right": True},
                               noise)
    prior = np.trace(state.covariance[9:12, 9:12])
    added_stance = np.trace(stance.covariance[9:12, 9:12]) - prior
    added_swing = np.trace(swing.covariance[9:12, 9:12]) - prior
    assert np.isclose(added_swing / added_stance,
                      E.NoiseConfig().swing_scale ** 2, rtol=1e-6)
    right_stance = np.trace(stance.covariance[15:18, 15:18])
    right_swing = np.trace(swing.covariance[15:18, 15:18])
    assert np.isclose(right_stance, right_swing)


def test_update_gating_rejects_outliers():
    _, state, imu, meas = standing_setup()
    noise = E.NoiseConfig()
    st = E.diligent_predict(state, imu, {"left": True, "right": True}, noise)
    side, z, n = meas[0]
    bad = G.se3_element(np.eye(3), z.matrix[:3, 3] + np.array([5.0, 0, 0]))
    with pytest.raises(FC.MeasurementRejected):
        E.diligent_update(st, [(side, bad, n)], gate=9.0)
    # the same gate passes the nominal measurement
    E.diligent_update(st, [(side, z, n)], gate=9.0)


@pytest.mark.parametrize("feet", [("left",), ("left", "right")])
def test_foot_update_builds_no_validated_element(monkeypatch, feet):
    # the FK poses and the predicted foot poses are valid by construction,
    # so the stacked update assembles its composites without re-checking
    _, state, imu, meas = standing_setup()
    st = E.diligent_predict(state, imu, {"left": True, "right": True},
                            E.NoiseConfig())
    checks = []
    post_init = G.GroupElement.__post_init__
    monkeypatch.setattr(G.GroupElement, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    for side in ("right", "left"):
        E.diligent_update(st, [m for m in meas if m[0] in feet], side=side)
    assert checks == []


def test_accel_bias_estimation_on_stationary_data():
    """Standing still, the vertical accelerometer bias is observable through
    the leg kinematics; the horizontal components trade off against tilt and
    must stay consistent with their prior instead of pretending to converge."""
    noise = E.NoiseConfig(prior_accel_bias=0.05)
    chain, state, _, meas = standing_setup(noise)
    true_bias = np.array([0.03, -0.02, 0.04])
    imu = ImuInput(accel=-GRAV + true_bias, gyro=np.zeros(3), dt=0.01)
    contacts = {"left": True, "right": True}
    st = state
    for _ in range(1500):
        st = E.diligent_predict(st, imu, contacts, noise)
        st = E.diligent_update(st, meas)
    err = st.accel_bias - true_bias
    sigma = np.sqrt(np.diag(st.covariance[21:24, 21:24]))
    assert np.all(np.abs(err) < 3.0 * sigma)
    assert abs(err[2]) < 0.002          # vertical component locks in
    assert sigma[2] < 0.1 * noise.prior_accel_bias
    assert sigma[0] > 0.5 * noise.prior_accel_bias  # x stays prior-limited


# ---------------------------------------------------------------------------
# Continuous-linearization variants


def test_rie_error_matrix_bias_free_block_is_state_independent(rng):
    imu = ImuInput(accel=np.array([0.3, 0.1, 9.5]),
                   gyro=np.array([0.1, -0.2, 0.05]), dt=0.01)
    a = CD.codiligent_error_matrix(random_diligent_state(rng), imu, "rie")
    b = CD.codiligent_error_matrix(random_diligent_state(rng), imu, "rie")
    assert np.allclose(a[:21, :21], b[:21, :21])
    assert not np.allclose(a, b)  # bias columns do depend on the state


def test_lie_error_matrix_tracks_the_readings(rng):
    state = random_diligent_state(rng)
    imu1 = ImuInput(accel=np.array([0.0, 0.0, 9.8]),
                    gyro=np.array([0.0, 0.0, 0.1]), dt=0.01)
    imu2 = ImuInput(accel=np.array([1.0, 0.0, 9.8]),
                    gyro=np.array([0.2, 0.0, 0.1]), dt=0.01)
    imu3 = ImuInput(accel=np.array([1.0, 0.0, 9.8]),
                    gyro=np.array([0.0, 0.0, 0.1]), dt=0.01)
    a = CD.codiligent_error_matrix(state, imu1, "lie")
    b = CD.codiligent_error_matrix(state, imu2, "lie")
    c = CD.codiligent_error_matrix(state, imu3, "lie")
    assert not np.allclose(a, b)
    assert not np.allclose(a[3:6], b[3:6])  # rotation row tracks the gyro
    assert np.allclose(a[3:6], c[3:6])  # but not the accelerometer


def test_codiligent_rejects_unknown_variant(rng):
    state = random_diligent_state(rng)
    imu = ImuInput(accel=-GRAV, gyro=np.zeros(3), dt=0.01)
    with pytest.raises(G.InvalidArgumentError):
        E.codiligent_predict(state, imu, {}, E.NoiseConfig(), "both")


@pytest.mark.parametrize("family", ["discrete", "continuous"])
def test_halving_the_step_halves_covariance_growth(family):
    """Process noise is injected at sigma^2*dt^2 per step, so integrating a
    fixed horizon with half the step size halves the covariance growth."""
    _, state0, _, _ = standing_setup()
    # zero initial covariance isolates the injected process noise
    state = D.DiligentState(state0.element, np.zeros((27, 27)))
    noise = E.NoiseConfig()
    contacts = {"left": True, "right": True}

    def growth(dt, steps):
        imu = ImuInput(accel=-GRAV, gyro=np.zeros(3), dt=dt)
        st = state
        for _ in range(steps):
            if family == "discrete":
                st = E.diligent_predict(st, imu, contacts, noise)
            else:
                st = E.codiligent_predict(st, imu, contacts, noise, "rie")
        return np.trace(st.covariance)

    ratio = growth(0.01, 100) / growth(0.005, 200)
    assert 1.7 < ratio < 2.3


def test_process_noise_conventions():
    """The same NoiseConfig field is a per-step standard deviation in the
    DILIGENT family (variance sigma^2 dt^2) and a rate density in the human
    EKF (variance sigma^2 dt): one predict from a zero covariance at the
    identity adds exactly that to a stance foot's position."""
    noise = E.NoiseConfig()
    dt = 0.01
    ident = G.identity(G.SE3)
    prior = E.diligent_initial_state(ident, np.zeros(3), ident, ident, noise)
    state = D.DiligentState(prior.element, np.zeros((27, 27)))
    imu = ImuInput(accel=-GRAV, gyro=np.zeros(3), dt=dt)
    contacts = {"left": True, "right": True}
    expect = noise.foot_linear ** 2 * dt ** 2 * np.eye(3)
    for out in (E.diligent_predict(state, imu, contacts, noise),
                E.diligent_predict(state, imu, contacts, noise, side="left"),
                E.codiligent_predict(state, imu, contacts, noise, "lie"),
                E.codiligent_predict(state, imu, contacts, noise, "rie")):
        for foot in (slice(9, 12), slice(15, 18)):
            np.testing.assert_allclose(out.covariance[foot, foot], expect,
                                       rtol=1e-12, atol=0.0)
    human = H.human_initial_state(ident, np.zeros(3),
                                  [np.zeros(3)] * H.N_VERTICES, np.zeros(3),
                                  np.eye(3), np.eye(3), H.HUMAN_NOISE)
    human = H.HumanEkfState(human.element, np.zeros((42, 42)))
    out = H.human_ekf_predict(human, dt, H.HUMAN_NOISE)
    expect = H.HUMAN_NOISE.foot_linear ** 2 * dt * np.eye(3)
    for i in range(H.N_VERTICES):
        vs = H._vslot(i)
        np.testing.assert_allclose(out.covariance[vs, vs], expect,
                                   rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Landmark bookkeeping


def test_landmark_round_trip_is_exact(rng):
    state = random_diligent_state(rng)
    pose = G.se3_element(G.exp(G.TangentVector(
        G.SO3, rng.standard_normal(3))).matrix, rng.standard_normal(3))
    aug = E.augment_landmark(state, "door", pose, 0.02 * np.eye(6))
    assert aug.dim == state.dim + 6
    assert aug.landmark_ids == ("door",)
    assert np.allclose(E.landmark_pose(aug, "door").matrix, pose.matrix)
    # fresh landmark starts uncorrelated with everything else
    assert np.allclose(aug.covariance[21:27, :21], 0.0)
    assert np.allclose(aug.covariance[21:27, 27:], 0.0)
    back = E.marginalize_landmark(aug, "door")
    assert np.array_equal(back.covariance, state.covariance)
    assert np.array_equal(back.element.matrix, state.element.matrix)


def test_filtering_still_runs_with_a_landmark_in_the_state():
    _, state, imu, meas = standing_setup()
    noise = E.NoiseConfig()
    pose = G.se3_element(np.eye(3), [2.0, 0.0, 1.0])
    st = E.augment_landmark(state, "lm", pose, 0.05 * np.eye(6))
    for _ in range(10):
        st = E.diligent_predict(st, imu, {"left": True, "right": True}, noise)
        st = E.diligent_update(st, meas)
    assert np.allclose(st.base_position, state.base_position, atol=1e-9)
    assert np.allclose(E.landmark_pose(st, "lm").matrix, pose.matrix)
    with pytest.raises(G.InvalidArgumentError):
        E.marginalize_landmark(st, "nope")


@pytest.mark.parametrize("n_landmarks", [0, 2])
def test_diligent_accessors_match_the_composite_parts(rng, n_landmarks):
    state = random_diligent_state(rng)
    for i in range(n_landmarks):
        pose = G.exp(G.TangentVector(G.SE3, rng.standard_normal(6)))
        state = E.augment_landmark(state, f"lm{i}", pose, 0.1 * np.eye(6))
    parts = G.composite_parts(state.element)
    core, bias = parts[0].matrix, parts[-1].matrix
    assert np.array_equal(state.base_rotation, core[:3, :3])
    assert np.array_equal(state.base_position, core[:3, 3])
    assert np.array_equal(state.base_velocity, core[:3, 4])
    assert np.array_equal(state.accel_bias, bias[:3, 6])
    assert np.array_equal(state.gyro_bias, bias[3:6, 6])
    assert state.base_pose.tag == G.SE3
    assert np.array_equal(state.base_pose.matrix,
                          G.se3_element(core[:3, :3], core[:3, 3]).matrix)
    for side, part in (("left", parts[1]), ("right", parts[2])):
        assert state.foot_pose(side).tag == G.SE3
        assert np.array_equal(state.foot_pose(side).matrix, part.matrix)


def test_human_accessors_match_the_composite_parts(rng):
    state = make_human(v=np.array([0.2, -0.1, 0.05]),
                       w=np.array([0.01, 0.02, -0.03]))
    eps = 0.3 * rng.standard_normal(state.element.tag.algebra_dim)
    state = H.HumanEkfState(G.compose(state.element, G.exp(
        G.TangentVector(state.element.tag, eps))), state.covariance)
    core, rate, left, right = (p.matrix for p in
                               G.composite_parts(state.element))
    assert np.array_equal(state.base_rotation, core[:3, :3])
    assert np.array_equal(state.base_position, core[:3, 3])
    assert np.array_equal(state.base_velocity, core[:3, 4])
    assert np.array_equal(state.base_pose.matrix,
                          G.se3_element(core[:3, :3], core[:3, 3]).matrix)
    for i in range(H.N_VERTICES):
        assert np.array_equal(state.vertex_position(i), core[:3, 5 + i])
    assert np.array_equal(state.angular_velocity, rate[:3, 3])
    assert np.array_equal(state.foot_rotation("left"), left)
    assert np.array_equal(state.foot_rotation("right"), right)


# ---------------------------------------------------------------------------
# Human base estimator


def make_human(v=np.zeros(3), w=np.zeros(3)):
    pose = G.se3_element(np.eye(3), [0.0, 0.0, 1.0])
    verts = []
    for sign in (1.0, -1.0):
        for dx, dy in ((0.1, 0.05), (0.1, -0.05), (-0.1, 0.05), (-0.1, -0.05)):
            verts.append(np.array([dx, sign * 0.15 + dy, 0.0]))
    return H.human_initial_state(pose, v, verts, w, np.eye(3), np.eye(3))


def test_human_prediction_mean_is_constant_velocity():
    st = make_human(v=np.array([0.2, 0.0, 0.0]), w=np.array([0.0, 0.0, 0.5]))
    out = H.human_ekf_predict(st, 0.1)
    assert np.allclose(out.base_position, [0.02, 0.0, 1.0])
    expected_rot = G.exp(G.TangentVector(G.SO3, [0, 0, 0.05])).matrix
    assert np.allclose(out.base_rotation, expected_rot)
    assert np.allclose(out.base_velocity, st.base_velocity)
    assert np.allclose(out.angular_velocity, st.angular_velocity)
    for i in range(H.N_VERTICES):
        assert np.allclose(out.vertex_position(i), st.vertex_position(i))


def test_human_prediction_jacobian_matches_finite_differences():
    st = make_human(v=np.array([0.1, -0.2, 0.05]))
    dt, h = 1e-3, 1e-6
    tag = st.element.tag
    quiet = E.NoiseConfig(base_linear_rate=0.0, base_angular_rate=0.0,
                          foot_linear=0.0, foot_angular=0.0)

    def mean_map(el):
        tmp = H.HumanEkfState(el, st.covariance)
        return H.human_ekf_predict(tmp, dt, quiet).element

    base = mean_map(st.element)
    fd = np.zeros((42, 42))
    for j in range(42):
        eps = np.zeros(42)
        eps[j] = h
        cols = []
        for sgn in (+1.0, -1.0):
            pert = G.compose(G.exp(G.TangentVector(tag, sgn * eps)),
                             st.element)
            out = mean_map(pert)
            cols.append(G.logvee(G.compose(out, G.inverse(base))))
        fd[:, j] = (cols[0] - cols[1]) / (2.0 * h)
    p0 = np.diag(np.linspace(0.5, 1.5, 42))
    propagated = H.human_ekf_predict(
        H.HumanEkfState(st.element, p0), dt, quiet).covariance
    assert np.allclose(propagated, fd @ p0 @ fd.T, atol=1e-5)


def test_human_zero_velocity_updates_drive_velocity_down():
    st = make_human(v=np.array([0.3, 0.0, 0.0]), w=np.array([0.0, 0.0, 0.3]))
    cov = 1e-6 * np.eye(3)
    for _ in range(50):
        st = H.human_ekf_predict(st, 0.01)
        st = H.human_update_zupt_linear(st, np.zeros(3), cov)
        st = H.human_update_zupt_angular(st, np.zeros(3), cov)
    assert np.linalg.norm(st.base_velocity) < 1e-3
    assert np.linalg.norm(st.angular_velocity) < 1e-3


def test_human_base_gyro_tracks_the_reading():
    st = make_human()
    target = np.array([0.1, -0.05, 0.2])
    for _ in range(60):
        st = H.human_update_base_gyro(st, target, 1e-5 * np.eye(3))
    assert np.allclose(st.angular_velocity, target, atol=1e-3)


def test_human_relative_contact_position_snaps_the_vertex():
    st = make_human()
    measured = st.vertex_position(2) - st.base_position + np.array(
        [0.0, 0.0, -0.04])
    for _ in range(30):
        st = H.human_update_relative_contact_position(
            st, 2, measured, 1e-7 * np.eye(3))
    rel = st.vertex_position(2) - st.base_position
    assert np.allclose(rel, measured, atol=1e-3)


@pytest.mark.parametrize("invariant", [True, False])
def test_human_terrain_height_moves_only_the_vertical(invariant):
    st = make_human()
    before = st.vertex_position(5).copy()
    for _ in range(40):
        st = H.human_update_terrain_height(st, 5, -0.06, invariant=invariant)
    after = st.vertex_position(5)
    vertical_move = abs(after[2] - before[2])
    assert abs(after[2] - (-0.06)) < 0.01
    # cross-covariance may drag the horizontals a little, but far less
    assert np.linalg.norm(after[:2] - before[:2]) < 0.15 * vertical_move


def _captured_invariant_updates(monkeypatch):
    calls = []
    update = FC.invekf_update

    def spy(belief, z, b, h, n, side, **kwargs):
        calls.append(dict(z=np.atleast_2d(z), b=np.atleast_2d(b), h=h, n=n,
                          side=side))
        return update(belief, z, b, h, n, side, **kwargs)
    monkeypatch.setattr(FC, "invekf_update", spy)
    return calls


@pytest.mark.parametrize("kind", ["contact", "terrain"])
def test_human_stacked_update_stacks_the_single_vertex_rows(monkeypatch, kind):
    pose = G.se3_element(G.rpy_to_rotation(0.1, -0.2, 0.7).matrix,
                         [0.1, 0.2, 1.0])
    base = make_human()
    st = H.human_initial_state(
        pose, np.zeros(3), [base.vertex_position(i) for i in range(8)],
        np.zeros(3), np.eye(3), np.eye(3))
    verts = [2, 5, 7]
    if kind == "contact":
        rels = [np.array([0.1, 0.2, -0.9]) * (1 + j) for j in range(3)]
        covs = [np.diag([1e-4, 2e-4, 3e-4]) * (1 + j) for j in range(3)]
        stacked_args = (verts, rels, covs)
        single_args = list(zip(verts, rels, covs))
        fn = H.human_update_relative_contact_position
    else:
        heights = [-0.01, 0.02, 0.03]
        stacked_args = (verts, heights)
        single_args = list(zip(verts, heights))
        fn = H.human_update_terrain_height
        with pytest.raises(G.InvalidArgumentError):
            fn(st, verts, heights, invariant=False)
    calls = _captured_invariant_updates(monkeypatch)
    fn(st, *stacked_args)
    for args in single_args:
        fn(st, *args)
    stacked, singles = calls[0], calls[1:]
    assert all(c["side"] == stacked["side"] for c in singles)
    for key in ("z", "b", "h"):
        assert np.array_equal(stacked[key],
                              np.vstack([c[key] for c in singles]))
    n = np.zeros((9, 9))
    for j, c in enumerate(singles):
        n[3 * j:3 * j + 3, 3 * j:3 * j + 3] = c["n"]
    assert np.array_equal(stacked["n"], n)


def test_human_foot_rotation_updates_converge():
    st = make_human()
    target = G.exp(G.TangentVector(G.SO3, [0.0, 0.1, 0.0])).matrix
    for _ in range(40):
        st = H.human_update_relative_foot_rotation(st, "left", target,
                                                   1e-6 * np.eye(3))
    rel = st.base_rotation.T @ st.foot_rotation("left")
    err = G.logvee(G.so3_element(rel.T @ target))
    assert np.linalg.norm(err) < 1e-3
    # the other shoe is untouched up to cross-covariance effects
    assert np.allclose(st.foot_rotation("right"), np.eye(3), atol=0.02)


def test_human_contact_plane_aligns_the_shoe():
    st = make_human()
    plane = G.exp(G.TangentVector(G.SO3, [0.05, 0.0, 0.0])).matrix
    for _ in range(40):
        st = H.human_update_contact_plane(st, "right", plane, 1e-6 * np.eye(3))
    err = G.logvee(G.so3_element(st.foot_rotation("right").T @ plane))
    assert np.linalg.norm(err) < 1e-3


def test_human_updates_reject_gated_outliers():
    st = make_human()
    with pytest.raises(FC.MeasurementRejected):
        H.human_update_zupt_linear(st, np.array([50.0, 0.0, 0.0]),
                                   1e-6 * np.eye(3), gate=9.0)


def test_human_state_validates_its_shape():
    st = make_human()
    with pytest.raises(G.InvalidArgumentError):
        H.HumanEkfState(st.element, np.eye(10))
    with pytest.raises(G.InvalidArgumentError):
        st.vertex_position(8)


# ---------------------------------------------------------------------------
# Anchored odometry


def test_swa_standing_still_reports_zero_twist():
    chain = make_biped()
    s = np.zeros(chain.dof)
    base = G.se3_element(np.eye(3), [0, 0, 0.75])
    st = E.swa_start(chain, s, "left_sole", base)
    contacts = {"left_sole": True, "right_sole": True}
    for _ in range(5):
        st = E.swa_step(st, chain, s, np.zeros(chain.dof), np.zeros(3),
                        np.eye(3), contacts)
    assert np.allclose(st.base_pose.matrix, base.matrix, atol=1e-9)
    assert np.allclose(st.base_twist, np.zeros(6), atol=1e-9)
    assert st.stance == ("left_sole", "right_sole")


def test_swa_anchor_switch_keeps_the_pose_continuous():
    chain = make_biped()
    s = np.zeros(chain.dof)
    base = G.se3_element(np.eye(3), [0, 0, 0.75])
    st = E.swa_start(chain, s, "left_sole", base)
    st = E.swa_step(st, chain, s, np.zeros(chain.dof), np.zeros(3), np.eye(3),
                    {"left_sole": False, "right_sole": True})
    assert st.odometry.fixed_frame == "right_sole"
    assert np.allclose(st.base_pose.matrix[:3, 3], base.matrix[:3, 3],
                       atol=1e-9)


def test_swa_without_contact_coasts_on_the_old_anchor():
    chain = make_biped()
    s = np.zeros(chain.dof)
    st = E.swa_start(chain, s, "left_sole",
                     G.se3_element(np.eye(3), [0, 0, 0.75]))
    out = E.swa_step(st, chain, s, np.zeros(chain.dof),
                     np.array([0.0, 0.0, 0.2]), np.eye(3),
                     {"left_sole": False, "right_sole": False})
    assert out.stance == ()
    assert out.odometry.fixed_frame == "left_sole"
    assert np.allclose(out.base_twist[3:], [0.0, 0.0, 0.2], atol=1e-6)


def test_swa_yaw_comes_from_kinematics_tilt_from_the_imu():
    chain = make_biped()
    s = np.zeros(chain.dof)
    base = G.se3_element(np.eye(3), [0, 0, 0.75])
    st = E.swa_start(chain, s, "left_sole", base)
    imu_rot = G.rpy_to_rotation(0.1, -0.05, 1.2).matrix
    out = E.swa_step(st, chain, s, np.zeros(chain.dof), np.zeros(3), imu_rot,
                     {"left_sole": True}, orientation_weights=(0.0, 1.0))
    roll, pitch, yaw = G.rotation_to_rpy(
        G.so3_element(out.base_pose.matrix[:3, :3]))
    assert np.isclose(roll, 0.1, atol=1e-6)
    assert np.isclose(pitch, -0.05, atol=1e-6)
    assert np.isclose(yaw, 0.0, atol=1e-6)  # kinematic yaw is zero here


# ---------------------------------------------------------------------------
# Noise configuration


def test_noise_config_round_trips_through_json(tmp_path):
    cfg = E.NoiseConfig(accel=0.2, terrain_height=0.05)
    path = tmp_path / "noise.json"
    path.write_text(__import__("json").dumps(cfg.to_dict()))
    loaded = E.load_noise_config(str(path))
    assert loaded == cfg


def test_noise_config_validation():
    with pytest.raises(G.InvalidArgumentError):
        E.NoiseConfig(accel=-1.0)
    with pytest.raises(G.InvalidArgumentError):
        E.load_noise_config({"accel": 0.1, "bogus": 2.0})
