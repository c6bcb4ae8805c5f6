import json

import numpy as np
import pytest

import lie_estimate.groups as G
import lie_estimate.kinematics as K

from conftest import random_element


def make_arm(n=3, axis=(0.0, 0.0, 1.0), length=0.4):
    links = ["base"] + [f"l{i}" for i in range(1, n + 1)]
    joints = []
    for i in range(n):
        origin = G.se3_element(np.eye(3), np.array([length, 0.0, 0.0]))
        joints.append(K.Joint(f"j{i}", links[i], links[i + 1], axis, origin))
    frames = [K.SensorFrame("tip", links[-1],
                            G.se3_element(np.eye(3), np.array([length, 0, 0])))]
    return K.KinematicChain(links, joints, "base", frames)


def make_biped():
    links = ["pelvis"]
    joints = []
    frames = []
    ey = np.array([0.0, 1.0, 0.0])
    for side, sign in (("l", 1.0), ("r", -1.0)):
        hip = G.se3_element(np.eye(3), np.array([0.0, sign * 0.1, 0.0]))
        thigh = G.se3_element(np.eye(3), np.array([0.0, 0.0, -0.35]))
        shank = G.se3_element(np.eye(3), np.array([0.0, 0.0, -0.35]))
        links += [f"{side}_thigh", f"{side}_shank", f"{side}_foot"]
        joints += [K.Joint(f"{side}_hip", "pelvis", f"{side}_thigh", ey, hip),
                   K.Joint(f"{side}_knee", f"{side}_thigh", f"{side}_shank", ey, thigh),
                   K.Joint(f"{side}_ankle", f"{side}_shank", f"{side}_foot", ey, shank)]
        frames.append(K.SensorFrame(
            f"{side}_sole", f"{side}_foot",
            G.se3_element(np.eye(3), np.array([0.0, 0.0, -0.05]))))
    return K.KinematicChain(links, joints, "pelvis", frames)


def fd_relative_jacobian(chain, s, a, b, h=1e-6):
    base = K.relative_fk(chain, s, a, b)
    jac = np.zeros((6, chain.dof))
    for j in range(chain.dof):
        sp, sm = s.copy(), s.copy()
        sp[j] += h
        sm[j] -= h
        ep = G.logvee(G.compose(G.inverse(base), K.relative_fk(chain, sp, a, b)))
        em = G.logvee(G.compose(G.inverse(base), K.relative_fk(chain, sm, a, b)))
        jac[:, j] = (ep - em) / (2.0 * h)
    return jac


def world_pose(chain, s, base_pose, frame):
    return G.compose(base_pose, K.relative_fk(chain, s, chain.base_link, frame))


def fd_mixed_jacobian(chain, s, base_pose, frame, h=1e-6):
    n = 6 + chain.dof
    jac = np.zeros((6, n))
    p0 = G.se3_translation(base_pose)
    r0 = base_pose.matrix[:3, :3]
    def posed(delta):
        dp, dw, ds = delta[:3], delta[3:6], delta[6:]
        rot = G.exp(G.TangentVector(G.SO3, dw)).matrix
        return world_pose(chain, s + ds, G.se3_element(rot @ r0, p0 + dp), frame)
    for k in range(n):
        d = np.zeros(n)
        d[k] = h
        wp, wm = posed(d), posed(-d)
        jac[:3, k] = (G.se3_translation(wp) - G.se3_translation(wm)) / (2 * h)
        rel = wp.matrix[:3, :3] @ wm.matrix[:3, :3].T
        jac[3:, k] = G.logvee(G.so3_element(rel)) / (2 * h)
    return jac


# --- joint transforms and forward kinematics ---------------------------------

def test_joint_transform_zero_is_identity():
    assert np.array_equal(K.joint_transform([0, 0, 1], 0.0).matrix, np.eye(4))


def test_joint_transform_quarter_turn_z():
    m = K.joint_transform([0, 0, 1], np.pi / 2).matrix
    assert np.allclose(m[:3, :3], [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
    assert np.allclose(m[:3, 3], 0.0)


def test_joint_transform_matches_group_exp(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(-2, 2)
    expect = G.exp(G.TangentVector(G.SE3, np.concatenate([np.zeros(3), theta * axis])))
    assert np.abs(K.joint_transform(axis, theta).matrix - expect.matrix).max() < 1e-12


def test_fk_same_frame_identity(rng):
    chain = make_arm()
    s = rng.standard_normal(3)
    assert np.allclose(K.relative_fk(chain, s, "l2", "l2").matrix, np.eye(4))


def test_fk_single_joint_matches_composition():
    chain = make_arm(1)
    theta = 0.7
    expect = G.compose(chain.joints[0].origin,
                       K.joint_transform([0, 0, 1], theta))
    got = K.relative_fk(chain, [theta], "base", "l1")
    assert np.abs(got.matrix - expect.matrix).max() < 1e-12


def test_fk_inverse_symmetry(rng):
    chain = make_arm()
    s = rng.standard_normal(3)
    fwd = K.relative_fk(chain, s, "base", "tip")
    rev = K.relative_fk(chain, s, "tip", "base")
    assert np.abs(fwd.matrix - G.inverse(rev).matrix).max() < 1e-12


def test_unknown_frame_rejected():
    chain = make_arm()
    with pytest.raises(G.InvalidArgumentError):
        K.relative_fk(chain, np.zeros(3), "base", "nope")


def test_load_chain_round_trip(tmp_path):
    q = G.rotation_to_quaternion(G.rpy_to_rotation(0.1, 0.2, 0.3).matrix)
    data = {
        "base": "base",
        "links": ["base", "l1"],
        "joints": [{"name": "j0", "parent": "base", "child": "l1",
                    "axis": [0, 1, 0], "origin": [0.1, 0.2, 0.3, *q]}],
        "sensor_frames": [{"name": "imu", "link": "l1",
                           "origin": [0, 0, 0.05, 1, 0, 0, 0]}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    chain = K.load_chain(str(path))
    assert chain.dof == 1
    assert "imu" in chain.sensor_frames
    direct = K.load_chain(data)
    got = K.relative_fk(chain, [0.4], "base", "imu")
    expect = K.relative_fk(direct, [0.4], "base", "imu")
    assert np.abs(got.matrix - expect.matrix).max() < 1e-12


def composed_link_poses(chain, s):
    """Link poses by the plain composition parent * origin * joint rotation,
    one joint at a time in any order that reaches parents first."""
    poses = {chain.base_link: G.identity(G.SE3)}
    pending = list(chain.joints)
    while pending:
        for j in [j for j in pending if j.parent in poses]:
            theta = s[chain.joints.index(j)]
            poses[j.child] = G.compose(G.compose(poses[j.parent], j.origin),
                                       K.joint_transform(j.axis, theta))
            pending.remove(j)
    return poses


def branched_chain_json():
    """A torso with two three-joint arms and a head, joints listed children
    first, with tilted axes and rotated origins."""
    def origin(rng_xyz, rpy):
        q = G.rotation_to_quaternion(G.rpy_to_rotation(*rpy).matrix)
        return [*rng_xyz, *q]
    joints = [
        {"name": "l_wrist", "parent": "l_fore", "child": "l_hand",
         "axis": [0.0, 0.6, 0.8], "origin": origin([0.25, 0, 0], [0.1, 0, 0])},
        {"name": "neck", "parent": "torso", "child": "head",
         "axis": [0, 0, 1], "origin": origin([0, 0, 0.3], [0, 0.2, 0])},
        {"name": "l_elbow", "parent": "l_upper", "child": "l_fore",
         "axis": [1, 0, 0], "origin": origin([0.3, 0, 0], [0, 0, 0.4])},
        {"name": "l_shoulder", "parent": "torso", "child": "l_upper",
         "axis": [0, 1, 0], "origin": origin([0, 0.2, 0.2], [0.3, -0.1, 0])},
        {"name": "r_shoulder", "parent": "torso", "child": "r_upper",
         "axis": [0, -1, 0], "origin": origin([0, -0.2, 0.2], [-0.3, 0.1, 0])},
        {"name": "r_elbow", "parent": "r_upper", "child": "r_fore",
         "axis": [0.0, 0.8, -0.6], "origin": origin([0.3, 0, 0], [0, 0, -0.4])},
    ]
    return {"base": "torso",
            "links": ["torso", "head", "l_upper", "l_fore", "l_hand",
                      "r_upper", "r_fore"],
            "joints": joints,
            "sensor_frames": [{"name": "l_palm", "link": "l_hand",
                               "origin": [0.05, 0, 0, 1, 0, 0, 0]}]}


@pytest.mark.parametrize("which", ["walker", "branched"])
def test_link_poses_match_plain_composition(rng, tmp_path, which):
    if which == "walker":
        from lie_estimate import simdata as S
        chain = S.walker_chain()
    else:
        path = tmp_path / "branched.json"
        path.write_text(json.dumps(branched_chain_json()))
        chain = K.load_chain(str(path))
    for _ in range(20):
        s = rng.uniform(-np.pi, np.pi, chain.dof)
        got = chain.link_poses(s)
        expect = composed_link_poses(chain, s)
        assert set(got) == set(chain.links)
        for link in chain.links:
            assert got[link].tag == G.SE3
            assert np.abs(got[link].matrix - expect[link].matrix).max() < 1e-12
            G._check_element(G.SE3, got[link].matrix)


def test_poses_keyword_gives_the_same_results(rng):
    chain = make_biped()
    s = 0.5 * rng.standard_normal(6)
    poses = chain.link_poses(s)
    base = random_element(G.SE3, rng)
    pairs = [
        (K.relative_fk(chain, s, "l_sole", "r_foot", poses).matrix,
         K.relative_fk(chain, s, "l_sole", "r_foot").matrix),
        (K.relative_jacobian_left_trivialized(chain, s, "pelvis", "r_sole",
                                              poses),
         K.relative_jacobian_left_trivialized(chain, s, "pelvis", "r_sole")),
        (K.mixed_jacobian(chain, s, base, "l_sole", poses),
         K.mixed_jacobian(chain, s, base, "l_sole")),
        (K.base_velocity_from_contact(chain, s, np.ones(6), "l_sole", base,
                                      poses),
         K.base_velocity_from_contact(chain, s, np.ones(6), "l_sole", base)),
    ]
    for a, b in pairs:
        assert np.array_equal(a, b)


def test_joint_transform_rejects_a_non_unit_axis():
    with pytest.raises(G.InvalidArgumentError):
        K.joint_transform([0.0, 0.0, 2.0], 0.3)


def test_non_tree_rejected():
    links = ["base", "a"]
    ident = G.identity(G.SE3)
    j1 = K.Joint("j1", "base", "a", [0, 0, 1], ident)
    j2 = K.Joint("j2", "base", "a", [0, 1, 0], ident)
    with pytest.raises(G.InvalidArgumentError):
        K.KinematicChain(links, [j1, j2], "base")


# --- Jacobians ----------------------------------------------------------------

def test_relative_jacobian_zero_rates(rng):
    chain = make_arm()
    jac = K.relative_jacobian_left_trivialized(
        chain, rng.standard_normal(3), "base", "tip")
    assert np.allclose(jac @ np.zeros(3), 0.0)


def test_relative_jacobian_single_revolute():
    chain = make_arm(1)
    jac = K.relative_jacobian_left_trivialized(chain, [0.3], "base", "l1")
    assert np.allclose(jac[:, 0], [0, 0, 0, 0, 0, 1], atol=1e-12)


def test_relative_jacobian_finite_difference(rng):
    chain = make_biped()
    for a, b in [("pelvis", "l_sole"), ("l_sole", "r_sole"), ("r_foot", "pelvis")]:
        s = 0.5 * rng.standard_normal(6)
        jac = K.relative_jacobian_left_trivialized(chain, s, a, b)
        fd = fd_relative_jacobian(chain, s, a, b)
        assert np.abs(jac - fd).max() < 1e-5


def per_joint_relative_jacobian(chain, s, frame_from, frame_to):
    """Column by column: sign * Ad(target^-1 * child pose) (0, axis) for each
    joint on the tree path, -1 on the way up from frame_from, +1 on the way
    down to frame_to."""
    def joints_to_base(frame):
        link, out = chain.frame_link(frame)[0], []
        while link != chain.base_link:
            j = next(j for j in chain.joints if j.child == link)
            out.append(j)
            link = j.parent
        return out
    up, down = joints_to_base(frame_from), joints_to_base(frame_to)
    path = ([(j, -1.0) for j in up if j not in down]
            + [(j, 1.0) for j in down if j not in up])
    poses = chain.link_poses(s)
    target_inv = G.inverse(chain.frame_pose(s, frame_to, poses))
    jac = np.zeros((6, chain.dof))
    for j, sign in path:
        rel = G.compose(target_inv, poses[j.child])
        jac[:, chain.joints.index(j)] = (
            sign * G.adjoint(rel) @ np.concatenate([np.zeros(3), j.axis]))
    return jac


@pytest.mark.parametrize("which", ["walker", "branched"])
def test_batched_relative_jacobian_matches_the_per_joint_formula(rng, which):
    if which == "walker":
        from lie_estimate import simdata as S
        chain = S.walker_chain()
        pairs = [("pelvis", "left_sole"), ("right_sole", "pelvis"),
                 ("left_sole", "right_sole"), ("left_foot", "left_sole")]
    else:
        chain = K.load_chain(branched_chain_json())
        pairs = [("torso", "l_palm"), ("l_palm", "head"), ("r_fore", "l_fore"),
                 ("l_upper", "l_palm"), ("head", "torso")]
    for _ in range(10):
        s = rng.uniform(-np.pi, np.pi, chain.dof)
        for a, b in pairs:
            got = K.relative_jacobian_left_trivialized(chain, s, a, b)
            expect = per_joint_relative_jacobian(chain, s, a, b)
            assert np.abs(got - expect).max() < 1e-12


def test_mixed_jacobian_at_base_is_identity_block(rng):
    chain = make_arm()
    base = random_element(G.SE3, rng)
    jac = K.mixed_jacobian(chain, rng.standard_normal(3), base, "base")
    assert np.abs(jac[:, :6] - np.eye(6)).max() < 1e-12
    assert np.abs(jac[:, 6:]).max() < 1e-12


def test_mixed_jacobian_finite_difference(rng):
    chain = make_biped()
    s = 0.5 * rng.standard_normal(6)
    base = random_element(G.SE3, rng)
    for frame in ["l_sole", "r_foot", "pelvis"]:
        jac = K.mixed_jacobian(chain, s, base, frame)
        fd = fd_mixed_jacobian(chain, s, base, frame)
        assert np.abs(jac - fd).max() < 1e-5


# --- odometry -----------------------------------------------------------------

def test_odometry_constant_shape_keeps_base(rng):
    chain = make_biped()
    s = 0.3 * rng.standard_normal(6)
    base = random_element(G.SE3, rng)
    state = K.odometry_start(chain, s, "l_sole", base)
    for _ in range(3):
        state = K.odometry_update(state, chain, s)
        assert np.abs(state.base_pose.matrix - base.matrix).max() < 1e-12


def test_odometry_invariant_after_updates(rng):
    chain = make_biped()
    base = random_element(G.SE3, rng)
    s = 0.2 * rng.standard_normal(6)
    state = K.odometry_start(chain, s, "l_sole", base)
    for _ in range(5):
        s = s + 0.05 * rng.standard_normal(6)
        state = K.odometry_update(state, chain, s)
        expect = G.compose(state.fixed_pose,
                           K.relative_fk(chain, s, "l_sole", "pelvis"))
        assert np.abs(state.base_pose.matrix - expect.matrix).max() < 1e-9


def test_odometry_switch_is_continuous(rng):
    chain = make_biped()
    s = 0.2 * rng.standard_normal(6)
    state = K.odometry_start(chain, s, "l_sole", random_element(G.SE3, rng))
    before = K.odometry_update(state, chain, s)
    after = K.odometry_update(state, chain, s, contact_switch="r_sole")
    assert after.fixed_frame == "r_sole"
    assert np.abs(after.base_pose.matrix - before.base_pose.matrix).max() < 1e-12


def test_odometry_two_step_gait_matches_hand_composition(rng):
    chain = make_biped()
    s0 = np.array([0.1, -0.2, 0.1, -0.1, 0.2, -0.1])
    s1 = s0 + 0.3 * rng.standard_normal(6)
    s2 = s1 + 0.3 * rng.standard_normal(6)
    base0 = random_element(G.SE3, rng)
    state = K.odometry_start(chain, s0, "l_sole", base0)
    state = K.odometry_update(state, chain, s1, contact_switch="r_sole")
    state = K.odometry_update(state, chain, s2)
    anchor = G.compose(base0, K.relative_fk(chain, s0, "pelvis", "l_sole"))
    expect = G.compose(G.compose(anchor, K.relative_fk(chain, s1, "l_sole", "r_sole")),
                       K.relative_fk(chain, s2, "r_sole", "pelvis"))
    assert np.abs(state.base_pose.matrix - expect.matrix).max() < 1e-9


# --- contact-constrained base velocity -----------------------------------------

def test_base_velocity_zero_rates(rng):
    chain = make_biped()
    nu = K.base_velocity_from_contact(chain, 0.2 * rng.standard_normal(6),
                                      np.zeros(6), "l_sole",
                                      random_element(G.SE3, rng))
    assert np.allclose(nu, 0.0, atol=1e-12)


def test_base_velocity_single_ankle_analytic():
    ankle = G.se3_element(np.eye(3), np.array([0.0, 0.0, -0.5]))
    chain = K.KinematicChain(
        ["base", "foot"],
        [K.Joint("ankle", "base", "foot", [0, 1, 0], ankle)], "base")
    theta_dot = 0.8
    nu = K.base_velocity_from_contact(chain, [0.0], [theta_dot], "foot",
                                      G.identity(G.SE3))
    # base pivots about the ankle point (0,0,-0.5) with world rate -theta_dot y
    assert np.allclose(nu, [-0.5 * theta_dot, 0, 0, 0, -theta_dot, 0], atol=1e-10)


def test_base_velocity_residual_property(rng):
    chain = make_biped()
    for _ in range(5):
        s = 0.4 * rng.standard_normal(6)
        sd = rng.standard_normal(6)
        base = random_element(G.SE3, rng)
        nu = K.base_velocity_from_contact(chain, s, sd, "r_sole", base)
        jac = K.mixed_jacobian(chain, s, base, "r_sole")
        assert np.abs(jac @ np.concatenate([nu, sd])).max() < 1e-9


# --- velocity fusion ------------------------------------------------------------

def test_fused_velocity_exact_square_system(rng):
    a = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    x_true = rng.standard_normal(6)
    out = K.fused_base_velocity([{"rows": a, "target": a @ x_true}],
                                regularizer=0.0)
    assert np.abs(out - x_true).max() < 1e-10


def test_fused_velocity_matches_direct_solve(rng):
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    y = rng.standard_normal(4)
    out = K.fused_base_velocity([{"rows": a, "target": y}], regularizer=0.0)
    assert np.abs(out - np.linalg.solve(a, y)).max() < 1e-10


def test_fused_velocity_strong_damping_goes_to_zero(rng):
    a = rng.standard_normal((3, 3))
    y = rng.standard_normal(3)
    out = K.fused_base_velocity([{"rows": a, "target": y}], regularizer=1e12)
    assert np.abs(out).max() < 1e-9


def test_fused_velocity_weighted_stacking(rng):
    # two conflicting scalar constraints, weights decide the compromise
    out = K.fused_base_velocity(
        [{"rows": [[1.0]], "target": [0.0], "weight": 3.0},
         {"rows": [[1.0]], "target": [1.0], "weight": 1.0}],
        regularizer=0.0)
    assert abs(out[0] - 0.25) < 1e-12


def test_fused_velocity_singular_without_damping():
    with pytest.raises(K.SingularNormalEquations):
        K.fused_base_velocity(
            [{"rows": [[1.0, 0.0], [1.0, 0.0]], "target": [1.0, 1.0]}],
            regularizer=0.0)


# --- rotating foot -------------------------------------------------------------

def test_rotating_foot_zero_gyro():
    out = K.rotating_foot_velocity(np.zeros(3), [0.1, 0, 0], np.eye(3))
    assert np.allclose(out, 0.0)


def test_rotating_foot_cross_product():
    # foot origin velocity while pivoting about a point on the +x axis:
    # v = p x omega, so omega about +z sweeps the origin toward -y
    out = K.rotating_foot_velocity([0, 0, 2.0], [0.3, 0, 0], np.eye(3))
    assert np.allclose(out, [0, -0.6, 0, 0, 0, 2.0], atol=1e-12)


def test_rotating_foot_matches_simulated_base_velocity():
    # a rigid body pivots about a fixed world contact point; the twist built
    # from the foot gyro must reproduce the finite-difference base velocity
    offset = G.se3_element(np.eye(3), np.array([0.15, 0.0, 0.4]))
    chain = K.KinematicChain(["base"], [], "base",
                             [K.SensorFrame("foot", "base", G.inverse(offset))])
    omega_local = np.array([0.4, -0.3, 0.8])
    p_fp = np.array([0.1, 0.05, 0.0])
    r0 = G.rpy_to_rotation(0.1, 0.0, 0.2).matrix
    p_f0 = np.array([0.0, 0.0, 0.1])
    contact_world = p_f0 + r0 @ p_fp
    dt = 1e-4
    def foot_pose(t):
        rot = r0 @ G.exp(G.TangentVector(G.SO3, omega_local * t)).matrix
        return G.se3_element(rot, contact_world - rot @ p_fp)
    def base_pose(t):
        return G.compose(foot_pose(t), offset)
    t = 0.37
    fp = foot_pose(t)
    twist = K.rotating_foot_velocity(omega_local, p_fp, fp.matrix[:3, :3])
    jac = K.mixed_jacobian(chain, np.zeros(0), base_pose(t), "foot")
    nu_base = np.linalg.solve(jac[:, :6], twist)
    bp, bm = base_pose(t + dt), base_pose(t - dt)
    v_fd = (G.se3_translation(bp) - G.se3_translation(bm)) / (2 * dt)
    w_fd = G.logvee(G.so3_element(
        bp.matrix[:3, :3] @ bm.matrix[:3, :3].T)) / (2 * dt)
    assert np.abs(nu_base[:3] - v_fd).max() < 2e-3
    assert np.abs(nu_base[3:] - w_fd).max() < 2e-3


# --- dynamical inverse kinematics ------------------------------------------------

def test_dynik_exact_targets_zero_correction(rng):
    chain = make_arm()
    s = 0.3 * rng.standard_normal(3)
    base = G.identity(G.SE3)
    tip = world_pose(chain, s, base, "tip")
    state = K.DynIkState(base, s, np.zeros(9))
    targets = [
        K.IkTarget("base", position=np.zeros(3), rotation=np.eye(3), gain=5.0),
        K.IkTarget("tip", position=G.se3_translation(tip),
                   rotation=tip.matrix[:3, :3], gain=5.0),
    ]
    new = K.dynik_step(chain, state, targets, dt=1e-3)
    assert np.abs(new.velocity).max() < 1e-6
    assert np.abs(new.joint_positions - s).max() < 1e-8


def test_dynik_orientation_error_decays_exponentially():
    chain = make_arm(1)
    gain, dt = 4.0, 1e-3
    e0 = 0.3
    target_rot = K.relative_fk(chain, [e0], "base", "l1").matrix[:3, :3]
    state = K.DynIkState(G.identity(G.SE3), np.zeros(1), np.zeros(7))
    targets = [K.IkTarget("base", position=np.zeros(3), rotation=np.eye(3),
                          gain=gain, weight=1e6),
               K.IkTarget("l1", rotation=target_rot, gain=gain)]
    steps = int(5.0 / gain / dt)  # five time constants
    for i in range(steps):
        state = K.dynik_step(chain, state, targets, dt=dt)
        t = (i + 1) * dt
        rot = world_pose(chain, state.joint_positions, state.base_pose,
                         "l1").matrix[:3, :3]
        err = np.linalg.norm(G.logvee(G.so3_element(rot.T @ target_rot)))
        assert abs(err - e0 * np.exp(-gain * t)) < 0.02 * e0


def test_dynik_converges_from_random_start(rng):
    chain = make_arm(3)
    s_goal = rng.uniform(-1.0, 1.0, 3)
    goal = world_pose(chain, s_goal, G.identity(G.SE3), "tip")
    state = K.DynIkState(G.identity(G.SE3), rng.uniform(-1, 1, 3), np.zeros(9))
    targets = [K.IkTarget("base", position=np.zeros(3), rotation=np.eye(3),
                          gain=10.0, weight=1e6),
               K.IkTarget("tip", position=G.se3_translation(goal),
                          rotation=goal.matrix[:3, :3], gain=10.0)]
    residuals = []
    for _ in range(2000):
        state = K.dynik_step(chain, state, targets, dt=1e-2)
        tip = world_pose(chain, state.joint_positions, state.base_pose, "tip")
        r = np.concatenate([
            G.se3_translation(goal) - G.se3_translation(tip),
            G.logvee(G.so3_element(tip.matrix[:3, :3].T @ goal.matrix[:3, :3]))])
        residuals.append(np.linalg.norm(r))
        if residuals[-1] < 1e-6:
            break
    assert residuals[-1] < 1e-4
    # discrete stability proxy: nonincreasing over 10-step windows
    for i in range(0, len(residuals) - 10, 10):
        assert residuals[i + 10] <= residuals[i] + 1e-12
