import math

import numpy as np
import pytest

from lie_estimate import groups as G

from conftest import (
    ALL_TAGS,
    adjoint_algebra,
    random_element,
    random_tangent,
    series_expm,
    series_left_jacobian,
)


# ---------------------------------------------------------------------------
# hat / vee


def test_hat_so3_basis():
    m = G.hat(G.TangentVector(G.SO3, [1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(m, [[0, 0, 0], [0, 0, -1], [0, 1, 0]])


def test_hat_se3_zero():
    m = G.hat(G.TangentVector(G.SE3, np.zeros(6)))
    np.testing.assert_array_equal(m, np.zeros((4, 4)))


def test_hat_sek3_structure(rng):
    # Structural oracle: assemble the block layout independently.
    v = random_tangent(G.SEk3(2), rng)
    c = v.components
    expected = np.zeros((5, 5))
    expected[:3, :3] = G.skew(c[3:6])
    expected[:3, 3] = c[0:3]
    expected[:3, 4] = c[6:9]
    np.testing.assert_array_equal(G.hat(v), expected)


def test_vee_is_inverse_of_hat(rng):
    for tag in ALL_TAGS:
        v = random_tangent(tag, rng)
        out = G.vee(G.hat(v), tag)
        np.testing.assert_array_equal(out.components, v.components)


def test_vee_zero_matrix():
    for tag in ALL_TAGS:
        d = tag.matrix_dim
        out = G.vee(np.zeros((d, d)), tag)
        np.testing.assert_array_equal(out.components, np.zeros(tag.algebra_dim))


def test_vee_so3_example():
    out = G.vee(np.array([[0.0, -3, 2], [3, 0, -1], [-2, 1, 0]]), G.SO3)
    np.testing.assert_array_equal(out.components, [1.0, 2.0, 3.0])


def test_vee_rejects_non_skew():
    with pytest.raises(G.InvalidArgumentError):
        G.vee(np.eye(3), G.SO3)


def test_hat_dimension_mismatch():
    with pytest.raises(G.InvalidArgumentError):
        G.TangentVector(G.SO3, np.zeros(4))


# ---------------------------------------------------------------------------
# exp / log


def test_exp_zero_is_identity():
    for tag in ALL_TAGS:
        x = G.exp(G.TangentVector(tag, np.zeros(tag.algebra_dim)))
        np.testing.assert_allclose(x.matrix, np.eye(tag.matrix_dim), atol=1e-15)


def test_exp_so3_quarter_turn():
    x = G.exp(G.TangentVector(G.SO3, [math.pi / 2, 0, 0]))
    np.testing.assert_allclose(x.matrix, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)


def test_exp_matches_series_oracle(rng):
    for tag in ALL_TAGS:
        for _ in range(20):
            v = random_tangent(tag, rng, scale=0.8)
            expected = series_expm(G.hat(v))
            np.testing.assert_allclose(G.exp(v).matrix, expected, atol=1e-12)


def test_log_identity_is_zero():
    for tag in ALL_TAGS:
        out = G.log(G.identity(tag))
        np.testing.assert_allclose(out.components, 0.0, atol=1e-15)


def test_log_quarter_turn():
    x = G.exp(G.TangentVector(G.SO3, [math.pi / 2, 0, 0]))
    np.testing.assert_allclose(G.log(x).components, [math.pi / 2, 0, 0], atol=1e-12)


def test_exp_log_round_trip(rng):
    for tag in ALL_TAGS:
        for _ in range(50):
            v = random_tangent(tag, rng, scale=0.9)
            x = G.exp(v)
            np.testing.assert_allclose(G.log(x).components, v.components, atol=1e-10)
            np.testing.assert_allclose(G.exp(G.log(x)).matrix, x.matrix, atol=1e-9)


def test_log_small_angle(rng):
    for _ in range(10):
        v = random_tangent(G.SE3, rng, scale=1e-8)
        np.testing.assert_allclose(
            G.log(G.exp(v)).components, v.components, atol=1e-15)


def test_log_at_pi_raises_with_candidates():
    x = G.exp(G.TangentVector(G.SO3, [math.pi, 0, 0]))
    with pytest.raises(G.AmbiguousLogarithmError) as e:
        G.log(x)
    cands = e.value.candidates
    assert len(cands) == 2
    np.testing.assert_allclose(np.abs(cands[0]), [math.pi, 0, 0], atol=1e-9)
    np.testing.assert_allclose(cands[0], -np.asarray(cands[1]), atol=1e-12)


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_identity():
    for tag in ALL_TAGS:
        np.testing.assert_array_equal(
            G.adjoint(G.identity(tag)), np.eye(tag.algebra_dim))


def test_adjoint_so3_is_rotation(rng):
    x = random_element(G.SO3, rng)
    np.testing.assert_array_equal(G.adjoint(x), x.matrix)


def test_adjoint_conjugation_identity(rng):
    for tag in ALL_TAGS:
        for _ in range(10):
            x = random_element(tag, rng, scale=0.7)
            a = random_tangent(tag, rng, scale=0.4)
            lhs = G.compose(G.compose(x, G.exp(a)), G.inverse(x)).matrix
            rhs = G.exp(G.TangentVector(tag, G.adjoint(x) @ a.components)).matrix
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_tn_adjoint_is_identity(rng):
    x = random_element(G.Tn(4), rng)
    np.testing.assert_array_equal(G.adjoint(x), np.eye(4))


# ---------------------------------------------------------------------------
# Jacobians


def test_left_jacobian_zero_is_identity():
    for tag in ALL_TAGS:
        v = G.TangentVector(tag, np.zeros(tag.algebra_dim))
        np.testing.assert_allclose(G.left_jacobian(v), np.eye(tag.algebra_dim),
                                   atol=1e-15)


def test_so3_left_jacobian_small_angle_series(rng):
    for _ in range(20):
        v = random_tangent(G.SO3, rng, scale=1e-3)
        approx = np.eye(3) + 0.5 * G.skew(v.components)
        err = np.linalg.norm(G.left_jacobian(v) - approx)
        assert err <= np.linalg.norm(v.components) ** 2


def test_left_jacobian_matches_series_oracle(rng):
    for tag in ALL_TAGS:
        for _ in range(20):
            v = random_tangent(tag, rng, scale=0.7)
            np.testing.assert_allclose(
                G.left_jacobian(v), series_left_jacobian(v), atol=1e-10)


@pytest.mark.parametrize("theta", [2e-6, 1e-5, 1e-4, 1e-3, 1e-2])
def test_se3_small_angles_match_the_series(rng, theta):
    # 1 - cos(theta) and the closed forms of Q cancel catastrophically at
    # small angles; the kernels must stay exact to rounding there
    for _ in range(50):
        axis = rng.standard_normal(3)
        c = np.concatenate([rng.uniform(-1.0, 1.0, 3),
                            theta * axis / np.linalg.norm(axis)])
        v = G.TangentVector(G.SE3, c)
        np.testing.assert_allclose(G.left_jacobian(v),
                                   series_left_jacobian(v, terms=60),
                                   rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(G.exp(v).matrix,
                                   series_expm(G.hat(v), terms=60),
                                   rtol=0.0, atol=1e-14)


def test_jacobian_inverse(rng):
    for tag in ALL_TAGS:
        for _ in range(10):
            v = random_tangent(tag, rng, scale=0.9)
            p = tag.algebra_dim
            np.testing.assert_allclose(
                G.left_jacobian(v) @ G.left_jacobian_inv(v), np.eye(p), atol=1e-9)
            np.testing.assert_allclose(
                G.right_jacobian(v) @ G.right_jacobian_inv(v), np.eye(p), atol=1e-9)


def test_jacobian_relations(rng):
    for tag in ALL_TAGS:
        v = random_tangent(tag, rng, scale=0.8)
        neg = G.TangentVector(tag, -v.components)
        np.testing.assert_allclose(
            G.right_jacobian(v), G.left_jacobian(neg), atol=1e-12)
        np.testing.assert_allclose(
            G.left_jacobian(v), G.adjoint(G.exp(v)) @ G.right_jacobian(v),
            atol=1e-9)


def test_right_jacobian_push_forward(rng):
    # exp(a + b) = exp(a) exp(J_r(a) b) to first order in b.
    for tag in [G.SO3, G.SE3, G.SEk3(2)]:
        a = random_tangent(tag, rng, scale=0.6)
        b_dir = random_tangent(tag, rng, scale=1.0).components
        b_dir /= np.linalg.norm(b_dir)
        jr = G.right_jacobian(a)
        residuals = []
        scales = [1e-2, 1e-3, 1e-4]
        for s in scales:
            b = s * b_dir
            lhs = G.exp(G.TangentVector(tag, a.components + b))
            rhs = G.compose(G.exp(a), G.exp(G.TangentVector(tag, jr @ b)))
            res = np.linalg.norm(G.logvee(G.compose(G.inverse(rhs), lhs)))
            residuals.append(res)
        for s, r in zip(scales, residuals):
            assert r <= 10.0 * s * s


def test_jacobian_singular_angle():
    v = G.TangentVector(G.SO3, [2 * math.pi, 0, 0])
    with pytest.raises(G.SingularJacobianError):
        G.left_jacobian_inv(v)


# ---------------------------------------------------------------------------
# compose / inverse / identity


def test_compose_with_identity(rng):
    for tag in ALL_TAGS:
        x = random_element(tag, rng)
        np.testing.assert_array_equal(
            G.compose(x, G.identity(tag)).matrix, x.matrix)


def test_inverse_of_product(rng):
    for tag in ALL_TAGS:
        x = random_element(tag, rng, scale=0.8)
        y = random_element(tag, rng, scale=0.8)
        lhs = G.inverse(G.compose(x, y)).matrix
        rhs = G.compose(G.inverse(y), G.inverse(x)).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_inverse_times_self(rng):
    for tag in ALL_TAGS:
        x = random_element(tag, rng, scale=0.9)
        np.testing.assert_allclose(
            G.compose(G.inverse(x), x).matrix, np.eye(tag.matrix_dim),
            atol=1e-10)


def test_se3_tuple_composition(rng):
    r1 = random_element(G.SO3, rng).matrix
    r2 = random_element(G.SO3, rng).matrix
    p1 = rng.normal(size=3)
    p2 = rng.normal(size=3)
    out = G.compose(G.se3_element(r1, p1), G.se3_element(r2, p2))
    np.testing.assert_allclose(G.se3_translation(out), r1 @ p2 + p1, atol=1e-12)
    np.testing.assert_allclose(G.se3_rotation(out), r1 @ r2, atol=1e-12)


def test_se3_is_se13():
    assert G.SE3 == G.SEk3(1)
    assert G.SE3.algebra_dim == 6 and G.SE3.matrix_dim == 4


def test_se3_composes_with_a_one_column_sek3_element(rng):
    r1 = random_element(G.SO3, rng).matrix
    r2 = random_element(G.SO3, rng).matrix
    p1 = rng.normal(size=3)
    p2 = rng.normal(size=3)
    out = G.compose(G.se3_element(r1, p1), G.sek3_element(r2, [p2]))
    assert out.tag == G.SE3
    np.testing.assert_allclose(G.se3_translation(out), r1 @ p2 + p1, atol=1e-12)
    np.testing.assert_allclose(G.se3_rotation(out), r1 @ r2, atol=1e-12)


def test_compose_tag_mismatch(rng):
    with pytest.raises(G.InvalidArgumentError):
        G.compose(random_element(G.SO3, rng), random_element(G.SE3, rng))


def test_exp_homomorphism_one_parameter(rng):
    for tag in ALL_TAGS:
        a = random_tangent(tag, rng, scale=0.5).components
        t1, t2 = 0.3, 0.9
        lhs = G.compose(G.exp(G.TangentVector(tag, t1 * a)),
                        G.exp(G.TangentVector(tag, t2 * a))).matrix
        rhs = G.exp(G.TangentVector(tag, (t1 + t2) * a)).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_bch_first_order(rng):
    for tag in [G.SO3, G.SE3, G.SEk3(2)]:
        a = random_tangent(tag, rng, scale=0.5)
        jr_inv = G.right_jacobian_inv(a)
        b_dir = random_tangent(tag, rng).components
        b_dir /= np.linalg.norm(b_dir)
        for s in [1e-3, 1e-4]:
            b = s * b_dir
            full = G.logvee(G.compose(G.exp(a), G.exp(G.TangentVector(tag, b))))
            approx = a.components + jr_inv @ b
            assert np.linalg.norm(full - approx) <= 10.0 * s * s


def test_composite_blockwise_equality(rng):
    tag = G.composite(G.SEk3(2), G.SE3, G.Tn(6))
    v = random_tangent(tag, rng, scale=0.7)
    parts = [G.TangentVector(G.SEk3(2), v.components[:9]),
             G.TangentVector(G.SE3, v.components[9:15]),
             G.TangentVector(G.Tn(6), v.components[15:])]
    whole = G.exp(v)
    assembled = G.composite_element(tag, [G.exp(p) for p in parts])
    np.testing.assert_array_equal(whole.matrix, assembled.matrix)
    split = G.composite_parts(whole)
    for part_el, p in zip(split, parts):
        np.testing.assert_array_equal(part_el.matrix, G.exp(p).matrix)


# ---------------------------------------------------------------------------
# Batched kernels: a composite runs every block in one pass


KERNEL_TAGS = {
    "diligent": G.composite(G.SEk3(2), G.SE3, G.SE3, G.Tn(6)),
    "diligent-2-landmarks": G.composite(G.SEk3(2), *[G.SE3] * 4, G.Tn(6)),
    "human": G.composite(G.SEk3(10), G.Tn(3), G.SO3, G.SO3),
}


def _blkdiag(blocks):
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d))
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


def _tangent_parts(v):
    out, i = [], 0
    for part in v.tag.parts:
        out.append(G.TangentVector(part, v.components[i:i + part.algebra_dim]))
        i += part.algebra_dim
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_TAGS))
def test_batched_kernels_equal_the_leaf_kernels_blockwise(rng, name):
    tag = KERNEL_TAGS[name]
    for _ in range(10):
        v = random_tangent(tag, rng, scale=0.9)
        parts = _tangent_parts(v)
        x = G.exp(v)
        leaves = G.composite_parts(x)
        np.testing.assert_array_equal(
            x.matrix, _blkdiag([G.exp(p).matrix for p in parts]))
        np.testing.assert_array_equal(
            G.log(x).components,
            np.concatenate([G.log(e).components for e in leaves]))
        np.testing.assert_array_equal(
            G.adjoint(x), _blkdiag([G.adjoint(e) for e in leaves]))
        np.testing.assert_array_equal(
            G.inverse(x).matrix,
            _blkdiag([G.inverse(e).matrix for e in leaves]))
        for kernel in (G.left_jacobian, G.right_jacobian, G.left_jacobian_inv):
            np.testing.assert_array_equal(
                kernel(v), _blkdiag([kernel(p) for p in parts]))


def test_composite_with_a_small_and_a_large_angle_matches_the_series(rng):
    tag = G.composite(G.SEk3(2), G.SE3, G.SO3)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, tag.algebra_dim)
        phi = rng.standard_normal(3)
        c[3:6] = 0.5 * G._SMALL_ANGLE * phi / np.linalg.norm(phi)
        phi = rng.standard_normal(3)
        c[12:15] = rng.uniform(0.9, 1.1) * phi / np.linalg.norm(phi)
        v = G.TangentVector(tag, c)
        np.testing.assert_allclose(G.exp(v).matrix, series_expm(G.hat(v)),
                                   atol=1e-12)
        np.testing.assert_allclose(G.left_jacobian(v), series_left_jacobian(v),
                                   atol=1e-10)
        np.testing.assert_allclose(
            G.left_jacobian(v) @ G.left_jacobian_inv(v),
            np.eye(tag.algebra_dim), atol=1e-10)
        np.testing.assert_allclose(G.log(G.exp(v)).components, c, atol=1e-10)


def test_nested_composite_matches_its_flat_composite(rng):
    inner = G.composite(G.SE3, G.Tn(2))
    nested = G.composite(G.SEk3(2), inner, G.SO3)
    flat = G.composite(G.SEk3(2), G.SE3, G.Tn(2), G.SO3)
    assert nested.algebra_dim == flat.algebra_dim == 20
    assert nested.matrix_dim == flat.matrix_dim == 15
    for _ in range(5):
        c = rng.uniform(-0.8, 0.8, flat.algebra_dim)
        a, b = G.TangentVector(nested, c), G.TangentVector(flat, c)
        x, y = G.exp(a), G.exp(b)
        np.testing.assert_array_equal(x.matrix, y.matrix)
        np.testing.assert_array_equal(G.log(x).components, G.log(y).components)
        np.testing.assert_array_equal(G.adjoint(x), G.adjoint(y))
        np.testing.assert_array_equal(G.inverse(x).matrix, G.inverse(y).matrix)
        np.testing.assert_array_equal(G.hat(a), G.hat(b))
        np.testing.assert_array_equal(G.vee(G.hat(a), nested).components, c)
        for kernel in (G.left_jacobian, G.right_jacobian, G.left_jacobian_inv,
                       G.right_jacobian_inv):
            np.testing.assert_array_equal(kernel(a), kernel(b))
        G.GroupElement(nested, x.matrix)
        parts = G.composite_parts(x)
        assert [p.tag for p in parts] == [G.SEk3(2), inner, G.SO3]
        np.testing.assert_array_equal(
            G.composite_element(nested, parts).matrix, x.matrix)


def test_composite_tags_are_interned():
    assert G.composite(G.SE3, G.SE3) is G.composite(G.SE3, G.SE3)
    assert G.composite(G.SEk3(2), G.Tn(6)) is G.composite(G.SEk3(2), G.Tn(6))
    assert G.SEk3(3) is G.SEk3(3) and G.Tn(4) is G.Tn(4)
    assert G.composite(G.SE3, G.SE3) is not G.composite(G.SE3, G.SO3)


def test_element_rejects_off_diagonal_entries_of_a_composite(rng):
    tag = G.composite(G.SE3, G.Tn(3))
    m = G.exp(random_tangent(tag, rng)).matrix.copy()
    m[1, 6] = 0.1
    with pytest.raises(G.InvalidArgumentError):
        G.GroupElement(tag, m)


# ---------------------------------------------------------------------------
# RPY and quaternions


def test_rpy_zero_is_identity():
    np.testing.assert_array_equal(G.rpy_to_rotation(0, 0, 0).matrix, np.eye(3))


def test_rpy_ten_degrees():
    d = math.radians(10.0)
    r = G.rpy_to_rotation(d, d, d).matrix
    expected = np.array([
        [0.9698, -0.1413, 0.1986],
        [0.1710, 0.9751, -0.1413],
        [-0.1736, 0.1710, 0.9698],
    ])
    np.testing.assert_allclose(r, expected, atol=5e-5)


def test_rpy_round_trip(rng):
    for _ in range(100):
        rpy = rng.uniform([-math.pi, -math.radians(80), -math.pi],
                          [math.pi, math.radians(80), math.pi])
        out = G.rotation_to_rpy(G.rpy_to_rotation(*rpy))
        np.testing.assert_allclose(out, rpy, atol=1e-10)


def test_rpy_gimbal_lock():
    with pytest.raises(G.GimbalLockError):
        G.rotation_to_rpy(G.rpy_to_rotation(0.3, math.pi / 2, 0.1))


def test_quaternion_round_trip(rng):
    for _ in range(100):
        r = random_element(G.SO3, rng, scale=2.5).matrix
        q = G.rotation_to_quaternion(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        np.testing.assert_allclose(G.quaternion_to_rotation(q), r, atol=1e-12)


# ---------------------------------------------------------------------------
# element validation


def test_element_rejects_bad_rotation():
    m = np.eye(3)
    m[0, 0] = 1.5
    with pytest.raises(G.InvalidArgumentError):
        G.GroupElement(G.SO3, m)


def test_element_rejects_bad_bottom_row():
    m = np.eye(4)
    m[3, 0] = 0.1
    with pytest.raises(G.InvalidArgumentError):
        G.GroupElement(G.SE3, m)
