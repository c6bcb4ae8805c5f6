"""Matrix Lie group kernel.

Supported groups: SO(3), SE_k(3) for k >= 1 (SE(3) is SE_1(3)), T(n),
and composite (direct-product) groups stored block-diagonally. Tangent
vectors use a linear-first, angular-second serialization: SE(3) is
(rho, phi), SE_2(3) is (rho, phi, psi), and SE_k(3) generalizes to
(u1, phi, u2, ..., uk) where u1 is the first translation column. Adjoint
and Jacobian block layouts follow the same ordering.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_SMALL_ANGLE = 1e-6
_ORTHO_TOL = 1e-9


class LieGroupError(ValueError):
    """Base class for group-kernel errors."""


class InvalidArgumentError(LieGroupError):
    pass


class AmbiguousLogarithmError(LieGroupError):
    """Rotation angle is at pi; the axis is not unique.

    Carries the two antipodal candidate axes in ``candidates``.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class SingularJacobianError(LieGroupError):
    pass


class GimbalLockError(LieGroupError):
    pass


# ---------------------------------------------------------------------------
# Tags


@dataclass(frozen=True)
class GroupTag:
    """Identifies a group family and its shape.

    family is one of "SO3", "SEk3", "Tn", "Composite".
    k is the number of translation columns for SEk3, n the dimension for Tn,
    parts the tuple of member tags for Composite. SE(3) is SE_1(3): the
    tag SE3 is SEk3(1), so an SE(3) element composes with a one-column
    sek3_element.
    """

    family: str
    k: int = 0
    n: int = 0
    parts: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.family not in ("SO3", "SEk3", "Tn", "Composite"):
            raise InvalidArgumentError(f"unknown group family {self.family!r}")
        if self.family == "SEk3" and self.k < 1:
            raise InvalidArgumentError("SEk3 requires k >= 1")
        if self.family == "Tn" and self.n < 1:
            raise InvalidArgumentError("Tn requires n >= 1")
        if self.family == "Composite" and not self.parts:
            raise InvalidArgumentError("Composite requires at least one part")

    @functools.cached_property
    def algebra_dim(self) -> int:
        if self.family == "SO3":
            return 3
        if self.family == "SEk3":
            return 3 + 3 * self.k
        if self.family == "Tn":
            return self.n
        return sum(p.algebra_dim for p in self.parts)

    @functools.cached_property
    def matrix_dim(self) -> int:
        if self.family == "SO3":
            return 3
        if self.family == "SEk3":
            return 3 + self.k
        if self.family == "Tn":
            return self.n + 1
        return sum(p.matrix_dim for p in self.parts)


SO3 = GroupTag("SO3")
SE3 = GroupTag("SEk3", k=1)


def SEk3(k: int) -> GroupTag:
    return GroupTag("SEk3", k=k)


def Tn(n: int) -> GroupTag:
    return GroupTag("Tn", n=n)


def composite(*parts: GroupTag) -> GroupTag:
    return GroupTag("Composite", parts=tuple(parts))


# ---------------------------------------------------------------------------
# Elements and tangent vectors


@dataclass(frozen=True)
class GroupElement:
    tag: GroupTag
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        _check_element(self.tag, m)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)


@dataclass(frozen=True)
class TangentVector:
    tag: GroupTag
    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=float).reshape(-1)
        object.__setattr__(self, "components", v)
        if v.shape[0] != self.tag.algebra_dim:
            raise InvalidArgumentError(
                f"tangent vector length {v.shape[0]} != algebra dim "
                f"{self.tag.algebra_dim} for {self.tag.family}"
            )


@functools.lru_cache(maxsize=None)
def _affine_bottom(k: int) -> np.ndarray:
    out = np.hstack([np.zeros((k, 3)), np.eye(k)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    out = np.eye(n)
    out.setflags(write=False)
    return out


def _check_element(tag: GroupTag, m: np.ndarray):
    d = tag.matrix_dim
    if m.shape != (d, d):
        raise InvalidArgumentError(f"matrix shape {m.shape} != ({d}, {d})")
    if tag.family == "SO3":
        _check_rotation(m)
    elif tag.family == "SEk3":
        _check_rotation(m[:3, :3])
        if not np.array_equal(m[3:, :], _affine_bottom(tag.k)):
            raise InvalidArgumentError("bottom rows must be [0 | I] exactly")
    elif tag.family == "Tn":
        n = tag.n
        if not np.array_equal(m[:n, :n], _eye(n)):
            raise InvalidArgumentError("T(n) top-left block must be identity")
        if not np.array_equal(m[n, :], _eye(n + 1)[n]):
            raise InvalidArgumentError("T(n) bottom row must be [0 ... 0 1]")
    else:
        for part, sub in zip(tag.parts, _diag_blocks(tag, m)):
            _check_element(part, sub)


def _check_rotation(r: np.ndarray):
    if np.abs(r.T @ r - _eye(3)).max() > _ORTHO_TOL:
        raise InvalidArgumentError("rotation block is not orthonormal")
    # determinant by cofactor expansion; +1 for a proper rotation
    (a, b, c), (d, e, f), (g, h, i) = r
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > _ORTHO_TOL:
        raise InvalidArgumentError("rotation block determinant is not +1")


def _diag_blocks(tag: GroupTag, m: np.ndarray):
    i = 0
    for part in tag.parts:
        d = part.matrix_dim
        yield m[i:i + d, i:i + d]
        i += d


def _tangent_slices(tag: GroupTag):
    i = 0
    for part in tag.parts:
        p = part.algebra_dim
        yield part, slice(i, i + p)
        i += p


# ---------------------------------------------------------------------------
# Scalar helper series


def skew(v) -> np.ndarray:
    """3x3 skew-symmetric matrix S(v) with S(v) w = v x w."""
    x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _norm(v) -> float:
    # np.linalg.norm of a 1-D vector is sqrt(v.dot(v)); without its dispatch
    v = np.asarray(v, dtype=float)
    return math.sqrt(v.dot(v))


def _sinc(theta: float) -> float:
    # sin(theta)/theta
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(theta) / theta


def _cosc(theta: float) -> float:
    # (1 - cos(theta)) / theta^2
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    return (1.0 - math.cos(theta)) / (theta * theta)


def _so3_exp(phi: np.ndarray) -> np.ndarray:
    theta = _norm(phi)
    s = skew(phi)
    return _eye(3) + _sinc(theta) * s + _cosc(theta) * (s @ s)


def _so3_log(r: np.ndarray) -> np.ndarray:
    c = (np.trace(r) - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    theta = math.acos(c)
    if math.pi - theta < 1e-9:
        # Axis from the symmetric part: R ~ 2 a a^T - I at theta = pi.
        w, vecs = np.linalg.eigh((r + np.eye(3)) / 2.0)
        axis = vecs[:, np.argmax(w)]
        axis = axis / np.linalg.norm(axis)
        raise AmbiguousLogarithmError(
            "rotation angle is at pi; axis sign is ambiguous",
            candidates=(math.pi * axis, -math.pi * axis),
        )
    if theta < _SMALL_ANGLE:
        # theta/(2 sin theta) ~ 1/2 + theta^2/12 + ...
        factor = 0.5 + theta * theta / 12.0
    else:
        factor = theta / (2.0 * math.sin(theta))
    a = factor * (r - r.T)
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def _so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    theta = _norm(phi)
    s = skew(phi)
    if theta < _SMALL_ANGLE:
        return _eye(3) + 0.5 * s + (s @ s) / 6.0
    a = np.asarray(phi, dtype=float) / theta
    sa = _sinc(theta)
    return sa * _eye(3) + (1.0 - sa) * np.outer(a, a) + _cosc(theta) * theta * skew(a)


def _so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    theta = _norm(phi)
    _check_jacobian_angle(theta)
    s = skew(phi)
    if theta < _SMALL_ANGLE:
        return _eye(3) - 0.5 * s + (s @ s) / 12.0
    a = np.asarray(phi, dtype=float) / theta
    half = theta / 2.0
    cot = half / math.tan(half)
    return cot * _eye(3) + (1.0 - cot) * np.outer(a, a) - half * skew(a)


def _check_jacobian_angle(theta: float):
    m = round(theta / (2.0 * math.pi))
    if m != 0 and abs(theta - 2.0 * math.pi * m) < 1e-9:
        raise SingularJacobianError(
            f"left Jacobian is singular at theta = 2*pi*{m}"
        )


def _se3_q_matrix(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Q block of the SE(3)-style left Jacobian for translation slot u."""
    theta = _norm(phi)
    su = skew(u)
    sp = skew(phi)
    if theta < _SMALL_ANGLE:
        # Leading terms of the series; O(theta^2) beyond the linear term.
        return 0.5 * su + (sp @ su + su @ sp) / 6.0
    t2 = theta * theta
    c1 = (theta - math.sin(theta)) / (t2 * theta)
    c2 = (t2 + 2.0 * math.cos(theta) - 2.0) / (2.0 * t2 * t2)
    c3 = (2.0 * theta - 3.0 * math.sin(theta) + theta * math.cos(theta)) / (
        2.0 * t2 * t2 * theta
    )
    return (
        0.5 * su
        + c1 * (sp @ su + su @ sp + sp @ su @ sp)
        + c2 * (sp @ sp @ su + su @ sp @ sp - 3.0 * sp @ su @ sp)
        + c3 * (sp @ su @ sp @ sp + sp @ sp @ su @ sp)
    )


# ---------------------------------------------------------------------------
# Serialization helpers for SEk3 (k translation slots, phi after the first)


def _split_sek3(v: np.ndarray, k: int):
    """Return (phi, [u1, ..., uk]) from a (u1, phi, u2, ..., uk) vector."""
    u = [v[0:3]]
    phi = v[3:6]
    for i in range(1, k):
        u.append(v[3 + 3 * i:6 + 3 * i])
    return phi, u


def _join_sek3(phi: np.ndarray, u) -> np.ndarray:
    out = [u[0], phi]
    out.extend(u[1:])
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Core operators


def hat(v: TangentVector) -> np.ndarray:
    tag = v.tag
    c = v.components
    if tag.family == "SO3":
        return skew(c)
    if tag.family == "SEk3":
        phi, u = _split_sek3(c, tag.k)
        m = np.zeros((3 + tag.k, 3 + tag.k))
        m[:3, :3] = skew(phi)
        for i in range(tag.k):
            m[:3, 3 + i] = u[i]
        return m
    if tag.family == "Tn":
        n = tag.n
        m = np.zeros((n + 1, n + 1))
        m[:n, n] = c
        return m
    m = np.zeros((tag.matrix_dim, tag.matrix_dim))
    i = 0
    for part, sl in _tangent_slices(tag):
        d = part.matrix_dim
        m[i:i + d, i:i + d] = hat(TangentVector(part, c[sl]))
        i += d
    return m


def vee(a: np.ndarray, tag: GroupTag) -> TangentVector:
    a = np.asarray(a, dtype=float)
    d = tag.matrix_dim
    if a.shape != (d, d):
        raise InvalidArgumentError(f"algebra matrix shape {a.shape} != ({d}, {d})")
    if tag.family == "SO3":
        _check_skew(a)
        return TangentVector(tag, np.array([a[2, 1], a[0, 2], a[1, 0]]))
    if tag.family == "SEk3":
        _check_skew(a[:3, :3])
        phi = np.array([a[2, 1], a[0, 2], a[1, 0]])
        u = [a[:3, 3 + i] for i in range(tag.k)]
        return TangentVector(tag, _join_sek3(phi, u))
    if tag.family == "Tn":
        return TangentVector(tag, a[:tag.n, tag.n].copy())
    parts = []
    i = 0
    for part in tag.parts:
        dd = part.matrix_dim
        parts.append(vee(a[i:i + dd, i:i + dd], part).components)
        i += dd
    return TangentVector(tag, np.concatenate(parts))


def _check_skew(a: np.ndarray):
    if np.abs(a + a.T).max() > _ORTHO_TOL:
        raise InvalidArgumentError("rotational block is not skew-symmetric")


def exp(v: TangentVector) -> GroupElement:
    tag = v.tag
    c = v.components
    if tag.family == "SO3":
        return _trusted_element(tag, _so3_exp(c))
    if tag.family == "SEk3":
        phi, u = _split_sek3(c, tag.k)
        r = _so3_exp(phi)
        j = _so3_left_jacobian(phi)
        m = np.eye(3 + tag.k)
        m[:3, :3] = r
        for i in range(tag.k):
            m[:3, 3 + i] = j @ u[i]
        return _trusted_element(tag, m)
    if tag.family == "Tn":
        n = tag.n
        m = np.eye(n + 1)
        m[:n, n] = c
        return _trusted_element(tag, m)
    blocks = [exp(TangentVector(p, c[sl])).matrix for p, sl in _tangent_slices(tag)]
    return _trusted_element(tag, _blkdiag(blocks))


def log(x: GroupElement) -> TangentVector:
    tag = x.tag
    m = x.matrix
    if tag.family == "SO3":
        return TangentVector(tag, _so3_log(m))
    if tag.family == "SEk3":
        phi = _so3_log(m[:3, :3])
        jinv = np.linalg.inv(_so3_left_jacobian(phi))
        u = [jinv @ m[:3, 3 + i] for i in range(tag.k)]
        return TangentVector(tag, _join_sek3(phi, u))
    if tag.family == "Tn":
        return TangentVector(tag, m[:tag.n, tag.n].copy())
    parts = [log(_trusted_element(p, b)).components
             for p, b in zip(tag.parts, _diag_blocks(tag, m))]
    return TangentVector(tag, np.concatenate(parts))


def adjoint(x: GroupElement) -> np.ndarray:
    tag = x.tag
    m = x.matrix
    if tag.family == "SO3":
        return m.copy()
    if tag.family == "SEk3":
        r = m[:3, :3]
        p = tag.algebra_dim
        adj = np.zeros((p, p))
        # Slot layout: u1 at 0:3, phi at 3:6, u_i at 3+3i:6+3i for i >= 1.
        slots = [slice(0, 3)] + [slice(3 + 3 * i, 6 + 3 * i) for i in range(1, tag.k)]
        phi_sl = slice(3, 6)
        adj[phi_sl, phi_sl] = r
        for i, sl in enumerate(slots):
            adj[sl, sl] = r
            adj[sl, phi_sl] = skew(m[:3, 3 + i]) @ r
        return adj
    if tag.family == "Tn":
        return np.eye(tag.n)
    blocks = [adjoint(_trusted_element(p, b))
              for p, b in zip(tag.parts, _diag_blocks(tag, m))]
    return _blkdiag(blocks)


def left_jacobian(v: TangentVector) -> np.ndarray:
    tag = v.tag
    c = v.components
    if tag.family == "SO3":
        return _so3_left_jacobian(c)
    if tag.family == "SEk3":
        phi, u = _split_sek3(c, tag.k)
        j3 = _so3_left_jacobian(phi)
        p = tag.algebra_dim
        jac = np.zeros((p, p))
        slots = [slice(0, 3)] + [slice(3 + 3 * i, 6 + 3 * i) for i in range(1, tag.k)]
        phi_sl = slice(3, 6)
        jac[phi_sl, phi_sl] = j3
        for i, sl in enumerate(slots):
            jac[sl, sl] = j3
            jac[sl, phi_sl] = _se3_q_matrix(u[i], phi)
        return jac
    if tag.family == "Tn":
        return np.eye(tag.n)
    blocks = [left_jacobian(TangentVector(p, c[sl]))
              for p, sl in _tangent_slices(tag)]
    return _blkdiag(blocks)


def right_jacobian(v: TangentVector) -> np.ndarray:
    return left_jacobian(TangentVector(v.tag, -v.components))


def left_jacobian_inv(v: TangentVector) -> np.ndarray:
    tag = v.tag
    if tag.family == "SO3":
        return _so3_left_jacobian_inv(v.components)
    if tag.family == "Tn":
        return np.eye(tag.n)
    if tag.family == "Composite":
        blocks = [left_jacobian_inv(TangentVector(p, v.components[sl]))
                  for p, sl in _tangent_slices(tag)]
        return _blkdiag(blocks)
    # SE(3)/SEk3: the blocks are not triangular in the linear-first
    # serialization, so invert the dense closed form.
    phi = v.components[3:6]
    _check_jacobian_angle(_norm(phi))
    return np.linalg.inv(left_jacobian(v))


def right_jacobian_inv(v: TangentVector) -> np.ndarray:
    return left_jacobian_inv(TangentVector(v.tag, -v.components))


def compose(x: GroupElement, y: GroupElement) -> GroupElement:
    if x.tag != y.tag:
        raise InvalidArgumentError("cannot compose elements with different tags")
    return _trusted_element(x.tag, x.matrix @ y.matrix)


def inverse(x: GroupElement) -> GroupElement:
    tag = x.tag
    m = x.matrix
    if tag.family == "SO3":
        return _trusted_element(tag, m.T.copy())
    if tag.family == "SEk3":
        r = m[:3, :3]
        out = np.eye(3 + tag.k)
        out[:3, :3] = r.T
        out[:3, 3:] = -r.T @ m[:3, 3:]
        return _trusted_element(tag, out)
    if tag.family == "Tn":
        n = tag.n
        out = np.eye(n + 1)
        out[:n, n] = -m[:n, n]
        return _trusted_element(tag, out)
    blocks = [inverse(_trusted_element(p, b)).matrix
              for p, b in zip(tag.parts, _diag_blocks(tag, m))]
    return _trusted_element(tag, _blkdiag(blocks))


def identity(tag: GroupTag) -> GroupElement:
    return _trusted_element(tag, np.eye(tag.matrix_dim))


def logvee(x: GroupElement) -> np.ndarray:
    """Convenience: components of log(x)."""
    return log(x).components


def _blkdiag(blocks) -> np.ndarray:
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d))
    i = 0
    for b in blocks:
        s = b.shape[0]
        out[i:i + s, i:i + s] = b
        i += s
    return out


# ---------------------------------------------------------------------------
# Composite helpers


def composite_element(tag: GroupTag, parts) -> GroupElement:
    """Assemble a composite element from per-part GroupElements."""
    if tag.family != "Composite":
        raise InvalidArgumentError("composite_element requires a Composite tag")
    if len(parts) != len(tag.parts):
        raise InvalidArgumentError("part count mismatch")
    for p, el in zip(tag.parts, parts):
        if el.tag != p:
            raise InvalidArgumentError("part tag mismatch")
    return GroupElement(tag, _blkdiag([el.matrix for el in parts]))


def composite_of(*parts) -> GroupElement:
    """Assemble a composite element, inferring the tag from the parts."""
    return composite_element(composite(*[p.tag for p in parts]), list(parts))


def _trusted_element(tag: GroupTag, m: np.ndarray) -> GroupElement:
    """Build an element from a matrix already known to satisfy the checks."""
    el = object.__new__(GroupElement)
    object.__setattr__(el, "tag", tag)
    object.__setattr__(el, "matrix", m)
    return el


def _trusted_se3(rotation, translation) -> GroupElement:
    """se3_element without the check, for a rotation the program computed."""
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return _trusted_element(SE3, m)


def composite_parts(x: GroupElement):
    """Split a composite element into per-part GroupElements."""
    if x.tag.family != "Composite":
        raise InvalidArgumentError("composite_parts requires a Composite tag")
    return [_trusted_element(p, b.copy())
            for p, b in zip(x.tag.parts, _diag_blocks(x.tag, x.matrix))]


# ---------------------------------------------------------------------------
# Constructors and RPY helpers


def so3_element(r) -> GroupElement:
    return GroupElement(SO3, np.asarray(r, dtype=float))


def se3_element(rotation, translation) -> GroupElement:
    m = np.eye(4)
    m[:3, :3] = np.asarray(rotation, dtype=float)
    m[:3, 3] = np.asarray(translation, dtype=float).reshape(3)
    return GroupElement(SE3, m)


def se3_rotation(x: GroupElement) -> np.ndarray:
    return x.matrix[:3, :3].copy()


def se3_translation(x: GroupElement) -> np.ndarray:
    return x.matrix[:3, 3].copy()


def sek3_element(rotation, columns) -> GroupElement:
    cols = [np.asarray(c, dtype=float).reshape(3) for c in columns]
    k = len(cols)
    m = np.eye(3 + k)
    m[:3, :3] = np.asarray(rotation, dtype=float)
    for i, c in enumerate(cols):
        m[:3, 3 + i] = c
    return GroupElement(SEk3(k), m)


def tn_element(t) -> GroupElement:
    t = np.asarray(t, dtype=float).reshape(-1)
    n = t.shape[0]
    m = np.eye(n + 1)
    m[:n, n] = t
    return GroupElement(Tn(n), m)


def tn_vector(x: GroupElement) -> np.ndarray:
    return x.matrix[:x.tag.n, x.tag.n].copy()


def rpy_to_rotation(roll: float, pitch: float, yaw: float) -> GroupElement:
    """ZYX convention: yaw about z, then pitch about y, then roll about x."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return GroupElement(SO3, rz @ ry @ rx)


def rotation_to_rpy(x: GroupElement) -> tuple:
    r = x.matrix
    sp = -r[2, 0]
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if abs(pitch) > math.pi / 2.0 - 1e-6:
        raise GimbalLockError("pitch within 1e-6 of +-pi/2; RPY is not unique")
    roll = math.atan2(r[2, 1], r[2, 2])
    yaw = math.atan2(r[1, 0], r[0, 0])
    return roll, pitch, yaw


# ---------------------------------------------------------------------------
# Quaternion I/O helpers (w-first), used only at serialization boundaries


def rotation_to_quaternion(r) -> np.ndarray:
    """Unit quaternion (w, x, y, z) from a rotation matrix."""
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax([r[0, 0], r[1, 1], r[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(0.0, 1.0 + r[i, i] - r[j, j] - r[k, k])) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float).reshape(4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
