"""Matrix Lie group kernel.

Supported groups: SO(3), SE_k(3) for k >= 1 (SE(3) is SE_1(3)), T(n),
and composite (direct-product) groups stored block-diagonally. Tangent
vectors use a linear-first, angular-second serialization: SE(3) is
(rho, phi), SE_2(3) is (rho, phi, psi), and SE_k(3) generalizes to
(u1, phi, u2, ..., uk) where u1 is the first translation column. Adjoint
and Jacobian block layouts follow the same ordering.

Each tag compiles once, on first use, into a layout cached on the tag:
flat indices of every rotation block, translation column and T(n) entry.
A leaf is a one-part layout and a composite lists the blocks of all its
leaves, so every operator treats all blocks of an element in one batched
pass: one stack of 3x3 skew matrices, per-block scalar coefficients,
batched products and one scatter into the result. SEk3, Tn and composite
intern their tags, so each group's layout is compiled once.

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

    @functools.cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self)


SO3 = GroupTag("SO3")


@functools.lru_cache(maxsize=None)
def SEk3(k: int) -> GroupTag:
    return GroupTag("SEk3", k=k)


SE3 = SEk3(1)


@functools.lru_cache(maxsize=None)
def Tn(n: int) -> GroupTag:
    return GroupTag("Tn", n=n)


@functools.lru_cache(maxsize=None)
def composite(*parts: GroupTag) -> GroupTag:
    """Direct product of the parts; equal parts give the same tag."""
    return GroupTag("Composite", parts=parts)


class _Layout:
    """Flat indices of the blocks of one group, compiled from its tag.

    Indices address the flattened d x d element, the p-vector, or the
    flattened p x p adjoint or Jacobian. With nb rotation blocks, nc
    translation columns and nt T(n) entries, in part order:
      rot, phi            each rotation block (nb, 3, 3) and its vector;
      rot_t, diag         the block transposed, and its diagonal;
      vee_pos, vee_neg    its entries (2,1), (0,2), (1,0) and transposes;
      col, u, col_block   each column (nc, 3), its vector and its block;
      tn, tn_t            the T(n) entries and their vector;
      slots, slot_block   the operators' 3x3 diagonal blocks (phi slots,
                          then u slots) and the rotation block of each;
      off, tn_op          each column's (u, phi) block, and the T(n)
                          diagonal, in the operators;
      eye, fixed          the identity, and the entries every element
                          shares with it (values in fixed_values).
    """

    def __init__(self, tag: GroupTag):
        rot, phi, col, col_block, u, tn, tn_t = [], [], [], [], [], [], []

        def walk(t, m, v):
            if t.family == "Composite":
                for part in t.parts:
                    walk(part, m, v)
                    m, v = m + part.matrix_dim, v + part.algebra_dim
            elif t.family == "Tn":
                tn.extend((m + j, m + t.n) for j in range(t.n))
                tn_t.extend(range(v, v + t.n))
            else:
                # SO(3) is (phi); SE_k(3) is (u1, phi, u2, ..., uk)
                for i in range(t.k):
                    col.append((m, m + 3 + i))
                    col_block.append(len(rot))
                    u.append(v + 3 + 3 * i if i else v)
                rot.append(m)
                phi.append(v + 3 if t.k else v)

        walk(tag, 0, 0)
        d, p = tag.matrix_dim, tag.algebra_dim
        r3 = np.arange(3)
        rot = np.array(rot, dtype=int).reshape(-1, 1, 1)
        col = np.array(col, dtype=int).reshape(-1, 2)
        tn = np.array(tn, dtype=int).reshape(-1, 2)
        self.d, self.p = d, p
        self.rot = (rot + r3[:, None]) * d + rot + r3
        self.rot_t = self.rot.transpose(0, 2, 1).copy()
        self.diag = self.rot[:, r3, r3]
        self.vee_pos = self.rot[:, (2, 0, 1), (1, 2, 0)]
        self.vee_neg = self.rot[:, (1, 2, 0), (2, 0, 1)]
        self.phi = np.array(phi, dtype=int).reshape(-1, 1) + r3
        self.col = (col[:, :1] + r3) * d + col[:, 1:]
        self.col_block = np.array(col_block, dtype=int)
        self.u = np.array(u, dtype=int).reshape(-1, 1) + r3
        self.tn = tn[:, 0] * d + tn[:, 1]
        self.tn_t = np.array(tn_t, dtype=int)
        self.nb, self.nc, self.nt = len(self.phi), len(self.u), len(self.tn_t)
        slots = np.concatenate([self.phi, self.u])
        self.slots = slots[:, :, None] * p + slots[:, None, :]
        self.slot_block = np.concatenate([np.arange(self.nb), self.col_block])
        self.off = (self.u[:, :, None] * p
                    + self.phi[self.col_block][:, None, :])
        self.tn_op = self.tn_t * (p + 1)
        free = np.zeros(d * d, dtype=bool)
        for idx in (self.rot, self.col, self.tn):
            free[idx] = True
        self.eye = np.eye(d)
        self.eye.setflags(write=False)
        self.fixed = np.flatnonzero(~free)
        self.fixed_values = self.eye.take(self.fixed)


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


def _check_element(tag: GroupTag, m: np.ndarray):
    lay = tag._layout
    if m.shape != (lay.d, lay.d):
        raise InvalidArgumentError(
            f"matrix shape {m.shape} != ({lay.d}, {lay.d})")
    if lay.nb:
        _check_rotations(m.take(lay.rot))
    if (m.take(lay.fixed) != lay.fixed_values).any():
        raise InvalidArgumentError(
            "entries outside the rotation, translation and T(n) blocks must "
            "be those of the identity exactly")


def _check_rotations(r: np.ndarray):
    """Raise unless every matrix of the (n, 3, 3) stack r, n >= 1, is a
    rotation; NaN entries fail too."""
    if not np.abs(r.transpose(0, 2, 1) @ r - _EYE3).max() <= _ORTHO_TOL:
        raise InvalidArgumentError("rotation block is not orthonormal")
    if not np.abs(np.linalg.det(r) - 1.0).max() <= _ORTHO_TOL:
        raise InvalidArgumentError("rotation block determinant is not +1")


# ---------------------------------------------------------------------------
# Skew matrices and per-block scalar coefficients

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
# Row i is skew(e_i) flattened, so v @ _SKEW holds skew(v[j]) in row j.
_SKEW = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
_SKEW.setflags(write=False)


def skew(v) -> np.ndarray:
    """3x3 skew-symmetric matrix S(v) with S(v) w = v x w."""
    x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _skews(v: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of skew(v[j]) for an (n, 3) array v."""
    return (v @ _SKEW).reshape(-1, 3, 3)


def _angles(phi: np.ndarray) -> list:
    # |phi| of each row, with the squares summed as v.dot(v) sums them
    return np.sqrt(phi[:, None, :] @ phi[:, :, None]).ravel().tolist()


def _coefficients(fn, thetas) -> np.ndarray:
    """fn(theta) for each block as a (terms, blocks, 1, 1) array, so that
    each term scales its block's 3x3 matrices."""
    return np.array([fn(t) for t in thetas]).T[:, :, None, None]


def _exp_coefficients(theta: float):
    """(a, c, b, e) with exp(S) = I + a S + b S^2 and the SO(3) left
    Jacobian J = I + c S + e S^2, for S = skew(phi) and theta = |phi|."""
    t2 = theta * theta
    if theta < _SMALL_ANGLE:
        return (1.0 - t2 / 6.0 + t2 * t2 / 120.0, 0.5,
                0.5 - t2 / 24.0 + t2 * t2 / 720.0, 1.0 / 6.0)
    s, h = math.sin(theta), math.sin(theta / 2.0)
    b = 2.0 * h * h / t2   # 1 - cos(theta), without the cancellation
    return s / theta, b, b, (theta - s) / (t2 * theta)


def _q_coefficients(theta: float):
    """(a, b, c, e) with Q = U/2 + a (PU + UP) + b PUP + c (PPU + UPP)
    + e (PUP + PPU) P, the (u, phi) block of the SE_k(3) left Jacobian for
    P = skew(phi) and U = skew(u)."""
    t2 = theta * theta
    if theta < 0.02:
        # The closed forms below cancel catastrophically for small theta;
        # the series to theta^4 is exact to rounding here.
        t4 = t2 * t2
        c1 = 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0
        c2 = 1.0 / 24.0 - t2 / 720.0 + t4 / 40320.0
        c3 = 1.0 / 120.0 - t2 / 2520.0 + t4 / 120960.0
        return c1, c1 - 3.0 * c2, c2, c3
    s, c = math.sin(theta), math.cos(theta)
    c1 = (theta - s) / (t2 * theta)
    c2 = (t2 + 2.0 * c - 2.0) / (2.0 * t2 * t2)
    c3 = (2.0 * theta - 3.0 * s + theta * c) / (2.0 * t2 * t2 * theta)
    return c1, c1 - 3.0 * c2, c2, c3


def _jacobian_inv_coefficient(theta: float):
    """e with J^-1 = I - S/2 + e S^2 for the SO(3) left Jacobian."""
    if theta < _SMALL_ANGLE:
        return (1.0 / 12.0,)
    half = theta / 2.0
    return ((1.0 - half / math.tan(half)) / (theta * theta),)


def _check_jacobian_angle(theta: float):
    m = round(theta / (2.0 * math.pi))
    if m != 0 and abs(theta - 2.0 * math.pi * m) < 1e-9:
        raise SingularJacobianError(
            f"left Jacobian is singular at theta = 2*pi*{m}"
        )


def _rotation_logs(m: np.ndarray, lay: _Layout):
    """Rotation vectors of the rotation blocks of m, and their angles."""
    thetas, factors = [], []
    for b, trace in enumerate(m.take(lay.diag).sum(axis=1).tolist()):
        theta = math.acos(min(1.0, max(-1.0, (trace - 1.0) / 2.0)))
        if math.pi - theta < 1e-9:
            # Axis from the symmetric part: R ~ 2 a a^T - I at theta = pi.
            w, vecs = np.linalg.eigh((m.take(lay.rot[b]) + _EYE3) / 2.0)
            axis = vecs[:, np.argmax(w)]
            axis = axis / np.linalg.norm(axis)
            raise AmbiguousLogarithmError(
                "rotation angle is at pi; axis sign is ambiguous",
                candidates=(math.pi * axis, -math.pi * axis),
            )
        # theta/(2 sin theta) ~ 1/2 + theta^2/12 + ... below _SMALL_ANGLE
        factors.append(0.5 + theta * theta / 12.0 if theta < _SMALL_ANGLE
                       else theta / (2.0 * math.sin(theta)))
        thetas.append(theta)
    a = m.take(lay.vee_pos) - m.take(lay.vee_neg)
    return np.array(factors)[:, None] * a, thetas


def _q_blocks(lay: _Layout, c, s, s2, thetas) -> np.ndarray:
    """Q(u, phi) of every translation column, from the skew stacks s and
    s2 = s @ s of the rotation blocks."""
    cb = lay.col_block
    p, p2 = s.take(cb, axis=0), s2.take(cb, axis=0)
    uu = _skews(c[lay.u])
    a, b, d, e = _coefficients(_q_coefficients, thetas)[:, cb]
    pu, up = p @ uu, uu @ p
    pup, ppu = pu @ p, p2 @ uu
    return (0.5 * uu + a * (pu + up) + b * pup + d * (ppu + up @ p)
            + e * ((pup + ppu) @ p))


def _assemble(lay: _Layout, diag, off) -> np.ndarray:
    """The p x p operator with diag[b] on each slot of rotation block b,
    off on each column's (u, phi) block and 1 on the T(n) diagonal."""
    out = np.zeros((lay.p, lay.p))
    if lay.nb:
        out.put(lay.slots, diag.take(lay.slot_block, axis=0))
    if lay.nc:
        out.put(lay.off, off)
    if lay.nt:
        out.put(lay.tn_op, 1.0)
    return out


# ---------------------------------------------------------------------------
# Core operators


def hat(v: TangentVector) -> np.ndarray:
    lay, c = v.tag._layout, v.components
    out = np.zeros((lay.d, lay.d))
    out.put(lay.rot, _skews(c[lay.phi]))
    out.put(lay.col, c[lay.u])
    out.put(lay.tn, c[lay.tn_t])
    return out


def vee(a: np.ndarray, tag: GroupTag) -> TangentVector:
    a = np.asarray(a, dtype=float)
    lay = tag._layout
    if a.shape != (lay.d, lay.d):
        raise InvalidArgumentError(
            f"algebra matrix shape {a.shape} != ({lay.d}, {lay.d})")
    if lay.nb and not (np.abs(a.take(lay.rot) + a.take(lay.rot_t)).max()
                       <= _ORTHO_TOL):
        raise InvalidArgumentError("rotational block is not skew-symmetric")
    out = np.empty(lay.p)
    out.put(lay.phi, a.take(lay.vee_pos))
    out.put(lay.u, a.take(lay.col))
    out.put(lay.tn_t, a.take(lay.tn))
    return TangentVector(tag, out)


def exp(v: TangentVector) -> GroupElement:
    lay, c = v.tag._layout, v.components
    out = lay.eye.copy()
    if lay.nb:
        phi = c[lay.phi]
        s = _skews(phi)
        k = _coefficients(_exp_coefficients, _angles(phi))
        r, j = _EYE3 + k[:2] * s + k[2:] * (s @ s)
        out.put(lay.rot, r)
        if lay.nc:
            j = j.take(lay.col_block, axis=0)
            out.put(lay.col, j @ c[lay.u][:, :, None])
    if lay.nt:
        out.put(lay.tn, c[lay.tn_t])
    return _trusted_element(v.tag, out)


def log(x: GroupElement) -> TangentVector:
    lay, m = x.tag._layout, x.matrix
    out = np.empty(lay.p)
    if lay.nb:
        phi, thetas = _rotation_logs(m, lay)
        out.put(lay.phi, phi)
        if lay.nc:
            s = _skews(phi)
            (e,) = _coefficients(_jacobian_inv_coefficient, thetas)
            jinv = (_EYE3 - 0.5 * s + e * (s @ s)).take(lay.col_block, axis=0)
            out.put(lay.u, jinv @ m.take(lay.col)[:, :, None])
    if lay.nt:
        out.put(lay.tn_t, m.take(lay.tn))
    return TangentVector(x.tag, out)


def adjoint(x: GroupElement) -> np.ndarray:
    lay, m = x.tag._layout, x.matrix
    r = m.take(lay.rot)
    off = None
    if lay.nc:
        off = _skews(m.take(lay.col)) @ r.take(lay.col_block, axis=0)
    return _assemble(lay, r, off)


def left_jacobian(v: TangentVector) -> np.ndarray:
    return _left_jacobian(v.tag._layout, v.components)


def right_jacobian(v: TangentVector) -> np.ndarray:
    return _left_jacobian(v.tag._layout, -v.components)


def _left_jacobian(lay: _Layout, c: np.ndarray) -> np.ndarray:
    if not lay.nb:
        return _assemble(lay, None, None)
    phi = c[lay.phi]
    s = _skews(phi)
    s2 = s @ s
    thetas = _angles(phi)
    _, jc, _, je = _coefficients(_exp_coefficients, thetas)
    off = _q_blocks(lay, c, s, s2, thetas) if lay.nc else None
    return _assemble(lay, _EYE3 + jc * s + je * s2, off)


def left_jacobian_inv(v: TangentVector) -> np.ndarray:
    return _left_jacobian_inv(v.tag._layout, v.components)


def right_jacobian_inv(v: TangentVector) -> np.ndarray:
    return _left_jacobian_inv(v.tag._layout, -v.components)


def _left_jacobian_inv(lay: _Layout, c: np.ndarray) -> np.ndarray:
    # With J = [[J3, Q], [0, J3]] on the (u, phi) slots of a column, the
    # inverse is [[J3^-1, -J3^-1 Q J3^-1], [0, J3^-1]].
    if not lay.nb:
        return _assemble(lay, None, None)
    phi = c[lay.phi]
    thetas = _angles(phi)
    for theta in thetas:
        _check_jacobian_angle(theta)
    s = _skews(phi)
    s2 = s @ s
    (e,) = _coefficients(_jacobian_inv_coefficient, thetas)
    jinv = _EYE3 - 0.5 * s + e * s2
    off = None
    if lay.nc:
        j = jinv.take(lay.col_block, axis=0)
        off = -(j @ _q_blocks(lay, c, s, s2, thetas) @ j)
    return _assemble(lay, jinv, off)


def compose(x: GroupElement, y: GroupElement) -> GroupElement:
    if x.tag != y.tag:
        raise InvalidArgumentError("cannot compose elements with different tags")
    return _trusted_element(x.tag, x.matrix @ y.matrix)


def inverse(x: GroupElement) -> GroupElement:
    lay, m = x.tag._layout, x.matrix
    out = lay.eye.copy()
    if lay.nb:
        out.put(lay.rot_t, m.take(lay.rot))
        if lay.nc:
            # -R^T t from the same full product that compose takes, so
            # inverse(x) @ x has exactly zero translation
            out.put(lay.col, -(out @ m).take(lay.col))
    if lay.nt:
        out.put(lay.tn, -m.take(lay.tn))
    return _trusted_element(x.tag, out)


def identity(tag: GroupTag) -> GroupElement:
    return _trusted_element(tag, tag._layout.eye.copy())


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


def _diag_blocks(tag: GroupTag, m: np.ndarray):
    i = 0
    for part in tag.parts:
        d = part.matrix_dim
        yield m[i:i + d, i:i + d]
        i += d


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
