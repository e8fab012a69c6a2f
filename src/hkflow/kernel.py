"""Quaternionic linear algebra of the flat hyperkahler R^4.

Conventions, fixed once and used everywhere downstream:

* R^4 is identified with the quaternions via x = x0 + x1 i + x2 j + x3 k.
* The twistor triple (J1, J2, J3) is RIGHT multiplication by (-i, -j, -k).
  Right multiplications compose in reversed order, which is what makes
  J1 J2 = J3 come out with the usual sign.  With this choice the
  coordinate plane span{(1,0,0,0),(0,1,0,0)} is invariant under J1 and
  carries the constant phase a = (-1, 0, 0).
* A point of the twistor sphere is a unit vector a in R^3; the associated
  complex structure is J_a = a1 J1 + a2 J2 + a3 J3.
* For an oriented orthonormal frame (e1, e2, e3, e4) the canonical phase
  is the unique unit a with J_a e1 = e2 and J_a e3 = -e4; concretely
  a_d = <J_d e1, e2>.  The second relation is automatic for positively
  oriented frames and is verified, not assumed.

No function takes a triple: every one reads the one pinned instance,
_TRIPLE, which standard_twistor_triple() returns.

All operations are pure functions of immutable values.  The private
per-node helpers (_dot, _j_pairing, _tangent_phase, _companion) take
component planes: arrays whose FIRST axis holds the components,
(4, nu, nv) for vectors and (3, nu, nv) for phases.  Every J_d of the
pinned triple is a signed permutation, so it acts on planes through the
fixed row table _J_ROWS[d][r] = (k, +-1.0), one scaled copy per plane.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, InputError, _real, _real_array

UNIT_TOL = 1e-9          # tolerance on |a| = 1 for caller-supplied coefficients
ORTHO_TOL = 1e-9         # tolerance on a . b = 0 for coefficient pairs
GRAM_TOL = 1e-8          # tolerance on frame orthonormality
VERIFY_TOL = 1e-6        # tolerance on the defining relations of the phase
PHI_SWAP_TOL = 0.1       # switch companion chart when |z x a| falls below this


def _right_mult_matrix(q):
    """Read-only matrix of x -> x * q on R^4 = H in the basis (1, i, j, k).

    q is a length-4 sequence (q0, q1, q2, q3) = q0 + q1 i + q2 j + q3 k;
    row r holds the r-th component of x * q as a function of x.
    """
    q0, q1, q2, q3 = q
    m = np.array(
        [
            [q0, -q1, -q2, -q3],
            [q1, q0, q3, -q2],
            [q2, -q3, q0, q1],
            [q3, q2, -q1, q0],
        ],
        dtype=float,
    )
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class TwistorTriple:
    """Three orthogonal anti-involutions satisfying the quaternion relations."""

    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray


_TRIPLE = TwistorTriple(
    _right_mult_matrix([0.0, -1.0, 0.0, 0.0]),
    _right_mult_matrix([0.0, 0.0, -1.0, 0.0]),
    _right_mult_matrix([0.0, 0.0, 0.0, -1.0]),
)
# _J_ROWS[d][r] = (k, J_d[r, k]) for the one nonzero entry of row r
_J_ROWS = tuple(
    tuple((int(k), float(row[k])) for row in j for k in np.flatnonzero(row))
    for j in (_TRIPLE.j1, _TRIPLE.j2, _TRIPLE.j3)
)


def standard_twistor_triple():
    """The pinned triple: right quaternion multiplication by (-i, -j, -k)."""
    return _TRIPLE


@dataclass(frozen=True)
class AmbientSpace:
    """Flat R^4 (periods None) or the flat torus R^4 / Lambda with a
    rectangular lattice of positive period lengths.

    The metric is the Euclidean one either way; the only job of this type
    is displacement arithmetic: on the torus, coordinates are stored in the
    fundamental domain and differences are taken to the nearest image.
    """

    periods: tuple = None

    def __post_init__(self):
        if self.periods is not None:
            seq = isinstance(self.periods, (list, tuple, np.ndarray))    # a str is not
            p = tuple(_real("period", x) for x in self.periods) if seq else ()
            if len(p) != 4 or not all(math.isfinite(x) and x > 0 for x in p):
                raise InputError(f"periods must be 4 positive finite lengths, got {self.periods}")
            object.__setattr__(self, "periods", p)

    def wrap(self, positions):
        """Reduce ambient coordinates to [0, period) per axis, as a new array.

        Only coordinates outside the box go through np.mod: a flow step
        moves a node by at most a quarter of an edge, so few ever do.  The
        sign bit catches -0.0 (np.mod makes it +0.0) and the tiny negatives
        np.mod rounds up to the period itself, which a later wrap reduces.
        """
        out = np.array(_real_array("positions", positions))
        if self.periods is None:
            return out
        per = np.array(self.periods)
        np.mod(out, per, out=out, where=np.signbit(out) | (out >= per))
        return out

    def displacement(self, p, q):
        """Shortest-image displacement q - p."""
        d = _real_array("position q", q) - _real_array("position p", p)
        if self.periods is None:
            return d
        per = np.array(self.periods)
        return d - per * np.round(d / per)


def _vector(what, value, size):
    """value as a float64 array of shape (size,), or InputError unless it is
    one: entries that are not real numbers (strings, bools) are refused."""
    arr = _real_array(what, value)
    if arr.shape != (size,):
        raise InputError(f"{what} must be a {size}-vector, got shape {arr.shape}")
    return arr


def _finite_vector(what, value):
    """_vector(what, value, 4) with a NaN or infinite entry refused too."""
    arr = _vector(what, value, 4)
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite, got {arr}")
    return arr


def as_unit_coefficient(a):
    """Validate a twistor coefficient (unit 3-vector) and return it as float64."""
    a = _vector("twistor coefficient", a, 3)
    n = np.linalg.norm(a)
    if not abs(n - 1.0) <= UNIT_TOL:     # NaN fails too
        raise InputError(f"twistor coefficient is not unit: |a| = {n!r}")
    return a / n


def phase_operator(a):
    """J_a = a1 J1 + a2 J2 + a3 J3 for unit a."""
    a = as_unit_coefficient(a)
    return a[0] * _TRIPLE.j1 + a[1] * _TRIPLE.j2 + a[2] * _TRIPLE.j3


def phi_field(a):
    """Deterministic companion phase b(x) orthogonal to a(x), a of shape (..., 3).

    z x a away from the poles of the third axis, x x a near them; both
    branches are normalized cross products so b is unit and b . a = 0.
    Another shape, non-real entries and a zero or non-finite vector raise InputError.
    """
    a = _real_array("phase array", a)
    if a.shape[-1:] != (3,):
        raise InputError(f"phase array must have a last axis of length 3, got shape {a.shape}")
    planes = np.moveaxis(a, -1, 0)
    _phase_norm(planes, "index")
    return np.moveaxis(_companion(planes), 0, -1)


def _phase_norm(a, place):
    """|a| of phase planes a (3, ...); a zero or non-finite vector raises InputError."""
    with np.errstate(over="ignore"):
        norm = np.sqrt(_dot(a, a))
    if not (norm.min() > 0 and norm.max() < np.inf):    # NaN fails too
        at = tuple(np.argwhere(~((norm > 0) & (norm < np.inf)))[0].tolist())
        where = f" at {place} {at}" if at else ""
        raise InputError(f"phase vector{where} is zero or not finite: {a[(slice(None), *at)]}")
    return norm


def _dot(x, y):
    """Inner product of two stacks of component planes, x0 y0 + x1 y1 + ...

    One reduce over the short first axis, which numpy sums left to right
    for contiguous planes and transposed views alike, with the same bits.
    It wants contiguous planes: on the transposed view of a node-major
    (nu, nv, 3) array it is 5-7x slower (15 against 3 us at 32^2, 210
    against 30 us at 128^2, on one core of a 2-core x86-64).  The -0.0 start
    keeps the sign of an all -0.0 sum, as the explicit left-to-right sum
    does; numpy's default start, +0.0, would flip it.
    """
    return np.multiply(x, y).sum(0, initial=-0.0)


def _companion(a):
    """phi_field on component planes: a (3, ...) -> b (3, ...)."""
    a1, a2, a3 = a
    use_z = np.sqrt(a2 * a2 + a1 * a1) > PHI_SWAP_TOL     # |z x a|
    b = np.stack([np.where(use_z, -a2, 0.0), np.where(use_z, a1, -a3), np.where(use_z, 0.0, a2)])
    return b / np.sqrt(_dot(b, b))


def _apply_j(d, vec, out=None):
    """J_{d+1} vec on component planes (4, ...), one signed copy per row."""
    if out is None:
        out = np.empty(vec.shape)
    for r, (k, sign) in enumerate(_J_ROWS[d]):
        np.multiply(sign, vec[k], out=out[r])
    return out


def _j_pairing(x, y):
    """The twistor pairing (<J_d x, y>)_d on component planes: x, y (4, ...) -> (3, ...)."""
    out = np.empty((3,) + x.shape[1:])
    j_x = np.empty(x.shape)
    for d in range(3):
        out[d] = _dot(_apply_j(d, x, j_x), y)
    return out


def _tangent_phase(e1, e2):
    """Unit a with a_d = <J_d e1, e2> on component planes: e1, e2 (4, ...) -> (3, ...)."""
    a = _j_pairing(e1, e2)
    return a / np.sqrt(_dot(a, a))


def symplectic_form(j, u, v):
    """omega_J(u, v) = <J u, v> for a compatible complex structure J; u and v
    must be finite real 4-vectors (InputError names the one that is not)."""
    return float(np.dot(j @ _finite_vector("vector u", u), _finite_vector("vector v", v)))


@dataclass(frozen=True, eq=False)
class HolomorphicSymplecticForm:
    """Omega_J = omega_{JK} - i omega_K stored as the matrix pair
    (real_part, imag_part) with real_part = omega_{JK} and
    imag_part = -omega_K, so Omega = real_part + i imag_part.

    A bilinear form B is stored as the matrix B[k, l] = B(e_k, e_l),
    evaluated as u^T B v."""

    real_part: np.ndarray
    imag_part: np.ndarray

    def evaluate(self, u, v):
        """Omega(u, v) of finite real 4-vectors u and v, or InputError."""
        u, v = _finite_vector("vector u", u), _finite_vector("vector v", v)
        return complex(u @ self.real_part @ v, u @ self.imag_part @ v)


def holomorphic_symplectic(a, b):
    """Holomorphic symplectic form of the pair J = J_a, K = J_b, a . b = 0.

    real(u, v) = <JK u, v>, imag(u, v) = -<K u, v>.
    """
    a = as_unit_coefficient(a)
    b = as_unit_coefficient(b)
    if not abs(float(np.dot(a, b))) <= ORTHO_TOL:
        raise InputError(f"coefficient pair is not orthogonal: a.b = {np.dot(a, b)!r}")
    j = phase_operator(a)
    k = phase_operator(b)
    # B[k,l] = B(e_k, e_l) = <M e_k, e_l> = M^T[k,l]
    real = (j @ k).T.copy()
    imag = -(k.T.copy())
    real.setflags(write=False)
    imag.setflags(write=False)
    return HolomorphicSymplecticForm(real, imag)


def canonical_phase_from_frame(e1, e2, e3, e4):
    """Phase coefficient of an oriented orthonormal frame of R^4.

    Returns the unique unit a with J_a e1 = e2 and J_a e3 = -e4.
    Raises InputError when a vector is not four real numbers, and
    FrameError when the frame is not orthonormal (a NaN entry included),
    is negatively oriented, or fails the defining relations.
    """
    vectors = enumerate([e1, e2, e3, e4], 1)
    frame = np.stack([_vector(f"frame vector e{k}", e, 4) for k, e in vectors])
    with np.errstate(invalid="ignore"):    # an infinite entry makes the Gram matrix NaN
        deviation = np.max(np.abs(frame @ frame.T - np.eye(4)))
    if not deviation <= GRAM_TOL:          # NaN fails too, before det sees it
        raise FrameError(f"frame is not orthonormal: max Gram deviation {deviation:.3e}")
    if not np.linalg.det(frame) > 0.0:
        raise FrameError("frame is negatively oriented")
    a = _tangent_phase(frame[0, :, None], frame[1, :, None])[:, 0]     # planes of one node
    jpsi = a[0] * _TRIPLE.j1 + a[1] * _TRIPLE.j2 + a[2] * _TRIPLE.j3
    residual = np.linalg.norm(jpsi @ frame[0] - frame[1]) + np.linalg.norm(
        jpsi @ frame[2] + frame[3]
    )
    if not residual <= VERIFY_TOL:
        raise FrameError(
            f"frame is inconsistent with the twistor relations: residual {residual:.3e}"
        )
    return a
