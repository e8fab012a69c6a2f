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

All operations are pure functions of immutable values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, InputError

UNIT_TOL = 1e-9          # tolerance on |a| = 1 for caller-supplied coefficients
ORTHO_TOL = 1e-9         # tolerance on a . b = 0 for coefficient pairs
GRAM_TOL = 1e-8          # tolerance on frame orthonormality
VERIFY_TOL = 1e-6        # tolerance on the defining relations of the phase
PHI_SWAP_TOL = 0.1       # switch companion chart when |z x a| falls below this


def _right_mult_matrix(q):
    """Matrix of x -> x * q on R^4 = H in the basis (1, i, j, k).

    q is a length-4 array (q0, q1, q2, q3) = q0 + q1 i + q2 j + q3 k;
    row r holds the r-th component of x * q as a function of x.
    """
    q0, q1, q2, q3 = q
    return np.array(
        [
            [q0, -q1, -q2, -q3],
            [q1, q0, q3, -q2],
            [q2, -q3, q0, q1],
            [q3, q2, -q1, q0],
        ],
        dtype=float,
    )


@dataclass(frozen=True)
class TwistorTriple:
    """Three orthogonal anti-involutions satisfying the quaternion relations."""

    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray

    def as_stack(self):
        return np.stack([self.j1, self.j2, self.j3])


def standard_twistor_triple():
    """The pinned triple: right quaternion multiplication by (-i, -j, -k)."""
    j1 = _right_mult_matrix(np.array([0.0, -1.0, 0.0, 0.0]))
    j2 = _right_mult_matrix(np.array([0.0, 0.0, -1.0, 0.0]))
    j3 = _right_mult_matrix(np.array([0.0, 0.0, 0.0, -1.0]))
    for m in (j1, j2, j3):
        m.setflags(write=False)
    return TwistorTriple(j1, j2, j3)


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
            p = tuple(float(x) for x in self.periods)
            if len(p) != 4 or not all(math.isfinite(x) and x > 0 for x in p):
                raise InputError(f"periods must be 4 positive finite lengths, got {self.periods}")
            object.__setattr__(self, "periods", p)

    def wrap(self, positions):
        """Reduce ambient coordinates to [0, period) per axis."""
        if self.periods is None:
            return np.asarray(positions, float)
        return np.mod(np.asarray(positions, float), np.array(self.periods))

    def displacement(self, p, q):
        """Shortest-image displacement q - p."""
        d = np.asarray(q, float) - np.asarray(p, float)
        if self.periods is None:
            return d
        per = np.array(self.periods)
        return d - per * np.round(d / per)


def as_unit_coefficient(a, tol=UNIT_TOL):
    """Validate a twistor coefficient (unit 3-vector) and return it as float64."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise InputError(f"twistor coefficient must be a 3-vector, got shape {a.shape}")
    n = np.linalg.norm(a)
    if abs(n - 1.0) > tol:
        raise InputError(f"twistor coefficient is not unit: |a| = {n!r}")
    return a / n


def phase_operator(a, triple):
    """J_a = a1 J1 + a2 J2 + a3 J3 for unit a."""
    a = as_unit_coefficient(a)
    return a[0] * triple.j1 + a[1] * triple.j2 + a[2] * triple.j3


def phi_field(a):
    """Deterministic companion phase b(x) orthogonal to a(x).

    z x a away from the poles of the third axis, x x a near them; both
    branches are normalized cross products so b is unit and b . a = 0.
    """
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    zxa = np.stack([-a2, a1, np.zeros_like(a1)], axis=-1)
    xxa = np.stack([np.zeros_like(a1), -a3, a2], axis=-1)
    use_z = np.linalg.norm(zxa, axis=-1) > PHI_SWAP_TOL
    b = np.where(use_z[..., None], zxa, xxa)
    return b / np.linalg.norm(b, axis=-1, keepdims=True)


def _tangent_phase(e1, e2, triple):
    """Per-node unit a with a_d = <J_d e1, e2>, the phase of the plane (e1, e2)."""
    a = np.stack([((e1 @ j.T) * e2).sum(-1) for j in triple.as_stack()], axis=-1)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _apply_phase(coeff, vec, triple):
    """(sum_d coeff_d J_d) vec for per-node coefficient and vector fields."""
    return sum(coeff[..., d, None] * (vec @ j.T) for d, j in enumerate(triple.as_stack()))


def symplectic_form(j, u, v):
    """omega_J(u, v) = <J u, v> for a compatible complex structure J."""
    return float(np.dot(j @ np.asarray(u, float), np.asarray(v, float)))


@dataclass(frozen=True)
class HolomorphicSymplecticForm:
    """Omega_J = omega_{JK} - i omega_K stored as the matrix pair
    (real_part, imag_part) with real_part = omega_{JK} and
    imag_part = -omega_K, so Omega = real_part + i imag_part.

    A bilinear form B is stored as the matrix B[k, l] = B(e_k, e_l),
    evaluated as u^T B v."""

    real_part: np.ndarray
    imag_part: np.ndarray

    def evaluate(self, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return complex(u @ self.real_part @ v, u @ self.imag_part @ v)


def holomorphic_symplectic(a, b, triple):
    """Holomorphic symplectic form of the pair J = J_a, K = J_b, a . b = 0.

    real(u, v) = <JK u, v>, imag(u, v) = -<K u, v>.
    """
    a = as_unit_coefficient(a)
    b = as_unit_coefficient(b)
    if abs(float(np.dot(a, b))) > ORTHO_TOL:
        raise InputError(f"coefficient pair is not orthogonal: a.b = {np.dot(a, b)!r}")
    j = phase_operator(a, triple)
    k = phase_operator(b, triple)
    # B[k,l] = B(e_k, e_l) = <M e_k, e_l> = M^T[k,l]
    real = (j @ k).T.copy()
    imag = -(k.T.copy())
    real.setflags(write=False)
    imag.setflags(write=False)
    return HolomorphicSymplecticForm(real, imag)


def canonical_phase_from_frame(e1, e2, e3, e4, triple):
    """Phase coefficient of an oriented orthonormal frame of R^4.

    Returns the unique unit a with J_a e1 = e2 and J_a e3 = -e4.
    Raises FrameError when the frame is not orthonormal, is negatively
    oriented, or fails the defining relations (inconsistent input).
    """
    frame = np.stack([np.asarray(e, float) for e in (e1, e2, e3, e4)])
    gram = frame @ frame.T
    if np.max(np.abs(gram - np.eye(4))) > GRAM_TOL:
        raise FrameError(
            f"frame is not orthonormal: max Gram deviation "
            f"{np.max(np.abs(gram - np.eye(4))):.3e}"
        )
    if np.linalg.det(frame) <= 0.0:
        raise FrameError("frame is negatively oriented")
    js = triple.as_stack()
    a = js @ frame[0] @ frame[1]          # a_d = <J_d e1, e2>
    a = a / np.linalg.norm(a)
    jpsi = a[0] * triple.j1 + a[1] * triple.j2 + a[2] * triple.j3
    residual = np.linalg.norm(jpsi @ frame[0] - frame[1]) + np.linalg.norm(
        jpsi @ frame[2] + frame[3]
    )
    if residual > VERIFY_TOL:
        raise FrameError(
            f"frame is inconsistent with the twistor relations: residual {residual:.3e}"
        )
    return a
