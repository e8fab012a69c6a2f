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

Kernel functions take a triple; nothing above the kernel does: surface,
phase, flow and cli read the one pinned instance, _TRIPLE.

All operations are pure functions of immutable values.  The private
per-node helpers (_dot, _tangent_phase, _apply_phase, _companion) take
component planes: arrays whose FIRST axis holds the components,
(4, nu, nv) for vectors and (3, nu, nv) for phases.  J_d acts on planes
through TwistorTriple.terms, the nonzero (k, J_d[r, k]) entries of every
row read once per triple, so a signed permutation (every J_d of the
pinned triple) costs one scaled copy per plane.
"""

import functools
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

    @functools.cached_property
    def terms(self):
        """terms[d][r] = ((k, J_d[r, k]), ...) over the nonzero entries, k ascending."""
        return tuple(
            tuple(tuple((int(k), float(row[k])) for k in np.flatnonzero(row)) for row in j)
            for j in self.as_stack()
        )


def standard_twistor_triple():
    """The pinned triple: right quaternion multiplication by (-i, -j, -k)."""
    j1 = _right_mult_matrix(np.array([0.0, -1.0, 0.0, 0.0]))
    j2 = _right_mult_matrix(np.array([0.0, 0.0, -1.0, 0.0]))
    j3 = _right_mult_matrix(np.array([0.0, 0.0, 0.0, -1.0]))
    for m in (j1, j2, j3):
        m.setflags(write=False)
    return TwistorTriple(j1, j2, j3)


_TRIPLE = standard_twistor_triple()


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
        """Reduce ambient coordinates to [0, period) per axis, as a new array.

        Only coordinates outside the box go through np.mod: a flow step
        moves a node by at most a quarter of an edge, so few ever do.  The
        sign bit catches -0.0 (np.mod makes it +0.0) and the tiny negatives
        np.mod rounds up to the period itself, which a later wrap reduces.
        """
        out = np.array(positions, float)
        if self.periods is None:
            return out
        per = np.array(self.periods)
        np.mod(out, per, out=out, where=np.signbit(out) | (out >= per))
        return out

    def displacement(self, p, q):
        """Shortest-image displacement q - p."""
        d = np.asarray(q, float) - np.asarray(p, float)
        if self.periods is None:
            return d
        per = np.array(self.periods)
        return d - per * np.round(d / per)


def as_unit_coefficient(a):
    """Validate a twistor coefficient (unit 3-vector) and return it as float64."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise InputError(f"twistor coefficient must be a 3-vector, got shape {a.shape}")
    n = np.linalg.norm(a)
    if abs(n - 1.0) > UNIT_TOL:
        raise InputError(f"twistor coefficient is not unit: |a| = {n!r}")
    return a / n


def phase_operator(a, triple):
    """J_a = a1 J1 + a2 J2 + a3 J3 for unit a."""
    a = as_unit_coefficient(a)
    return a[0] * triple.j1 + a[1] * triple.j2 + a[2] * triple.j3


def phi_field(a):
    """Deterministic companion phase b(x) orthogonal to a(x), a of shape (..., 3).

    z x a away from the poles of the third axis, x x a near them; both
    branches are normalized cross products so b is unit and b . a = 0.
    """
    return np.moveaxis(_companion(np.moveaxis(np.asarray(a, float), -1, 0)), 0, -1)


def _dot(x, y):
    """Inner product of two stacks of component planes, x0 y0 + x1 y1 + ...

    One reduce over the short first axis, which numpy sums left to right
    for contiguous planes and transposed views alike.  The -0.0 start
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


def _apply_row(terms, vec, out):
    """out = sum_k J[r, k] vec[k] over the (k, J[r, k]) terms of one row."""
    (k, c), *rest = terms
    np.multiply(c, vec[k], out=out)
    for k, c in rest:
        out += c * vec[k]
    return out


def _tangent_phase(e1, e2, triple):
    """Unit a with a_d = <J_d e1, e2> on component planes: e1, e2 (4, ...) -> (3, ...)."""
    a = np.empty((3,) + e1.shape[1:])
    j_e1 = np.empty(e1.shape)
    for d, rows in enumerate(triple.terms):
        for r, terms in enumerate(rows):
            _apply_row(terms, e1, j_e1[r])
        a[d] = _dot(j_e1, e2)
    return a / np.sqrt(_dot(a, a))


def _apply_phase(coeff, vec, triple):
    """(sum_d coeff_d J_d) vec on component planes: coeff (3, ...), vec (4, ...).

    J_d is read from triple.terms, its table of nonzero row entries.  Row r
    is coeff_1 (J_1 vec)_r + coeff_2 (J_2 vec)_r + coeff_3 (J_3 vec)_r in that
    order, each (J_d vec)_r summed over ascending k: the term order of the
    matrix form sum_d coeff_d (J_d vec), so skipping the zero entries
    changes no bit for any triple, signed permutation or not.
    """
    out = np.empty(vec.shape)
    part = np.empty(vec.shape[1:])
    for r, (terms1, terms2, terms3) in enumerate(zip(*triple.terms)):
        np.multiply(coeff[0], _apply_row(terms1, vec, out[r]), out=out[r])
        out[r] += np.multiply(coeff[1], _apply_row(terms2, vec, part), out=part)
        out[r] += np.multiply(coeff[2], _apply_row(terms3, vec, part), out=part)
    return out


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
