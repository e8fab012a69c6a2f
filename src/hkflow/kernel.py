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
  oriented frames, and a test pins it.

No function takes a triple: every one reads the one pinned instance,
_TRIPLE, which standard_twistor_triple() returns.

All operations are pure functions of immutable values.  The private
per-node helpers (_dot, _apply_j, _j_pairing, _tangent_phase) take
component planes: arrays whose FIRST axis holds the components,
(4, nu, nv) for vectors and (3, nu, nv) for phases.  Every J_d of the
pinned triple is a signed permutation, so it acts on planes through the
fixed row table _J_ROWS[d][r] = (k, +-1.0), one scaled copy per plane.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _real, _real_array


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
