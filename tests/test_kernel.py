"""Kernel checks.

The triple is verified against an independent symbolic-style oracle first:
we expand right multiplication by a quaternion through the bare product
table of (1, i, j, k) and compare entrywise.  Everything else builds on
that anchor.
"""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from twistor_oracle import companion

from hkflow.errors import InputError
from hkflow.kernel import (
    _J_ROWS,
    _TRIPLE,
    AmbientSpace,
    _apply_j,
    _dot,
    _j_pairing,
    _tangent_phase,
    standard_twistor_triple,
)

RNG = np.random.default_rng(20240817)

# quaternion product table: PROD[e][f] = (sign, basis index) for e_e * e_f
PROD = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def oracle_right_mult(q):
    """Matrix of x -> x * q assembled from the product table alone."""
    m = np.zeros((4, 4))
    for c in range(4):          # x = e_c
        for f in range(4):      # q component along e_f
            sign, out = PROD[(c, f)]
            m[out, c] += sign * q[f]
    return m


@pytest.fixture(scope="module")
def triple():
    return standard_twistor_triple()


def test_triple_matches_quaternion_table_oracle(triple):
    # the pinned convention: right multiplication by (-i, -j, -k)
    expected = [
        oracle_right_mult([0, -1, 0, 0]),
        oracle_right_mult([0, 0, -1, 0]),
        oracle_right_mult([0, 0, 0, -1]),
    ]
    for got, want in zip((triple.j1, triple.j2, triple.j3), expected):
        assert np.max(np.abs(got - want)) <= 1e-14


def test_frozen_matrix_entries(triple):
    # expanded by hand from x * (-i), x * (-j), x * (-k); frozen
    j1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j2 = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    j3 = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    assert np.array_equal(triple.j1, np.array(j1, float))
    assert np.array_equal(triple.j2, np.array(j2, float))
    assert np.array_equal(triple.j3, np.array(j3, float))


def test_quaternion_relations(triple):
    j1, j2, j3 = triple.j1, triple.j2, triple.j3
    eye = np.eye(4)
    for m in (j1, j2, j3):
        assert np.max(np.abs(m @ m + eye)) <= 1e-14
        assert np.max(np.abs(m.T @ m - eye)) <= 1e-14
    assert np.max(np.abs(j1 @ j2 - j3)) <= 1e-14
    assert np.max(np.abs(j2 @ j3 - j1)) <= 1e-14
    assert np.max(np.abs(j3 @ j1 - j2)) <= 1e-14
    assert np.max(np.abs(j1 @ j2 @ j3 + eye)) <= 1e-14


@pytest.mark.parametrize("c, d, e", [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
                         ids=["J1J2", "J2J3", "J3J1"])
def test_distinct_structures_anticommute(triple, c, d, e):
    # J_c J_d = J_e = -J_d J_c for (c, d, e) cyclic; all signed permutations,
    # so exactly
    js = (triple.j1, triple.j2, triple.j3)
    assert np.array_equal(js[c] @ js[d], js[e])
    assert np.array_equal(js[d] @ js[c], -js[e])


def test_j1_squared_on_basis(triple):
    e0 = np.array([1.0, 0, 0, 0])
    assert np.array_equal(triple.j1 @ (triple.j1 @ e0), -e0)


def test_coordinate_complex_plane_invariant_under_j1(triple):
    # span{(1,0,0,0),(0,1,0,0)} is J1-invariant, the pinned normal form
    p = np.zeros((4, 2))
    p[0, 0] = p[1, 1] = 1.0
    image = triple.j1 @ p
    # image columns must stay inside the plane: zero third/fourth rows
    assert np.max(np.abs(image[2:, :])) == 0.0


def test_isometry_on_random_vectors(triple):
    # <J_d u, J_d v> = <u, v>, and the Kahler form omega_d(u, v) = <J_d u, v>
    # is antisymmetric: omega_d(u, u) = 0
    for _ in range(50):
        u, v = RNG.standard_normal((2, 4))
        for m in (triple.j1, triple.j2, triple.j3):
            assert abs(np.dot(m @ u, m @ v) - np.dot(u, v)) <= 1e-12 * (
                1 + abs(np.dot(u, v))
            )
            assert abs(np.dot(m @ u, u)) <= 1e-12 * (1 + u @ u)


def complex_structure(a, triple):
    """J_a = a1 J1 + a2 J2 + a3 J3, built from the triple."""
    return a[0] * triple.j1 + a[1] * triple.j2 + a[2] * triple.j3


def tangent_phase(e1, e2):
    """_tangent_phase of the one-node planes of the 4-vectors e1, e2."""
    return _tangent_phase(np.asarray(e1, float)[:, None], np.asarray(e2, float)[:, None])[:, 0]


def random_frame(orientation=1.0):
    """Rows (e1, e2, e3, e4) of a random orthonormal frame with det of that sign."""
    q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
    if np.linalg.det(q) * orientation < 0:
        q[:, 3] = -q[:, 3]
    return q.T


def test_j_a_is_a_complex_structure(triple):
    # J_a^2 = -I and J_a is an isometry for every unit a
    for _ in range(20):
        a = RNG.standard_normal(3)
        m = complex_structure(a / np.linalg.norm(a), triple)
        assert np.max(np.abs(m @ m + np.eye(4))) <= 1e-12
        assert np.max(np.abs(m.T @ m - np.eye(4))) <= 1e-12


# frozen for this triple: a_d = <J_d e_k, e_l> = J_d[l, k] by hand from the
# matrices of test_frozen_matrix_entries.  The coordinate complex plane
# span{e0, e1} has phase -x, and span{e0, e2}, Lagrangian for omega_{J3}
# (a3 = 0), has -y
COORDINATE_PHASES = {
    (0, 1): (-1.0, 0.0, 0.0),
    (0, 2): (0.0, -1.0, 0.0),
    (0, 3): (0.0, 0.0, -1.0),
    (1, 2): (0.0, 0.0, 1.0),
    (1, 3): (0.0, -1.0, 0.0),
    (2, 3): (1.0, 0.0, 0.0),
}


@pytest.mark.parametrize("k, l", list(COORDINATE_PHASES), ids=lambda i: f"e{i}")
def test_frozen_phase_of_coordinate_planes(triple, k, l):
    e = np.eye(4)
    a = tangent_phase(e[k], e[l])
    assert np.max(np.abs(a - np.array(COORDINATE_PHASES[k, l]))) <= 1e-14
    # (e_k, e_l, e_m, e_n) completed to a positively oriented frame
    m, n = (i for i in range(4) if i not in (k, l))
    if np.linalg.det(e[[k, l, m, n]]) < 0:
        m, n = n, m
    jpsi = complex_structure(a, triple)
    assert np.linalg.norm(jpsi @ e[k] - e[l]) <= 1e-12
    assert np.linalg.norm(jpsi @ e[m] + e[n]) <= 1e-12


def test_tangent_phase_is_invariant_under_tangent_rotations():
    e = np.eye(4)
    frames = [e] + [random_frame() for _ in range(20)]
    for e1, e2, _, _ in frames:
        a0 = tangent_phase(e1, e2)
        for phi in (0.3, 1.1, 2.9, RNG.uniform(0, 2 * np.pi)):
            f1 = np.cos(phi) * e1 + np.sin(phi) * e2
            f2 = -np.sin(phi) * e1 + np.cos(phi) * e2
            assert np.max(np.abs(tangent_phase(f1, f2) - a0)) <= 1e-12


def test_tangent_phase_reproduces_kahler_pairing(triple):
    # a3 = omega_{J3}(e1, e2) = <J3 e1, e2> for random oriented frames
    for _ in range(20):
        e1, e2, _, _ = random_frame()
        a = tangent_phase(e1, e2)
        assert abs(a[2] - np.dot(triple.j3 @ e1, e2)) <= 1e-12
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12


@pytest.mark.parametrize("orientation", [1.0, -1.0], ids=["positive", "negative"])
def test_tangent_phase_satisfies_the_twistor_relations(triple, orientation):
    # J_a e1 = e2 from the tangent pair alone; J_a e3 = -e4 is automatic for
    # positively oriented frames, and a negatively oriented one gets +e4
    for _ in range(20):
        e1, e2, e3, e4 = random_frame(orientation)
        jpsi = complex_structure(tangent_phase(e1, e2), triple)
        assert np.linalg.norm(jpsi @ e1 - e2) <= 1e-12
        assert np.linalg.norm(jpsi @ e3 + orientation * e4) <= 1e-12


@pytest.mark.parametrize("orientation", [1.0, -1.0], ids=["positive", "negative"])
def test_tangent_phase_depends_only_on_the_oriented_plane(orientation):
    # any basis of span{e1, e2} related to (e1, e2) by a positive determinant
    # has the same phase, a negative one the antipodal phase; the basis need
    # not be orthonormal
    for _ in range(20):
        e1, e2, _, _ = random_frame()
        lam, nu = RNG.uniform(0.5, 2.0, 2)
        phi, mu = RNG.uniform(0, 2 * np.pi), RNG.uniform(-1.0, 1.0)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        m = rot @ np.array([[lam, mu], [0.0, orientation * nu]])
        f1, f2 = m @ np.stack([e1, e2])
        assert np.max(np.abs(tangent_phase(f1, f2) - orientation * tangent_phase(e1, e2))) <= 1e-12


def holomorphic_form(j, k, u, v):
    """Omega_J(u, v) = omega_{JK}(u, v) - i omega_K(u, v) = <J K u, v> - i <K u, v>."""
    return complex(np.dot(j @ (k @ u), v), -np.dot(k @ u, v))


def test_complex_lagrangian_plane_annihilates_omega_j1(triple):
    # span{e0, e1} is J1-complex, so Omega_{J1} (K = J2) restricted to it
    # vanishes, while it pairs e0 with the normal plane
    e = np.eye(4)
    for u, v in ((e[0], e[1]), (e[1], e[0])):
        assert abs(holomorphic_form(triple.j1, triple.j2, u, v)) <= 1e-14
    assert holomorphic_form(triple.j1, triple.j2, e[0], e[2]) == 1j
    assert holomorphic_form(triple.j1, triple.j2, e[0], e[3]) == -1
    for _ in range(10):
        u = RNG.standard_normal(4)
        assert abs(holomorphic_form(triple.j2, triple.j3, u, u)) <= 1e-12 * (1 + u @ u)


@pytest.mark.parametrize("a", [
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), tuple(np.ones(3) / np.sqrt(3.0)), (0.36, -0.48, 0.8),
], ids=["+x", "-x", "+y", "-y", "+z", "-z", "diagonal", "generic"])
def test_complex_lines_of_j_a_have_phase_a(triple, a):
    # every point a of the twistor sphere is the phase of the J_a-complex
    # lines span{e, J_a e}; with b a unit vector orthogonal to a,
    # J_a J_b = J_{a x b}, and Omega of (J_a, J_b) vanishes on those lines
    a = np.array(a)
    b = companion(a)
    ja, jb = complex_structure(a, triple), complex_structure(b, triple)
    assert np.max(np.abs(ja @ jb - complex_structure(np.cross(a, b), triple))) <= 1e-15
    for _ in range(10):
        e = RNG.standard_normal(4)
        e /= np.linalg.norm(e)
        assert np.max(np.abs(tangent_phase(e, ja @ e) - a)) <= 1e-12
        assert abs(holomorphic_form(ja, jb, e, ja @ e)) <= 1e-12


E0 = [1.0, 0.0, 0.0, 0.0]


# the public vector entry points name the argument they refuse
@pytest.mark.parametrize("call, message", [
    (lambda: AmbientSpace(None).wrap("x"), r"^positions must hold real numbers, got 'x'$"),
    (lambda: AmbientSpace((1, 1, 1, 1)).displacement("x", E0),
     r"^position p must hold real numbers, got 'x'$"),
    (lambda: AmbientSpace(None).displacement(E0, [1j, 0, 0, 0]), r"^position q must hold real numbers"),
    (lambda: AmbientSpace(None).wrap(["1", "0", "0", "0"]), r"^positions must hold real numbers"),
    (lambda: AmbientSpace(None).wrap([True, False, False, False]), r"^positions must hold real numbers"),
    (lambda: AmbientSpace(None).wrap([[1.0], [0.0, 0.0]]), r"^positions must hold real numbers"),
    (lambda: AmbientSpace(None).wrap(None), r"^positions must hold real numbers, got None$"),
    (lambda: AmbientSpace(None).wrap([10**400, 0, 0, 0]), r"^positions must hold real numbers"),
    (lambda: AmbientSpace((1, 1, 1, 1)).wrap(np.full(4, 1j)),
     r"^positions must hold real numbers, got complex128 entries$"),
    (lambda: AmbientSpace((1, 1, 1, 1)).displacement([[1.0], [0.0, 0.0]], E0),
     r"^position p must hold real numbers"),
    (lambda: AmbientSpace((1, 1, 1, 1)).displacement(E0, np.ones(4, bool)),
     r"^position q must hold real numbers, got bool entries$"),
], ids=["wrap-str", "displacement-str", "displacement-complex", "wrap-str-entries", "wrap-bools",
        "wrap-ragged", "wrap-None", "wrap-huge-int", "torus-wrap-complex", "displacement-ragged",
        "displacement-bools"])
def test_public_vectors_are_refused_by_name(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_plane_helpers_match_the_matrix_form(triple):
    # the plane helpers apply J_d from its fixed row table; every J_d is a
    # signed permutation, so they agree with the plain products vec @ J_d^T
    # bit for bit
    assert standard_twistor_triple() is _TRIPLE
    js = np.stack([triple.j1, triple.j2, triple.j3])
    rebuilt = np.zeros((3, 4, 4))
    for d, rows in enumerate(_J_ROWS):
        for r, (k, sign) in enumerate(rows):
            rebuilt[d, r, k] = sign
    assert np.array_equal(rebuilt, js)
    e1, e2 = RNG.standard_normal((2, 7, 5, 4))
    for x in (e1, e2):
        x /= np.linalg.norm(x, axis=-1, keepdims=True)

    pairing = np.stack([((e1 @ j.T) * e2).sum(-1) for j in js], axis=-1)
    a = pairing / np.linalg.norm(pairing, axis=-1, keepdims=True)

    def planes(x):
        return np.moveaxis(x, -1, 0)

    assert np.array_equal(_j_pairing(planes(e1), planes(e2)), planes(pairing))
    assert np.array_equal(_tangent_phase(planes(e1), planes(e2)), planes(a))
    for d, j in enumerate(js):
        assert np.array_equal(_apply_j(d, planes(e1)), planes(e1 @ j.T))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dot_is_the_left_to_right_sum(n):
    # x0 y0 + x1 y1 + ... summed in that order, bit for bit, on contiguous
    # planes and on transposed node-major views; the specials include
    # all -0.0 products, whose sum must stay -0.0
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, np.inf, -np.inf, np.nan])
    x = np.concatenate([RNG.standard_normal((n, 6, 5)) * 10.0 ** RNG.integers(-9, 9, (n, 6, 5)),
                        RNG.choice(special, (n, 6, 5)), np.full((n, 1, 5), -0.0)], axis=1)
    y = np.concatenate([RNG.standard_normal((n, 6, 5)), RNG.choice(special, (n, 6, 5)),
                        np.ones((n, 1, 5))], axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        expect = x[0] * y[0]
        for xk, yk in zip(x[1:], y[1:]):
            expect = expect + xk * yk
        views = [np.ascontiguousarray(np.moveaxis(v, 0, -1)).transpose(2, 0, 1) for v in (x, y)]
        for got in (_dot(x, y), _dot(*views)):
            assert np.array_equal(_bits(got), _bits(expect))
    assert np.signbit(expect[-1]).all()


@pytest.mark.parametrize("periods", [None, (2 * np.pi,) * 4])
def test_wrap_returns_a_new_array(periods):
    # in R^4 too: the result never shares memory with its input, and
    # coordinates inside the box keep their bits
    x = RNG.uniform(0, 2 * np.pi, (6, 5, 4))
    before = x.copy()
    got = AmbientSpace(periods).wrap(x)
    assert not np.shares_memory(got, x)
    assert np.array_equal(_bits(got), _bits(before)) and np.array_equal(_bits(x), _bits(before))


def test_wrap_matches_mod_bit_for_bit():
    # wrap sends only coordinates outside [0, period) through np.mod; the
    # result must still be np.mod's, sign bit and NaN included
    periods = (2 * np.pi, 1.0, 3.0, 0.7)
    ambient = AmbientSpace(periods)
    per = np.array(periods)
    columns = [
        np.array([-0.0, 0.0, p, -1e-300, p - 1e-15, 3.5 * p, -2.25 * p, 7 * p + 0.1,
                  np.nan, -np.nan, 0.5 * p, np.nextafter(p, 0), -p])
        for p in periods
    ]
    x = np.stack(columns, axis=-1)
    before = x.copy()
    got = ambient.wrap(x)
    assert got is not x and np.array_equal(_bits(x), _bits(before))
    assert np.array_equal(_bits(got), _bits(np.mod(x, per)))
    random = RNG.uniform(-3, 3, (50, 4)) * per
    assert np.array_equal(_bits(ambient.wrap(random)), _bits(np.mod(random, per)))


@pytest.mark.parametrize("periods", [
    (1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, -2.0),
    (1.0, 1.0, 1.0, np.nan), (1.0, 1.0, 1.0, np.inf),
], ids=["3-periods", "5-periods", "zero", "negative", "nan", "inf"])
def test_periods_must_be_four_positive_finite_lengths(periods):
    with pytest.raises(InputError, match=r"^periods must be 4 positive finite lengths, got "
                                         + re.escape(str(periods)) + "$"):
        AmbientSpace(periods)


@pytest.mark.parametrize("periods", [None, (2 * np.pi, 1.0, 3.0, 0.7)], ids=["R4", "torus"])
def test_displacement_takes_the_nearest_image(periods):
    # in R^4 the plain difference; on the torus the image of q - p that
    # differs from it by whole periods and is at most half a period long
    ambient = AmbientSpace(periods)
    p, q = RNG.uniform(-10.0, 10.0, (2, 50, 4))
    d = ambient.displacement(p, q)
    if periods is None:
        assert np.array_equal(d, q - p)
        return
    per = np.array(periods)
    assert np.all(np.abs(d) <= per / 2 * (1 + 1e-15))
    laps = (q - p - d) / per
    assert np.max(np.abs(laps - np.round(laps))) <= 1e-12


DEMO_01 = """\
quaternion relations of the standard triple
  |J1 J2 - J3|        = 0.000e+00
  |J2 J3 - J1|        = 0.000e+00
  |J3 J1 - J2|        = 0.000e+00
  |J1^2 + I|          = 0.000e+00
  |J2^2 + I|          = 0.000e+00
  |J3^2 + I|          = 0.000e+00

phase operators J_a stay on the same quadric for any unit a
  worst |J_a^2 + I|, |J_a^T J_a - I| over 5 draws = 4.441e-16

Kahler forms on coordinate pairs, omega_d(u, v) = <J_d u, v>
  omega_1 on (e_k, e_l), k<l: [-1.  0.  0.  0.  0.  1.]
  omega_2 on (e_k, e_l), k<l: [ 0. -1.  0.  0. -1.  0.]
  omega_3 on (e_k, e_l), k<l: [ 0.  0. -1.  1.  0.  0.]

holomorphic symplectic form of the pair (J_1, J_2)
  Omega(e1, e3) = 1j
  Omega(e1, e4) = (-1+0j)
  antisymmetry residual of the real part = 0.000e+00

canonical phase of a tilting tangent plane
  tilt 0.000: a = (-1.0000, +0.0000, +0.0000)
  tilt 0.785: a = (-0.7071, +0.0000, -0.7071)
  tilt 1.571: a = (-0.0000, +0.0000, -1.0000)
"""


def test_demo_01_prints_the_frozen_tour(capsys):
    # demo 01 builds J_a, the Kahler forms, Omega and the phase of a tilting
    # plane with numpy from the triple alone; every printed value is frozen
    demo = Path(__file__).resolve().parents[1] / "demos" / "01_twistor_algebra.py"
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == DEMO_01
