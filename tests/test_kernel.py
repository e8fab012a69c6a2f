"""Kernel checks.

The triple is verified against an independent symbolic-style oracle first:
we expand right multiplication by a quaternion through the bare product
table of (1, i, j, k) and compare entrywise.  Everything else builds on
that anchor.
"""

import numpy as np
import pytest

from hkflow.errors import FrameError, InputError
from hkflow.kernel import (
    AmbientSpace,
    TwistorTriple,
    _apply_phase,
    _dot,
    _tangent_phase,
    canonical_phase_from_frame,
    holomorphic_symplectic,
    phase_operator,
    standard_twistor_triple,
    symplectic_form,
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
    for _ in range(50):
        u, v = RNG.standard_normal((2, 4))
        for m in (triple.j1, triple.j2, triple.j3):
            assert abs(np.dot(m @ u, m @ v) - np.dot(u, v)) <= 1e-12 * (
                1 + abs(np.dot(u, v))
            )


def test_phase_operator_basis_coefficients(triple):
    assert np.array_equal(phase_operator([1, 0, 0], triple), triple.j1)
    assert np.array_equal(phase_operator([0, 0, 1], triple), triple.j3)


def test_phase_operator_generic_direction(triple):
    a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    m = phase_operator(a, triple)
    assert np.max(np.abs(m @ m + np.eye(4))) <= 1e-12
    for _ in range(20):
        u, v = RNG.standard_normal((2, 4))
        assert abs(np.dot(m @ u, m @ v) - np.dot(u, v)) <= 1e-12 * (
            1 + abs(np.dot(u, v))
        )


def test_phase_operator_rejects_non_unit(triple):
    with pytest.raises(InputError):
        phase_operator([1.0, 1.0, 0.0], triple)


def test_symplectic_form_compatibility_and_antisymmetry(triple):
    for _ in range(20):
        e = RNG.standard_normal(4)
        e /= np.linalg.norm(e)
        assert abs(symplectic_form(triple.j1, e, triple.j1 @ e) - 1.0) <= 1e-12
        u = RNG.standard_normal(4)
        assert abs(symplectic_form(triple.j2, u, u)) <= 1e-12 * (1 + u @ u)


def test_symplectic_form_matrix_entry_vs_oracle(triple):
    e0 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0.0, 0, 1, 0])
    got = symplectic_form(triple.j3, e0, e2)
    assert got == triple.j3.T[0, 2]
    oracle = oracle_right_mult([0, 0, 0, -1])
    assert got == oracle.T[0, 2]


def test_holomorphic_symplectic_standard_pair(triple):
    form = holomorphic_symplectic([1, 0, 0], [0, 1, 0], triple)
    # J1 J2 = J3, so the real part is omega_{J3}; the imaginary part is
    # -omega_{J2} under the sign convention Omega = omega_{JK} - i omega_K
    assert np.max(np.abs(form.real_part - triple.j3.T)) <= 1e-14
    assert np.max(np.abs(form.imag_part + triple.j2.T)) <= 1e-14
    assert np.max(np.abs(form.real_part + form.real_part.T)) <= 1e-14
    assert np.max(np.abs(form.imag_part + form.imag_part.T)) <= 1e-14


def test_holomorphic_symplectic_vanishes_on_diagonal(triple):
    form = holomorphic_symplectic([0, 1, 0], [0, 0, 1], triple)
    for _ in range(10):
        u = RNG.standard_normal(4)
        assert abs(form.evaluate(u, u)) <= 1e-12 * (1 + u @ u)


def test_complex_lagrangian_plane_annihilates_omega_j1(triple):
    # span{e0, e1} is J1-complex, so Omega_{J1} restricted to it vanishes
    form = holomorphic_symplectic([1, 0, 0], [0, 1, 0], triple)
    u = np.array([1.0, 0, 0, 0])
    v = np.array([0.0, 1, 0, 0])
    assert abs(form.evaluate(u, v)) <= 1e-14
    assert abs(form.evaluate(v, u)) <= 1e-14


def test_holomorphic_symplectic_componentwise_identity(triple):
    # Omega = omega_{JK} - i omega_K against direct evaluation of both forms
    for _ in range(20):
        a = RNG.standard_normal(3)
        a /= np.linalg.norm(a)
        b = RNG.standard_normal(3)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        form = holomorphic_symplectic(a, b, triple)
        j = phase_operator(a, triple)
        k = phase_operator(b, triple)
        u, v = RNG.standard_normal((2, 4))
        val = form.evaluate(u, v)
        assert abs(val.real - np.dot(j @ (k @ u), v)) <= 1e-12 * (1 + abs(val))
        assert abs(val.imag + np.dot(k @ u, v)) <= 1e-12 * (1 + abs(val))


def test_holomorphic_symplectic_rejects_bad_pairs(triple):
    with pytest.raises(InputError):
        holomorphic_symplectic([1, 0, 0], [1, 0, 0], triple)
    with pytest.raises(InputError):
        holomorphic_symplectic([1, 0, 0], [0, 2, 0], triple)


def test_canonical_phase_standard_basis(triple):
    e = np.eye(4)
    a = canonical_phase_from_frame(e[0], e[1], e[2], e[3], triple)
    # frozen for this triple: the coordinate complex plane has phase -x
    assert np.max(np.abs(a - np.array([-1.0, 0.0, 0.0]))) <= 1e-14
    jpsi = phase_operator(a, triple)
    assert np.linalg.norm(jpsi @ e[0] - e[1]) <= 1e-12
    assert np.linalg.norm(jpsi @ e[2] + e[3]) <= 1e-12


def test_canonical_phase_lagrangian_plane(triple):
    # span{e0, e2} is Lagrangian for omega_{J3}: a3 = 0, and for this
    # triple the phase is exactly (0, -1, 0)
    e0 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0.0, 0, 1, 0])
    e1 = np.array([0.0, 1, 0, 0])
    e3 = np.array([0.0, 0, 0, 1])
    # need a positively oriented completion of (e0, e2)
    frame = [e0, e2, e1, e3]
    det = np.linalg.det(np.stack(frame))
    if det < 0:
        frame = [e0, e2, e3, e1]
    a = canonical_phase_from_frame(*frame, triple)
    assert abs(a[2]) <= 1e-14
    assert np.max(np.abs(a - np.array([0.0, -1.0, 0.0]))) <= 1e-14


def test_canonical_phase_tangent_rotation_invariance(triple):
    e = np.eye(4)
    a0 = canonical_phase_from_frame(e[0], e[1], e[2], e[3], triple)
    for phi in (0.3, 1.1, 2.9):
        f1 = np.cos(phi) * e[0] + np.sin(phi) * e[1]
        f2 = -np.sin(phi) * e[0] + np.cos(phi) * e[1]
        a = canonical_phase_from_frame(f1, f2, e[2], e[3], triple)
        assert np.max(np.abs(a - a0)) <= 1e-12


def test_canonical_phase_independent_normal_rotations(triple):
    # rotating (e1,e2) and (e3,e4) by independent angles keeps the phase
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 3] = -q[:, 3]
        e1, e2, e3, e4 = q.T
        a0 = canonical_phase_from_frame(e1, e2, e3, e4, triple)
        phi, psi = RNG.uniform(0, 2 * np.pi, 2)
        f1 = np.cos(phi) * e1 + np.sin(phi) * e2
        f2 = -np.sin(phi) * e1 + np.cos(phi) * e2
        f3 = np.cos(psi) * e3 + np.sin(psi) * e4
        f4 = -np.sin(psi) * e3 + np.cos(psi) * e4
        a = canonical_phase_from_frame(f1, f2, f3, f4, triple)
        assert np.max(np.abs(a - a0)) <= 1e-10


def test_canonical_phase_reproduces_kahler_pairing(triple):
    # a3 = omega_{J3}(e1, e2) for random oriented frames
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 3] = -q[:, 3]
        e1, e2, e3, e4 = q.T
        a = canonical_phase_from_frame(e1, e2, e3, e4, triple)
        assert abs(a[2] - symplectic_form(triple.j3, e1, e2)) <= 1e-12
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12


def test_canonical_phase_error_paths(triple):
    e = np.eye(4)
    with pytest.raises(FrameError, match="not orthonormal"):
        canonical_phase_from_frame(2 * e[0], e[1], e[2], e[3], triple)
    with pytest.raises(FrameError, match="oriented"):
        canonical_phase_from_frame(e[1], e[0], e[2], e[3], triple)
    # small orthonormality slack below the gate is accepted
    wiggle = e[0] + 1e-9 * e[1]
    a = canonical_phase_from_frame(wiggle, e[1], e[2], e[3], triple)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-9


def _rotated_triple(triple, angle=0.7, axis=(1.0, 2.0, 2.0)):
    """J'_d = sum_e R_de J_e for a rotation R of the twistor sphere: still a
    quaternion triple, but no matrix of it is a signed permutation."""
    k = np.asarray(axis) / np.linalg.norm(axis)
    cross = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    rot = np.eye(3) + np.sin(angle) * cross + (1 - np.cos(angle)) * cross @ cross
    return TwistorTriple(*np.einsum("de,ekl->dkl", rot, triple.as_stack()))


@pytest.mark.parametrize("which", ["standard", "pole", "rotated"])
def test_plane_helpers_match_the_matrix_form(triple, which):
    # the plane helpers apply J_d from its table of nonzero row entries;
    # they must agree with the plain products vec @ J_d^T for any triple,
    # exactly for signed permutations, where each row has one entry
    chosen = {
        "standard": triple,
        "pole": TwistorTriple(triple.j3, triple.j2, -triple.j1),   # the flat plane's a at the pole
        "rotated": _rotated_triple(triple),
    }[which]
    tol = {"standard": 0.0, "pole": 0.0, "rotated": 1e-15}[which]
    js = chosen.as_stack()
    rebuilt = np.zeros((3, 4, 4))
    for d, rows in enumerate(chosen.terms):
        for r, terms in enumerate(rows):
            for k, c in terms:
                rebuilt[d, r, k] = c
    assert np.array_equal(rebuilt, js)
    if which == "rotated":
        assert all(np.count_nonzero(j[0]) > 1 for j in js)
        assert np.abs(js[0] @ js[1] - js[2]).max() < 1e-15
    # unit vectors keep every entry below 1, so 1e-15 is a few ulps
    e1, e2 = RNG.standard_normal((2, 7, 5, 4))
    coeff = RNG.standard_normal((7, 5, 3))
    for x in (e1, e2, coeff):
        x /= np.linalg.norm(x, axis=-1, keepdims=True)

    a = np.stack([((e1 @ j.T) * e2).sum(-1) for j in js], axis=-1)
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    applied = sum(coeff[..., d, None] * (e1 @ j.T) for d, j in enumerate(js))

    def planes(x):
        return np.moveaxis(x, -1, 0)

    assert np.abs(_tangent_phase(planes(e1), planes(e2), chosen) - planes(a)).max() <= tol
    assert np.abs(_apply_phase(planes(coeff), planes(e1), chosen) - planes(applied)).max() <= tol


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
