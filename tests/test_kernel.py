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
    _J_ROWS,
    _TRIPLE,
    AmbientSpace,
    _apply_j,
    _dot,
    _j_pairing,
    _tangent_phase,
    canonical_phase_from_frame,
    holomorphic_symplectic,
    phase_operator,
    phi_field,
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
    assert np.array_equal(phase_operator([1, 0, 0]), triple.j1)
    assert np.array_equal(phase_operator([0, 0, 1]), triple.j3)


def test_phase_operator_generic_direction():
    a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    m = phase_operator(a)
    assert np.max(np.abs(m @ m + np.eye(4))) <= 1e-12
    for _ in range(20):
        u, v = RNG.standard_normal((2, 4))
        assert abs(np.dot(m @ u, m @ v) - np.dot(u, v)) <= 1e-12 * (
            1 + abs(np.dot(u, v))
        )


# NaN fails the unit test too, rather than giving an all-NaN J_a
@pytest.mark.parametrize("make", [
    lambda: phase_operator([1.0, 1.0, 0.0]),
    lambda: phase_operator([np.nan, 0.0, 0.0]),
    lambda: phase_operator([np.inf, 0.0, 0.0]),
    lambda: holomorphic_symplectic((1.0, 0.0, 0.0), (0.0, np.nan, 0.0)),
], ids=["sqrt2", "nan", "inf", "pair-nan"])
def test_phase_operator_rejects_non_unit(make):
    with pytest.raises(InputError, match="twistor coefficient is not unit"):
        make()


@pytest.mark.parametrize("coeff, message", [
    ([1.0, 0.0], r"must be a 3-vector, got shape \(2,\)"),
    ([[1.0, 0.0, 0.0]], r"must be a 3-vector, got shape \(1, 3\)"),
    ("abc", "must hold real numbers, got 'abc'"),
    (["1", "0", "0"], "must hold real numbers"),
    ([True, False, False], "must hold real numbers"),
    ([[1.0], [0.0, 0.0]], "must hold real numbers"),
    (None, "must hold real numbers, got None"),
    ([10**400, 0, 0], "must hold real numbers"),
], ids=["2-vector", "1x3", "str", "str-entries", "bools", "ragged", "None", "huge-int"])
def test_phase_operator_rejects_non_3_vector(coeff, message):
    with pytest.raises(InputError, match=message):
        phase_operator(coeff)


# a vector with no direction has no companion: refused, not mapped to NaN or
# to a chart's answer
@pytest.mark.parametrize("a, message", [
    ([np.nan, 0.0, 1.0], r"^phase vector is zero or not finite: \[nan"),
    ([0.0, 0.0, 0.0], r"^phase vector is zero or not finite"),
    ([[0.0, 0.0, 1.0], [np.inf, 0.0, 0.0]], r"^phase vector at index \(1,\) is zero or not finite"),
    ([[[0.0, 0.0, 1.0], [1e200, 0.0, 0.0]]], r"^phase vector at index \(0, 1\) is zero or not finite"),
    (0.5, r"^phase array must have a last axis of length 3, got shape \(\)$"),
    ([[1.0, 0.0]], r"^phase array must have a last axis of length 3, got shape \(1, 2\)$"),
    ("x", r"^phase array must hold real numbers, got 'x'$"),
    ([1j, 0.0, 1.0], r"^phase array must hold real numbers"),
], ids=["nan", "zero", "inf-at-1", "overflow-at-0-1", "scalar", "2-vectors", "str", "complex"])
def test_phi_field_refuses_a_vector_with_no_companion(a, message):
    with pytest.raises(InputError, match=message):
        phi_field(a)


E0 = [1.0, 0.0, 0.0, 0.0]
PAIR = holomorphic_symplectic((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


# the public vector entry points name the argument they refuse
@pytest.mark.parametrize("call, message", [
    (lambda: symplectic_form(_TRIPLE.j1, "ab", E0), r"^vector u must hold real numbers, got 'ab'$"),
    (lambda: symplectic_form(_TRIPLE.j1, E0, [np.nan, 0, 0, 0]), r"^vector v must be finite"),
    (lambda: symplectic_form(_TRIPLE.j1, E0, [0, np.inf, 0, 0]), r"^vector v must be finite"),
    (lambda: symplectic_form(_TRIPLE.j1, [1, 0, 0], E0),
     r"^vector u must be a 4-vector, got shape \(3,\)$"),
    (lambda: PAIR.evaluate("abcd", E0), r"^vector u must hold real numbers, got 'abcd'$"),
    (lambda: PAIR.evaluate(E0, [np.nan, 0, 0, 0]), r"^vector v must be finite"),
    (lambda: AmbientSpace(None).wrap("x"), r"^positions must hold real numbers, got 'x'$"),
    (lambda: AmbientSpace((1, 1, 1, 1)).displacement("x", E0),
     r"^position p must hold real numbers, got 'x'$"),
    (lambda: AmbientSpace(None).displacement(E0, [1j, 0, 0, 0]), r"^position q must hold real numbers"),
], ids=["form-str", "form-nan", "form-inf", "form-3-vector", "evaluate-str", "evaluate-nan",
        "wrap-str", "displacement-str", "displacement-complex"])
def test_public_vectors_are_refused_by_name(call, message):
    with pytest.raises(InputError, match=message):
        call()


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
    form = holomorphic_symplectic([1, 0, 0], [0, 1, 0])
    # J1 J2 = J3, so the real part is omega_{J3}; the imaginary part is
    # -omega_{J2} under the sign convention Omega = omega_{JK} - i omega_K
    assert np.max(np.abs(form.real_part - triple.j3.T)) <= 1e-14
    assert np.max(np.abs(form.imag_part + triple.j2.T)) <= 1e-14
    assert np.max(np.abs(form.real_part + form.real_part.T)) <= 1e-14
    assert np.max(np.abs(form.imag_part + form.imag_part.T)) <= 1e-14


def test_holomorphic_symplectic_vanishes_on_diagonal():
    form = holomorphic_symplectic([0, 1, 0], [0, 0, 1])
    for _ in range(10):
        u = RNG.standard_normal(4)
        assert abs(form.evaluate(u, u)) <= 1e-12 * (1 + u @ u)


def test_complex_lagrangian_plane_annihilates_omega_j1():
    # span{e0, e1} is J1-complex, so Omega_{J1} restricted to it vanishes
    form = holomorphic_symplectic([1, 0, 0], [0, 1, 0])
    u = np.array([1.0, 0, 0, 0])
    v = np.array([0.0, 1, 0, 0])
    assert abs(form.evaluate(u, v)) <= 1e-14
    assert abs(form.evaluate(v, u)) <= 1e-14


def test_holomorphic_symplectic_componentwise_identity():
    # Omega = omega_{JK} - i omega_K against direct evaluation of both forms
    for _ in range(20):
        a = RNG.standard_normal(3)
        a /= np.linalg.norm(a)
        b = RNG.standard_normal(3)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        form = holomorphic_symplectic(a, b)
        j = phase_operator(a)
        k = phase_operator(b)
        u, v = RNG.standard_normal((2, 4))
        val = form.evaluate(u, v)
        assert abs(val.real - np.dot(j @ (k @ u), v)) <= 1e-12 * (1 + abs(val))
        assert abs(val.imag + np.dot(k @ u, v)) <= 1e-12 * (1 + abs(val))


def test_holomorphic_symplectic_rejects_bad_pairs():
    with pytest.raises(InputError):
        holomorphic_symplectic([1, 0, 0], [1, 0, 0])
    with pytest.raises(InputError):
        holomorphic_symplectic([1, 0, 0], [0, 2, 0])


def test_canonical_phase_standard_basis():
    e = np.eye(4)
    a = canonical_phase_from_frame(e[0], e[1], e[2], e[3])
    # frozen for this triple: the coordinate complex plane has phase -x
    assert np.max(np.abs(a - np.array([-1.0, 0.0, 0.0]))) <= 1e-14
    jpsi = phase_operator(a)
    assert np.linalg.norm(jpsi @ e[0] - e[1]) <= 1e-12
    assert np.linalg.norm(jpsi @ e[2] + e[3]) <= 1e-12


def test_canonical_phase_lagrangian_plane():
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
    a = canonical_phase_from_frame(*frame)
    assert abs(a[2]) <= 1e-14
    assert np.max(np.abs(a - np.array([0.0, -1.0, 0.0]))) <= 1e-14


def test_canonical_phase_tangent_rotation_invariance():
    e = np.eye(4)
    a0 = canonical_phase_from_frame(e[0], e[1], e[2], e[3])
    for phi in (0.3, 1.1, 2.9):
        f1 = np.cos(phi) * e[0] + np.sin(phi) * e[1]
        f2 = -np.sin(phi) * e[0] + np.cos(phi) * e[1]
        a = canonical_phase_from_frame(f1, f2, e[2], e[3])
        assert np.max(np.abs(a - a0)) <= 1e-12


def test_canonical_phase_independent_normal_rotations():
    # rotating (e1,e2) and (e3,e4) by independent angles keeps the phase
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 3] = -q[:, 3]
        e1, e2, e3, e4 = q.T
        a0 = canonical_phase_from_frame(e1, e2, e3, e4)
        phi, psi = RNG.uniform(0, 2 * np.pi, 2)
        f1 = np.cos(phi) * e1 + np.sin(phi) * e2
        f2 = -np.sin(phi) * e1 + np.cos(phi) * e2
        f3 = np.cos(psi) * e3 + np.sin(psi) * e4
        f4 = -np.sin(psi) * e3 + np.cos(psi) * e4
        a = canonical_phase_from_frame(f1, f2, f3, f4)
        assert np.max(np.abs(a - a0)) <= 1e-10


def test_canonical_phase_reproduces_kahler_pairing(triple):
    # a3 = omega_{J3}(e1, e2) for random oriented frames
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.standard_normal((4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 3] = -q[:, 3]
        e1, e2, e3, e4 = q.T
        a = canonical_phase_from_frame(e1, e2, e3, e4)
        assert abs(a[2] - symplectic_form(triple.j3, e1, e2)) <= 1e-12
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12


def test_canonical_phase_error_paths():
    e = np.eye(4)
    with pytest.raises(FrameError, match="not orthonormal"):
        canonical_phase_from_frame(2 * e[0], e[1], e[2], e[3])
    with pytest.raises(FrameError, match="oriented"):
        canonical_phase_from_frame(e[1], e[0], e[2], e[3])
    # a NaN or infinite entry fails the Gram test, before det can warn on it
    for bad in (np.nan, np.inf):
        with pytest.raises(FrameError, match="not orthonormal: max Gram deviation nan"):
            canonical_phase_from_frame([bad, 0.0, 0.0, 0.0], e[1], e[2], e[3])
    with pytest.raises(InputError, match=r"frame vector e1 must be a 4-vector, got shape \(3,\)"):
        canonical_phase_from_frame(*np.eye(4, 3))       # four 3-vectors
    with pytest.raises(InputError, match="frame vector e3 must hold real numbers, got 'abcd'"):
        canonical_phase_from_frame(e[0], e[1], "abcd", e[3])
    # small orthonormality slack below the gate is accepted
    wiggle = e[0] + 1e-9 * e[1]
    a = canonical_phase_from_frame(wiggle, e[1], e[2], e[3])
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-9


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
