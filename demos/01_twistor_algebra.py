"""Tour of the quaternionic kernel: the standard triple, phase operators
on the coefficient sphere, and the symplectic forms they induce.

Everything printed here is exact linear algebra on 4x4 matrices; the
residuals should sit at machine zero.
"""

import numpy as np

from hkflow import (
    canonical_phase_from_frame,
    holomorphic_symplectic,
    phase_operator,
    standard_twistor_triple,
    symplectic_form,
)


def main():
    triple = standard_twistor_triple()
    j1, j2, j3 = triple.j1, triple.j2, triple.j3
    eye = np.eye(4)

    print("quaternion relations of the standard triple")
    print(f"  |J1 J2 - J3|        = {np.abs(j1 @ j2 - j3).max():.3e}")
    print(f"  |J2 J3 - J1|        = {np.abs(j2 @ j3 - j1).max():.3e}")
    print(f"  |J3 J1 - J2|        = {np.abs(j3 @ j1 - j2).max():.3e}")
    for d, j in enumerate((j1, j2, j3), start=1):
        print(f"  |J{d}^2 + I|          = {np.abs(j @ j + eye).max():.3e}")

    print("\nphase operators J_a stay on the same quadric for any unit a")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        ja = phase_operator(a)
        worst = max(
            worst,
            np.abs(ja @ ja + eye).max(),
            np.abs(ja.T @ ja - eye).max(),
        )
    print(f"  worst |J_a^2 + I|, |J_a^T J_a - I| over 5 draws = {worst:.3e}")

    print("\nKahler forms on coordinate pairs, omega_d(u, v) = <J_d u, v>")
    basis = np.eye(4)
    for d, j in enumerate((j1, j2, j3), start=1):
        vals = [
            symplectic_form(j, basis[k], basis[l])
            for k in range(4)
            for l in range(k + 1, 4)
        ]
        print(f"  omega_{d} on (e_k, e_l), k<l: {np.array(vals)}")

    print("\nholomorphic symplectic form of the pair (J_1, J_2)")
    form = holomorphic_symplectic((1, 0, 0), (0, 1, 0))
    print(f"  Omega(e1, e3) = {form.evaluate(basis[0], basis[2])}")
    print(f"  Omega(e1, e4) = {form.evaluate(basis[0], basis[3])}")
    sym = np.abs(form.real_part + form.real_part.T).max()
    print(f"  antisymmetry residual of the real part = {sym:.3e}")

    print("\ncanonical phase of a tilting tangent plane")
    # the phase depends only on the oriented tangent pair (e1, e2);
    # tilting e2 out of the x2 axis moves a along a great circle, while
    # the adapted normal frame is reconstructed as e4 = -J_a e3
    e1 = basis[0]
    e3 = basis[2]
    for t in (0.0, 0.25 * np.pi, 0.5 * np.pi):
        c, s = np.cos(t), np.sin(t)
        e2 = np.array([0.0, c, 0.0, s])
        a_raw = np.array([float(e2 @ (j @ e1)) for j in (j1, j2, j3)])
        e4 = -(phase_operator(a_raw) @ e3)
        a = canonical_phase_from_frame(e1, e2, e3, e4)
        print(f"  tilt {t:5.3f}: a = ({a[0]:+.4f}, {a[1]:+.4f}, {a[2]:+.4f})")


if __name__ == "__main__":
    main()
