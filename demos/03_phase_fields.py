"""Complex phases of the scenario surfaces and the identities they obey.

The phase of a surface point is the unit coefficient a with J_a mapping
the first tangent direction to the second.  Three stories below: where
each scenario sits on the coefficient sphere, the Lagrangian angle of
the clifford torus, and the pointwise meters on a perturbed surface.
"""

import numpy as np

from hkflow import (
    bja_identity,
    build_immersion,
    compute_geometry,
    hyper_lagrangian_residual,
    kahler_angle,
    lagrangian_angle,
    phase_field,
    plf_residual,
    polar_identity_check,
    scenario,
    tension_field,
    twistor_energy,
)


def cache_for(name, n=64, **kw):
    return compute_geometry(build_immersion(scenario(name, n, n, **kw)))


def main():
    print("where the scenarios live on the coefficient sphere")
    for name, kw in (
        ("flat-plane-torus", {}),
        ("clifford", {"R": 1.0, "r": 1.0}),
        ("perturbed-complex-torus", {"eps": 0.05}),
    ):
        cache = cache_for(name, **kw)
        pf = phase_field(cache)
        a = pf.a
        spread = max(np.ptp(a[..., d]) for d in range(3))
        print(
            f"  {name:<26} mean a = ({a[..., 0].mean():+.3f}, {a[..., 1].mean():+.3f}, "
            f"{a[..., 2].mean():+.3f})  spread {spread:.3f}  "
            f"energy {twistor_energy(pf, cache):.6f}"
        )

    print("\nthe clifford phase is a great circle, not a point")
    cache = cache_for("clifford", R=1.0, r=1.0)
    pf = phase_field(cache)
    # a = (0, -cos(u - v), sin(u - v)) up to discretization, so the
    # Kahler angle sweeps the full range while a1 stays pinned at 0
    print(f"  max |a1|          = {np.abs(pf.a[..., 0]).max():.3e}")
    print(f"  kahler angle range = [{kahler_angle(pf).min():.4f}, {kahler_angle(pf).max():.4f}]")
    u, v = cache.grid.param_axes()
    predicted = np.stack(
        [np.zeros_like(u), -np.cos(u - v), np.sin(u - v)], axis=-1
    )
    print(f"  max |a - a(u - v)| = {np.abs(pf.a - predicted).max():.3e}")
    print(f"  tension max        = {np.abs(tension_field(pf, cache)).max():.3e} (harmonic)")

    print("\nLagrangian angle of a product-of-circles torus")
    # the clifford phase crosses the poles, so the angle chart refuses
    # it; this torus keeps a3 = 0 and winds once around each factor
    eq = cache_for(
        "custom-expression",
        exprs=["0.7*cos(u)", "0.7*cos(v)", "0.7*sin(v)", "0.7*sin(u)"],
    )
    ang = lagrangian_angle(phase_field(eq), eq)
    print(f"  winding (u, v) = {ang.winding}")
    print(f"  exactness residual |i_H omega + d theta|_L2 = {ang.residual:.3e}")

    print("\npointwise meters on perturbed-complex-torus, 64^2 vs 128^2")
    print(f"  {'meter':<22} {'64^2':>10} {'128^2':>10}")
    rows = {}
    for n in (64, 128):
        cache = cache_for("perturbed-complex-torus", n, eps=0.05)
        pf = phase_field(cache)
        lhs, rhs, _ = bja_identity(cache, pf)
        rows.setdefault("frame-vs-curvature", []).append(np.abs(lhs - rhs).max())
        rows.setdefault("phase-gradient", []).append(plf_residual(cache, pf).max())
        rows.setdefault("polar-chart", []).append(polar_identity_check(pf, cache).max())
        rows.setdefault("hyper-lagrangian", []).append(
            hyper_lagrangian_residual(cache, pf).max()
        )
    for name, (a64, a128) in rows.items():
        print(f"  {name:<22} {a64:>10.3e} {a128:>10.3e}")


if __name__ == "__main__":
    main()
