"""Spectral gap, geodesic ball volumes, and the sup-from-L2 validator.

The first nonzero Laplace eigenvalue controls how fast phase energy can
decay; ball volume ratios measure how far the surface is from collapsing;
the validator turns an L2-small field into a sup-norm certificate using
exactly those two quantities.
"""

import numpy as np

from hkflow import (
    c0_from_l2_validator,
    compute_geometry,
    geodesic_ball_volumes,
    lambda1,
    scenario,
)

TWO_PI = 2.0 * np.pi


def cache_for(name, n, **kw):
    return compute_geometry(scenario(name, n, n, **kw))


def main():
    print("first nonzero eigenvalue of the flat square torus (exact value 1)")
    for n in (16, 32, 64):
        res = lambda1(cache_for("flat-plane-torus", n))
        print(
            f"  {n:>3}x{n:<3} lambda1 = {res.lambda1:.8f}   error {abs(res.lambda1 - 1.0):.3e}"
            f"   {res.iterations} iterations, residual {res.residual:.1e}"
        )

    print("\nrectangle 2 pi x 4 pi (exact value 1/4) and curved scenarios")
    rect = lambda1(cache_for("flat-plane-torus", 48, Lv=2 * TWO_PI))
    print(f"  rectangle lambda1 = {rect.lambda1:.8f}   error {abs(rect.lambda1 - 0.25):.3e}")
    for name, kw in (("clifford", {"R": 1.0, "r": 1.0}), ("perturbed-complex-torus", {"eps": 0.05})):
        res = lambda1(cache_for(name, 48, **kw))
        print(f"  {name:<26} lambda1 = {res.lambda1:.8f}")

    print("\ngeodesic ball volumes, Vol(B(x, r)) / r^2")
    # Dijkstra on the 8-neighbor chord graph over-counts distance off the
    # stencil directions, and small balls count whole node areas, so the
    # ratio brackets pi within roughly 10% instead of converging to it
    cache = cache_for("flat-plane-torus", 64)
    for r in (0.25, 0.5, 1.0):
        rep = geodesic_ball_volumes(cache, radius=r)
        print(f"  flat torus r = {r:4.2f}: worst ratio kappa = {rep.kappa:.4f}   (pi = {np.pi:.4f})")
    rep = geodesic_ball_volumes(cache_for("clifford", 64, R=1.0, r=1.0), radius=0.5)
    print(f"  clifford   r = 0.50: worst ratio kappa = {rep.kappa:.4f}")

    print("\nsup-norm certificate for an L2-small field")
    cache = cache_for("perturbed-complex-torus", 64, eps=0.05)
    u, v = cache.grid.param_axes()
    sigma = 1e-3 * np.sin(2 * u) * np.cos(3 * v)
    lam = 1e-3 * np.sqrt(13.0) * 1.1          # safe Lipschitz claim
    rep = c0_from_l2_validator(sigma, lam, cache, radius=0.5)
    print(f"  L2 mass epsilon     = {rep.epsilon:.3e}")
    print(f"  kappa at radius 0.5 = {rep.kappa:.4f}")
    print(f"  certified bound     = {rep.bound:.3e}")
    print(f"  observed sup        = {rep.max_observed:.3e}")
    print(f"  bound holds: {rep.holds}")


if __name__ == "__main__":
    main()
