"""The built-in surface scenarios and their geometry meters.

Each scenario is sampled on a periodic parameter grid and pushed through
the geometry cache; the table below shows total area, curvature ranges,
and the Gauss identity residual per scenario, then the clifford area
against its discrete closed form across resolutions.
"""

import numpy as np

from hkflow import compute_geometry, gauss_curvature_check, scenario

TWO_PI = 2.0 * np.pi

ZOO = [
    ("flat-plane-torus", {}),
    ("clifford", {"R": 1.0, "r": 1.0}),
    ("perturbed-complex-torus", {"eps": 0.05}),
    ("lagrangian-graph", {"eps": 0.3}),
    (
        "custom-expression",
        {
            # the first two coordinates wrap, so the ambient periods must
            # be declared or seam differences would straddle the jump
            "exprs": ["u", "v", "0.1*sin(u+v)", "0.1*cos(u-v)"],
            "periods": (TWO_PI,) * 4,
        },
    ),
]


def main():
    n = 64
    print(f"scenario zoo at {n}x{n}")
    print(f"{'name':<26} {'area':>10} {'max |H|':>9} {'max |A|':>9} {'gauss res':>10}")
    for name, params in ZOO:
        cache = compute_geometry(scenario(name, n, n, **params))
        area = cache.node_area().sum()
        max_h = np.sqrt(cache.norm_H_sq.max())
        max_a = np.sqrt(cache.norm_A_sq.max())
        gauss = gauss_curvature_check(cache).max()
        print(f"{name:<26} {area:>10.5f} {max_h:>9.5f} {max_a:>9.5f} {gauss:>10.3e}")

    print("\nclifford area vs the neighbor-difference closed form")
    # chord differences shorten every edge by sinc(h/2), so the discrete
    # area of the R = r = 1 torus is 4 pi^2 sinc^2 rather than 4 pi^2
    for n in (16, 32, 64, 128):
        cache = compute_geometry(scenario("clifford", n, n, R=1.0, r=1.0))
        area = cache.node_area().sum()
        predicted = 4 * np.pi**2 * np.sinc(1.0 / n) ** 2
        print(
            f"  {n:>4}x{n:<4} area = {area:.9f}   closed form {predicted:.9f}   "
            f"gap to 4 pi^2 = {4 * np.pi**2 - area:.2e}"
        )

    print("\nclifford curvature is resolution-exact")
    for n in (32, 128):
        cache = compute_geometry(scenario("clifford", n, n, R=1.0, r=1.0))
        print(f"  {n:>4}x{n:<4} max ||H|^2 - 2| = {np.abs(cache.norm_H_sq - 2.0).max():.3e}")


if __name__ == "__main__":
    main()
