"""Closed forms of the coupled flow on products of circles.

Mean curvature flow moves each round factor of a product by r' = -1/r,
so a circle of radius r has r(t)^2 = r^2 - 2t, and a flat factor stays.
The canonical phase winds once along each round circle, |grad a|^2 = |A|^2
= |H|^2, and the first nonzero eigenvalue of a product of circles of
lengths 2 pi R_k is min 1 / R_k^2.  Each function returns max|A|, max|H|,
area, twistor energy T and lambda1 at flow time t, keyed by the
DiagnosticsRecord field names.
"""

import math


def clifford(t, big_r, r):
    """The Clifford torus (big_r, r) in R^4: |A|^2 = |H|^2 = 1/R^2 + 1/r^2,
    area 4 pi^2 R r and T = 4 pi^2 (R/r + r/R)."""
    big_rt, rt = math.sqrt(big_r**2 - 2 * t), math.sqrt(r**2 - 2 * t)
    curv = math.sqrt(1 / big_rt**2 + 1 / rt**2)
    return dict(max_A=curv, max_H=curv, area=4 * math.pi**2 * big_rt * rt,
                twistor_energy=4 * math.pi**2 * (big_rt / rt + rt / big_rt),
                lambda1=1 / max(big_rt, rt) ** 2)


def cylinder(t, r=1.0):
    """The T^4 cylinder u; 0*u; r cos v; r sin v, a flat circle of length
    2 pi times a round one: |A| = |H| = 1/r, area 4 pi^2 r, T = 4 pi^2 / r
    and lambda1 = min(1, 1/r^2)."""
    rt = math.sqrt(r**2 - 2 * t)
    return dict(max_A=1 / rt, max_H=1 / rt, area=4 * math.pi**2 * rt,
                twistor_energy=4 * math.pi**2 / rt, lambda1=min(1.0, 1 / rt**2))
