"""A full coupled-flow experiment at desk scale, plus a failure story.

A perturbed complex torus is flowed until its mean curvature is below
1e-6.  Along the way the run log shows the twistor energy collapsing at
the spectral rate while area decreases monotonically; afterwards the
decay exponent is fitted and compared with 2 lambda1.  The second half
shows what the guards do when a surface actually degenerates.
"""

import numpy as np

from hkflow import (
    FlowConfig,
    NumericalError,
    decay_fit,
    run_flow,
    scenario,
)


def main():
    n = 48
    cfg = FlowConfig(steps=8000, lambda1_cadence=10, max_h_below=1e-6)
    grid = scenario("perturbed-complex-torus", n, n, eps=0.1)
    print(f"flowing perturbed-complex-torus (eps = 0.1) at {n}x{n} until max |H| < 1e-6")
    series, final = run_flow(cfg, grid)
    recs = series.records

    print(f"  stop reason: {series.stop_reason} after {len(recs) - 1} steps, t = {recs[-1].t:.3f}")
    print(f"\n  {'t':>7} {'area':>12} {'energy':>12} {'max |H|':>10} {'lambda1':>9}")
    # snap the display rows to the lambda1 cadence, keep the final row
    marks = [int(round(x / 10) * 10) for x in np.linspace(0, len(recs) - 1, 9)]
    marks = dict.fromkeys(marks[:-1] + [len(recs) - 1])
    for k in marks:
        r = recs[k]
        lam = f"{r.lambda1:.5f}" if r.lambda1 is not None else "     "
        print(f"  {r.t:>7.3f} {r.area:>12.7f} {r.twistor_energy:>12.5e} {r.max_H:>10.3e} {lam:>9}")

    drop = recs[-1].twistor_energy / recs[0].twistor_energy
    area_ok = all(b.area <= a.area * (1 + 1e-10) for a, b in zip(recs, recs[1:]))
    print(f"\n  energy dropped by a factor {drop:.1e}; area monotone: {area_ok}")
    print(f"  final phase spread {series.final_phase_spread:.2e}")

    rate, rsq = decay_fit(series, (1.5, 3.0))
    lam_late = [r.lambda1 for r in recs if r.lambda1 is not None][-1]
    print(f"  fitted decay rate  {rate:+.4f}  (r^2 = {rsq:.6f})")
    print(f"  2 lambda1          {2 * lam_late:+.4f}  ratio {abs(rate) / (2 * lam_late):.3f}")

    print("\na thin clifford torus shrinks toward collapse; the guards abort the run")
    # the fixed step is safe at t = 0 and stops being safe as the torus
    # shrinks and its curvature grows
    try:
        run_flow(
            FlowConfig(dt=1e-3, steps=5000, lambda1_cadence=10_000),
            scenario("clifford", 32, 32, R=0.4, r=0.4),
        )
    except NumericalError as exc:
        print(f"  NumericalError: {exc}")

    print("\na too-large perturbation does the same under a fixed step")
    try:
        run_flow(
            FlowConfig(dt=2.1e-3, steps=5000, lambda1_cadence=10_000),
            scenario("perturbed-complex-torus", 48, 48, eps=1.5),
        )
    except NumericalError as exc:
        print(f"  NumericalError: {exc}")


if __name__ == "__main__":
    main()
