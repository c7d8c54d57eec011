"""How the phase schedule alone decides whether speed efficiency survives.

Drive a qubit along the fixed path cos(omega0 t)|0> + sin(omega0 t)|1> while
attaching a phase phi(t) to it.  The amplitude speed is constant, so the
speed efficiency depends only on the instantaneous phase rate: the faster
the phase winds, the more of the Hamiltonian budget is spent on something
the path never sees.

Three schedules with identical initial rate phi_dot(0) = 1 then diverge:

* logarithmic -- the rate decays, efficiency climbs back towards 1,
* linear      -- the rate is constant, efficiency sits at a plateau,
* exponential -- the rate blows up, efficiency collapses towards 0.

Both sub-optimal drives are tabulated: the traceless variant and the
trace-keeping variant, which is pointwise worse.
"""

import numpy as np

from blochpath import (speed_efficiency_tracenonzero, speed_efficiency_tracezero,
                       sweep_phase_profiles)
from blochpath.scenarios import write_csv


def main() -> None:
    tables = {name: sweep_phase_profiles(name, phi0=1.0, phidot0=1.0,
                                         omega0=1.0, t_end=5.0, n_points=501)
              for name in ("log", "linear", "exp")}

    print("traceless-drive speed efficiency over time:")
    print(f"{'t':>5} {'log':>10} {'linear':>10} {'exp':>10}")
    for k in (0, 100, 250, 500):
        t = tables["log"]["t"][k]
        row = [tables[name]["eta_se_trace_zero"][k]
               for name in ("log", "linear", "exp")]
        print(f"{t:5.2f} {row[0]:10.6f} {row[1]:10.6f} {row[2]:10.6f}")

    # the closed forms at the amplitude speed c^2 = omega0^2 = 1 and the rate 1
    shared = speed_efficiency_tracezero(1.0, 1.0)
    start = [tables[name]["eta_se_trace_zero"][0]
             for name in ("log", "linear", "exp")]
    assert start == [shared] * 3
    print()
    print(f"all three start at {start[0]:.6f} = 1/sqrt(1 + 1/4), fixed by "
          f"the shared initial rate")

    log_eta = tables["log"]["eta_se_trace_zero"]
    assert np.all(np.diff(log_eta) > 0.0)
    print(f"log schedule recovers monotonically: "
          f"{log_eta[0]:.4f} -> {log_eta[-1]:.4f}")
    print(f"exp schedule collapses: "
          f"{tables['exp']['eta_se_trace_zero'][-1]:.6f} at t = 5")

    linear = tables["linear"]
    assert (linear["eta_se_trace_zero"] == shared).all()
    assert (linear["eta_se_trace_nonzero"] == speed_efficiency_tracenonzero(1.0, 1.0)).all()
    gap = linear["eta_se_trace_zero"] - linear["eta_se_trace_nonzero"]
    print(f"keeping the trace always costs extra: gap in "
          f"[{gap.min():.6f}, {gap.max():.6f}]")

    for name, table in tables.items():
        write_csv(f"phase_profile_{name}.csv", table)
    print("tables written to phase_profile_{log,linear,exp}.csv")


if __name__ == "__main__":
    main()
