"""The curvature coefficient computed three independent ways.

A geodesic on the Bloch sphere has zero curvature coefficient; any detour
shows up as a positive value.  The coefficient can be computed from

* the Bloch-vector closed form (field, its derivative, and the state),
* operator expectation values of the normalized dispersion operator, and
* a direct numerical second derivative of the parallel-transported state
  with respect to arc length (the definition, used here as an oracle),

each as one profile over every node of the run.

For a constant sigma_z field acting on a state tilted 30 degrees off the
axis, all three agree on 4/3 along the entire run, while the great-circle
drive of the first scenario stays flat at zero.
"""

import numpy as np

from blochpath import (
    ScenarioConfig,
    build_scenario,
    curvature_bloch_profile,
    curvature_expectation_profile,
    curvature_numeric_profile,
    schrodinger_evolve,
)


def main() -> None:
    field, psi0, grid = build_scenario(ScenarioConfig(scenario="example3"))
    traj = schrodinger_evolve(field, psi0, grid)

    closed = curvature_bloch_profile(traj)
    expect = curvature_expectation_profile(traj)
    numeric = curvature_numeric_profile(traj)
    print("constant sigma_z drive (expected coefficient 4/3):")
    print(f"{'t':>6} {'closed form':>14} {'expectation':>14} {'numeric':>14}")
    for k in (200, 600, 1000, 1400, 1800):
        print(f"{traj.times[k]:6.3f} {closed[k]:14.12f} {expect[k]:14.12f} "
              f"{numeric[k]:14.10f}")

    assert np.max(np.abs(closed - 4.0 / 3.0)) < 1e-10
    print()
    print(f"closed form deviates from 4/3 by at most "
          f"{np.max(np.abs(closed - 4.0 / 3.0)):.2e}")

    field1, psi1, grid1 = build_scenario(ScenarioConfig(scenario="example1"))
    traj1 = schrodinger_evolve(field1, psi1, grid1)
    flat = curvature_bloch_profile(traj1)
    print(f"great-circle drive stays flat: max |coefficient| = "
          f"{np.max(np.abs(flat)):.2e}")

    # curvature grades the path, not the drive: the fourth scenario follows
    # the same small circle with a fully efficient field and still reads 4/3
    field4, psi4, grid4 = build_scenario(ScenarioConfig(scenario="example4"))
    traj4 = schrodinger_evolve(field4, psi4, grid4)
    curved = curvature_bloch_profile(traj4)
    print(f"transverse drive on the same small circle: coefficient = "
          f"{np.mean(curved):.12f}")


if __name__ == "__main__":
    main()
