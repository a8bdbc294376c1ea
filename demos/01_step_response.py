"""Step-voltage response of the saturating conductor.

Builds the default problem (a disk conductor between two opposing coils),
applies a unit step voltage, and walks through what the trajectory shows:
the current ramps toward v/R while eddy currents in the disk dissipate
the difference, and the per-step power balance closes to O(tau^2).

Run:  python3 demos/01_step_response.py
"""

import numpy as np

from mqsflow import MQSConfig, build_system, solve
from mqsflow.diagnostics import write_field_vtk, write_timeseries_csv

cfg = MQSConfig(n=32, tau=1.0 / 64.0, T=1.0)
ops = build_system(cfg)[0]

print(f"mesh: {ops.n_dofs} unknowns, {ops.mesh.n_elements} triangles")
print(f"certified constants: m_hat={ops.m_hat:.4f}, L_hat={ops.L_hat:.4f}, "
      f"L_C={ops.L_C:.4f}, coercivity c={ops.coercivity_constant:.4f}")

traj = solve(cfg, ops)

print("\n  t      current    flux       energy")
for k in range(0, traj.n_steps + 1, 8):
    i = traj.currents[k, 0]
    i_str = f"{i:+.4f}" if np.isfinite(i) else "  n/a  "
    print(f"  {traj.times[k]:.3f}  {i_str}    {traj.fluxes[k, 0]:+.4f}    "
          f"{traj.energies[k]:.5f}")

print(f"\nsteady-state gap |i_T - v/R| = "
      f"{abs(traj.currents[-1, 0] - 1.0):.3e}")
print(f"worst power-balance defect    = "
      f"{np.nanmax(np.abs(traj.balance_residuals)):.3e}")

write_timeseries_csv(traj, "step_response.csv")
write_field_vtk(ops.mesh, ops.dofs, traj.fields[-1], "step_response.vtk")
print("wrote step_response.csv and step_response.vtk")
