"""Observed convergence orders of the time stepper and the discretization.

Three refinement studies: the power-balance defect of the nonlinear
default problem under step halving (expected order ~2, the identity is
exact up to one quadratic remainder per step), and the manufactured
linear problem in both step size (order 1, implicit Euler) and mesh
width (order 1 in the energy norm, piecewise-linear elements).

Run:  python3 demos/03_convergence.py   (about 2.5 s on a 2-core Xeon)
"""

from mqsflow import MQSConfig, build_system, convergence_study
from mqsflow.diagnostics import balance_order_study, manufactured_config

print("power-balance defect under step halving (nonlinear, n = 32):")
cfg = MQSConfig(n=32)
result = balance_order_study(cfg, build_system(cfg)[0])
for k in range(5):
    print(f"  level {k}: max |defect| = "
          f"{result.measured[f'max_abs_delta_{k}']:.3e}")
print(f"  observed order {result.measured['observed_order']:.3f} "
      f"({'PASS' if result.passed else 'FAIL'}, >= 0.9 required)\n")

print("manufactured solution, step refinement (linear, n = 16):")
r_tau = convergence_study(manufactured_config(n=16, tau=1 / 16), 4, "tau")
print(f"  observed order {r_tau.measured['observed_order']:.3f} "
      f"({'PASS' if r_tau.passed else 'FAIL'}, expected ~1)\n")

print("manufactured solution, mesh refinement (linear, tau = 1/256):")
r_h = convergence_study(manufactured_config(n=8, tau=1 / 256), 3, "h")
print(f"  observed order {r_h.measured['observed_order']:.3f} "
      f"({'PASS' if r_h.passed else 'FAIL'}, expected ~1)")
