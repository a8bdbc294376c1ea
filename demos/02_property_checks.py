"""Structural properties of the discrete model, checked by sampling.

The solver relies on four facts: the nonlinear curl-curl form is strongly
monotone, the magnetic energy is pinched between two quadratic forms, its
Gateaux derivative is consistent, and the shifted energy is coercive with
an explicitly certified constant.  This script evaluates each one on
random fields and prints the observed margins.

Run:  python3 demos/02_property_checks.py
"""

import numpy as np

from mqsflow import MQSConfig, build_system, monotonicity_probe
from mqsflow.diagnostics import coercivity_bound_check

cfg = MQSConfig(n=32)
ops = build_system(cfg)[0]
phi = ops.phi  # the magnetic energy as an elliptic functional
rng = np.random.default_rng(0)

# 1. strong monotonicity of the nonlinear form
mono = monotonicity_probe(ops, n_pairs=200, seed=0)
print(f"monotonicity: min ratio {mono.measured['min_ratio']:.4f} over "
      f"{mono.measured['n_checked']} random pairs (>= 1 required)")

# 2. two-sided energy bound relative to the linear stiffness form
worst_low, worst_high = np.inf, np.inf
for _ in range(200):
    a = rng.standard_normal(ops.n_dofs)
    q = float(a @ (ops.stiffness @ a))
    p = phi.eval(a)
    worst_low = min(worst_low, p - 0.5 * ops.m_hat * q)
    worst_high = min(worst_high, 0.5 * ops.L_hat * q - p)
print(f"energy bounds: lower slack {worst_low:.3e}, "
      f"upper slack {worst_high:.3e} (>= 0 required)")

# 3. derivative consistency by central differences
a = 0.3 * rng.standard_normal(ops.n_dofs)
v = rng.standard_normal(ops.n_dofs)
v /= np.linalg.norm(v)
h = 1e-6
fd = (phi.eval(a + h * v) - phi.eval(a - h * v)) / (2 * h)
exact = float(phi.gateaux(a) @ v)
print(f"gateaux check: finite-difference relative error "
      f"{abs(fd - exact) / abs(exact):.3e}")

# 4. coercivity of the shifted energy with the certified constant
out = coercivity_bound_check(ops, n_samples=100, seed=0)
print(f"coercivity: c = {out.measured['c']:.4f}, sampled minimum slack "
      f"{out.measured['min_slack']:.3e} (>= 0 required)")
