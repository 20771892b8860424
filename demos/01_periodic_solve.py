"""Compute a periodic solution by harmonic balance and compare it with the
closed-form reference.

The forcing g_2 = -sin(2t) sin(2x) phi''(y) acts on the wave box only; the
exact periodic solution is w = sin(2t) sin(2x) phi(y) with identically zero
heat component (the trace and the normal derivative of w both vanish on the
interface). The discrete solve reproduces w to second order in h, and the
small residual heat field is the interface coupling error, also O(h^2).
Last, a steady heat source: its time average is solved by mode 0, the
stationary mean-value pair, and the modes without forcing data are not
solved and stay zero.
"""

import numpy as np

import hwp
from hwp import analysis

for n in (17, 33, 65):
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n, n)
    g2, w2 = hwp.analytic_mode(2, grid)
    report = hwp.solve_periodic_harmonic(grid, None, g2, n_modes=4)
    rel = (analysis.sobolev_time_norm(report.w - w2, 0, grid)
           / analysis.sobolev_time_norm(w2, 0, grid))
    u_norm = analysis.sobolev_time_norm(report.u, 0, grid)
    print(f"grid {n:3d}x{n:<3d}  rel w error {rel:.3e}   "
          f"|u| {u_norm:.3e}   max mode residual {report.max_residual():.1e}")

print()
print("The weak-form defect of the computed solution, tested against random")
print("smooth periodic pairs with matching interface traces, sits at")
grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 33, 33, 33)
g2, _ = hwp.analytic_mode(2, grid)
report = hwp.solve_periodic_harmonic(grid, None, g2, 4)
print(f"  weak residual = {hwp.weak_residual(report, None, g2, grid):.3e}")
print("while a 1% perturbation of w is detected immediately:")
report.w.coeffs *= 1.01
print(f"  corrupted     = {hwp.weak_residual(report, None, g2, grid):.3e}")

print()
print("A steady heat source is all time average: only mode 0, the stationary")
print("mean-value pair, carries data, and the modes without any stay zero:")
f = hwp.FourierField.zeros(2 * np.pi, 2, (grid.ny_h, grid.nx), "heat")
f.coeffs[0] = np.sin(grid.x)[None, :] * (1.0 + grid.y_h)[:, None]
report = hwp.solve_periodic_harmonic(grid, f, None, 2)
for k in range(3):
    print(f"  mode {k}: max |u_k| {np.max(np.abs(report.u.coeffs[k])):.3e}   "
          f"residual {report.mode_residuals[k]:.1e}")
