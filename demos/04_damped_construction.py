"""The damped construction of the periodic solution, two ways.

Adding the shifts 2 eps w_t + eps^2 w and eps u makes the period map a
strict contraction, so marching from rest converges to a unique periodic
orbit for every eps > 0. The orbit approaches the undamped periodic
solution linearly in eps. The contraction factor per period stays near
exp(-eps T) only while the time step resolves the stiffest wave modes: the
trapezoidal step damps those modes less, by about
exp(-eps T / (1 + mu dt^2 / 4)) for Laplacian eigenvalue mu. On the 17^2
grid with 512 steps used here the measured factor is at or below
exp(-eps T); at 65^2 with 256 steps, eps = 0.2 and wave forcing mode 2 the
measured median is 0.619 against exp(-eps T) = 0.285. The energy balance of
the damped system holds with a constant that stays put across the sweep.

The march's periodic orbit is also one frequency solve per temporal mode
with the trapezoidal symbol (2i/dt) tan(w k dt/2) in place of i w k. The
last column is the largest coefficient difference between the two routes,
relative to the largest coefficient. The march stops once successive
periods differ by 1e-7 (relative, energy norm), so that is the level the
difference must stay below.
"""

import numpy as np

import hwp
from hwp import analysis
from hwp.cli import smooth_heat_forcing

T = 2 * np.pi
STEPS = 512
grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 17, 17)
forcing = smooth_heat_forcing(grid, T, 1)


def max_rel(a, b):
    return np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs))


reference = hwp.solve_periodic_harmonic(grid, forcing, None, 4)
ref_norm = analysis.sobolev_time_norm(reference.w, 0, grid)
print(f"harmonic reference: |w| = {ref_norm:.4e}, "
      f"|u| = {analysis.sobolev_time_norm(reference.u, 0, grid):.4e}")
print()
print(f"{'eps':>6s} {'periods':>8s} {'contraction':>12s} {'exp(-eps T)':>12s} "
      f"{'rel gap to eps=0':>17s} {'energy ratio':>13s} {'march - freq (w, u)':>21s}")
prev_gap = None
for eps in (0.2, 0.1, 0.05):
    params = hwp.EpsilonParams(eps=eps, n_steps=STEPS, period_tol=1e-7,
                               max_periods=400, n_report_modes=4)
    rep = hwp.epsilon_march(grid, forcing, None, params)
    freq = hwp.solve_periodic_harmonic(grid, forcing, None, 4, eps=eps, n_steps=STEPS)
    gap = analysis.sobolev_time_norm(rep.w - reference.w, 0, grid) / ref_norm
    est = analysis.estimate_check(rep, forcing, None, "damped-energy")
    contraction = np.median(rep.params["contraction"])
    note = "" if prev_gap is None else f"   (factor {prev_gap / gap:.2f})"
    print(f"{eps:6.2f} {rep.params['periods']:8d} {contraction:12.3f} "
          f"{np.exp(-eps * T):12.3f} {gap:17.4e} {est['ratio']:13.4f} "
          f"{max_rel(rep.w, freq.w):10.1e} {max_rel(rep.u, freq.u):10.1e}{note}")
    prev_gap = gap
