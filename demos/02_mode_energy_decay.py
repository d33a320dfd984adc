"""One frequency mode: exact solution, energy identity, Lyapunov decay.

The closed-form solver evaluates u(k, t) and its first two time derivatives
as exp(Phi t) y0 in Newton (Putzer) form, over divided differences of
e^(lam t) at the three eigenvalues; the matrix exponential of the first-order
system (balanced Pade scaling and squaring, which forms no eigenvalue)
provides an independent cross check.  Along the trajectory the mode energy

    E = (|v + tau w|^2 + tau (beta - tau) k^2 |v|^2 + k^2 |u + tau v|^2) / 2

dissipates at the exact rate (beta - tau) k^2 |v|^2, and the Lyapunov
combination L obeys dL/dt + gamma5 rho(k) L <= 0 with rho(k) = k^2/(1+k^2),
which is what produces the pointwise bound |V(t)|^2 <= C e^(-gamma5 rho t)
|V(0)|^2 for the energy-variable vector V.
"""

import numpy as np

import mgt_spectral as mgt

p = mgt.validate(0.1, 1.0)
k = 1.0
init = mgt.ModeState(u_hat=1.0, v_hat=0.5, w_hat=-0.25, k=k)

# closed form vs independent matrix exponential, both over the three times at once
times = np.array([1.0, 5.0, 20.0])
closed = mgt.solve_mode(p, init, times)
numeric = mgt.propagate_numeric(p, init, times)
gaps = np.abs(np.stack([closed.u_hat - numeric.u_hat, closed.v_hat - numeric.v_hat,
                        closed.w_hat - numeric.w_hat])).max(axis=0)
for t, u, gap in zip(times, closed.u_hat, gaps):
    print(f"t={t:5.1f}  u={u:+.6f}  |closed - numeric| = {gap:.2e}")

# the dissipation identity holds to rounding error at every time
res, scale = mgt.energy_dissipation_residual(p, init, 5.0)
print(f"\nenergy identity residual at t=5: {res:.2e} (term scale {scale:.2e})")

# Lyapunov functional: weighted decay is monotone with the measured margin
w = mgt.default_weights(p)
C, c = mgt.pointwise_bound_constants(p, w)
print(f"weights: gamma0={w.gamma0:.3f}, gamma5={w.gamma5:.4f}, "
      f"equivalence [{w.equiv_lo:.3f}, {w.equiv_hi:.3f}]")
print(f"pointwise bound constants: C={C:.2f}, c={c:.4f}")

# the whole trajectory in one call: a state of arrays gives arrays of functionals
r = float(mgt.rho(k))
v0 = mgt.v_vector(p, init).norm_sq
ts = np.linspace(0.0, 20.0, 9)
st = mgt.solve_mode(p, init, ts)
f = mgt.functionals(p, st, w)
weighted = f.lyap * np.exp(w.gamma5 * r * ts)
ratio = mgt.v_vector(p, st).norm_sq / (C * np.exp(-c * r * ts) * v0)
print("\n    t      E(t)        L(t) e^(g5 rho t)   |V|^2 / bound")
for row in zip(ts, f.energy, weighted, ratio):
    print("  {:5.1f}  {:.6e}  {:.6e}     {:.4f}".format(*row))
print("\n(the weighted Lyapunov column never increases; the last column stays < 1)")
