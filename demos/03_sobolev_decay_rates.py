"""Measured Sobolev-norm decay rates against the theorem bounds.

Radial frequency-space data makes the squared norm a one-dimensional
quadrature, J_j(t) = int k^(2j+N-1) |u(k,t)|^2 dk, which the package
evaluates with a certified truncation tail.  Fitted log-log slopes are then
compared with the decay exponents:

  * integrable data:       (1+t)^(1 - N/4 - j/2), improving to
                           (1+t)^(-(N-2)/4 - j/2) once N + j >= 3
  * weighted zero-mean
    velocity data:         (1+t)^(-N/4 - j/2)

The N=3 rate is attained by data concentrated in the second time
derivative; the N=1 bound is not sharp for generic data (the measured slope
undershoots it), which the package records as an observation.
"""

import numpy as np

import mgt_spectral as mgt
from mgt_spectral import FrequencyProfile

gauss = FrequencyProfile.gaussian()
zero = FrequencyProfile.zero()
mf = FrequencyProfile.moment_free()

p = mgt.validate(0.1, 1.0)
times = np.geomspace(1e2, 1e4, 13)

cases = [
    ("N=3, data in u_tt", (zero, zero, gauss), 3, 0, False),
    ("N=1, data in u_t ", (zero, gauss, zero), 1, 0, False),
    ("N=1, weighted    ", (gauss, mf, mf), 1, 0, False),
    ("N=2, weighted    ", (gauss, mf, mf), 2, 0, False),
    ("N=2, V-norm, j=0 ", (gauss, gauss, gauss), 2, 0, True),
    ("N=2, V-norm, j=1 ", (gauss, gauss, gauss), 2, 1, True),
]

print("case                 fitted slope   bound exponent   verdict")
for name, data, dim, j, v_norm in cases:
    curve = mgt.decay_curve(p, data, dim, j, times, quad_tol=1e-10, v_norm=v_norm)
    within, _ = mgt.bound_verdict(curve, curve.bound_exponent, 1e-8)
    print(f"{name}    {curve.fitted_slope:+.4f}        {curve.bound_exponent:+.2f}           "
          f"{'within bound' if within else 'VIOLATION'}")

# frequency-region bookkeeping: at large times everything lives at low k
data = (gauss, gauss, gauss)
split = mgt.region_split(p)
c3, c4 = mgt.region_rates(p)
print(f"\nregions: low < {split.nu1}, high > {split.nu2}; "
      f"exponential rates c3={c3:.3f} (high), c4={c4:.3f} (middle)")
for t in (0.0, 10.0, 100.0):
    rc = mgt.region_contributions(p, data, 2, 0, t, quad_tol=1e-12)
    total = rc.low + rc.mid + rc.high
    print(f"t={t:5.0f}  low {rc.low / total:8.2%}   mid {rc.mid / total:9.2e}   "
          f"high {rc.high / total:9.2e}")
