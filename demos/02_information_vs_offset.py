"""
Phase information carried by one homodyne outcome
=================================================

How well the channel phase can be estimated from the measurement record
is governed by the Fisher information of the outcome distribution, a
function of the offset between the channel phase and the local-oscillator
phase.  This script tabulates it, compares the exact value with a
Monte-Carlo estimate and with the separated-lobe closed form
(A^2/sigma^2) sin^2(offset), and locates the most informative offset.

Two facts shape everything downstream:

* at zero offset the information vanishes — the communication-optimal
  point is useless for sensing, and
* the most informative offset sits short of a quarter turn at finite SNR
  and only approaches it as the signal strengthens.
"""

import math

from qisac import (
    ChannelParams,
    fc_max,
    fisher_argmax,
    fisher_high_snr,
    fisher_symbol,
    fisher_symbol_mc,
)

params = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.0)

# --- the information profile over offsets -------------------------------
print(f"{'offset':>8} {'exact':>11} {'monte carlo':>12} {'closed form':>12}")
for k, off_deg in enumerate((0, 15, 30, 45, 60, 75, 90)):
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(off_deg))
    exact = fisher_symbol(p, 0.0).per_symbol
    mc = fisher_symbol_mc(p, 0.0, trials=200_000, seed=200 + k)
    hi = fisher_high_snr(p, 0.0)
    print(f"{off_deg:7.0f}d {exact:11.5f} {mc:12.5f} {hi:12.5f}")

# The closed form is an upper envelope: it drops the penalty paid when the
# two symbol lobes overlap, so it overshoots most visibly near 90 degrees,
# where the lobes coincide and the true information collapses to zero.
print()

# --- the most informative offset ----------------------------------------
phi_best, f_best = fisher_argmax(params)
print(f"most informative offset: {math.degrees(phi_best):.2f} deg "
      f"(information {f_best:.4f} per symbol)")

# A block of N symbols carries N times the per-symbol information; this is
# the quantity the retuning loop constrains.
print(f"block information ceiling at N=1000: {fc_max(params, 1000):.1f}")
print()

# --- approach to the quarter turn as the signal strengthens --------------
print(f"{'E':>8} {'argmax (deg)':>13} {'gap to 90 deg':>14}")
for e_val in (10.0, 200.0, 1e3, 1e4):
    p = ChannelParams(E=e_val, eta=1.0, Na=0.0, theta=0.0)
    phi_star, _ = fisher_argmax(p)
    print(f"{e_val:8g} {math.degrees(phi_star):13.3f} "
          f"{90.0 - math.degrees(phi_star):14.4f}")
print()
print("The gap never quite closes at finite SNR: exactly at a quarter turn")
print("the two symbol densities coincide and the information is zero, so")
print("the peak always sits strictly inside.")
