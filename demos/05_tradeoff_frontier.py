"""
The sensing/communication trade-off curve
=========================================

Demanding more phase information forces the LO away from the zero-offset
communication optimum, so the error rate must rise: sweeping the demand
traces out a Pareto frontier.  This script runs the closed loop at three
demand levels and compares the steady-state error rate with the
known-phase frontier — the best error rate any detector could reach at
the smallest offset that satisfies the demand, with the phase handed to
it for free.
"""

import math

from qisac import (
    AlgoConfig,
    ChannelParams,
    ExperimentSpec,
    pareto_known_theta,
    fc_max,
    run_tradeoff_sweep,
)

params = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(30.0))
n = 2000

# Three demand levels, each a fraction of the achievable ceiling at this
# block size.  Runtime stays modest: 4 trials of 250 blocks per level.
fracs = (0.2, 0.5, 0.8)
algo = AlgoConfig(gamma_min=0.0, lam=0.02, eps=0.0, t_max=250,
                  psi0=math.radians(75.0))
spec = ExperimentSpec(
    params=params, algo=algo, n_block=n, trials=4, seed=31,
    sweep=tuple((f, 3.0, n) for f in fracs),
)

curve = run_tradeoff_sweep(spec)

print(f"block information ceiling at N={n}: {fc_max(params, n):.1f}")
print()
print(f"{'demand':>7} {'offset*':>8} {'frontier':>9} {'simulated':>10} {'se':>8}")
for pt in curve.points:
    print(f"{pt.gamma_frac:7.1f} {math.degrees(pt.phi_star):7.2f}d "
          f"{pt.ber_theory:9.5f} {pt.ber_sim:10.5f} {pt.ber_stderr:8.5f}")

print()
print("offset* is the smallest LO offset whose block information meets the")
print("demand; the frontier column is the known-phase error rate there.")
print("The simulated loop has to estimate the phase from each block, so it")
print("hugs the frontier rather than touching it: the target selector")
print("thresholds a noisy information estimate, and the resulting dwell")
print("sits a noise-floor distance from the boundary (visible at the")
print("lowest demand, where the two step sizes are most lopsided).")
print()

# A demand beyond the ceiling has no feasible offset at all:
try:
    pareto_known_theta(params, n, 1.05 * fc_max(params, n))
except Exception as err:
    print(f"demanding 105% of the ceiling: {type(err).__name__}: {err}")
