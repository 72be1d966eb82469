"""
Joint phase estimation and symbol detection on one block
========================================================

With the transmitted symbols unknown, the homodyne record is a sample
from a two-component Gaussian mixture whose component means depend on
the channel phase.  EM alternates a posterior (soft-detection) step with
an exact M-step on the phase, and its observed-data log-likelihood never
decreases.  This script fits one block, checks the estimate against the
information-theoretic noise floor over many seeds, and shows the one
structural blind spot of single-block estimation: the reflection pair.
"""

import math

import numpy as np

from qisac import ChannelParams, EmConfig, fisher_symbol, run_em, sample_block, wrap_pi
from qisac.em import loglik

params = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=math.radians(50.0))
psi = math.radians(80.0)
n = 1000

# --- one fit, in detail ---------------------------------------------------
block = sample_block(params, psi, n, seed=42)
res = run_em(block, params, psi)
print(f"true phase {math.degrees(params.theta):.1f} deg, "
      f"LO at {math.degrees(psi):.1f} deg, block of {n} symbols")
print(f"estimate: {math.degrees(res.theta_hat):.3f} deg "
      f"after {res.iterations} EM iterations (converged={res.converged})")

steps = np.diff(res.loglik_trace)
print(f"log-likelihood climbed {res.loglik_trace[-1] - res.loglik_trace[0]:.2f} nats; "
      f"smallest single step {steps.min():.2e} (never negative)")

err_bits = float(np.mean(res.s_hat != block.s_true))
err_bits = min(err_bits, 1.0 - err_bits)  # labels are defined only mod pi
print(f"hard-decision error rate on the block: {err_bits:.4f}")
print()

# --- accuracy vs the noise floor over 40 seeds ---------------------------
# The inverse block information sets the best achievable estimator variance.
floor = 1.0 / math.sqrt(fisher_symbol(params, psi, n=n).block)
errs = []
for s in range(40):
    blk = sample_block(params, psi, n, seed=1000 + s)
    r = run_em(blk, params, psi)
    # compare offsets: one block determines the phase relative to the LO
    e = abs(abs(wrap_pi(r.theta_hat - psi)) - abs(wrap_pi(params.theta - psi)))
    errs.append(e)
errs = np.array(errs)
print(f"offset-error RMS over 40 blocks: {math.degrees(np.sqrt(np.mean(errs**2))):.3f} deg")
print(f"information noise floor:         {math.degrees(floor):.3f} deg")
print()

# --- the reflection pair --------------------------------------------------
# The outcome density depends on the offset only through its magnitude, so
# theta and its mirror image about the LO phase fit any one block with
# exactly equal likelihood.  Which one EM returns depends on the start.
mirror = (2.0 * psi - res.theta_hat) % math.pi
ll_hat = loglik(block, params, psi, res.theta_hat)
ll_mir = loglik(block, params, psi, mirror)
print(f"estimate {math.degrees(res.theta_hat):7.3f} deg: log-likelihood {ll_hat:.6f}")
print(f"mirror   {math.degrees(mirror):7.3f} deg: log-likelihood {ll_mir:.6f}")
print(f"difference: {ll_hat - ll_mir:.2e} nats — a single block cannot tell them apart")

cfg = EmConfig(init_theta=mirror)
res2 = run_em(block, params, psi, cfg)
print(f"EM started at the mirror lands on {math.degrees(res2.theta_hat):.3f} deg")
print()
print("Breaking the tie requires data taken at a second LO phase; the")
print("closed-loop controller does exactly that (see demo 04).")
