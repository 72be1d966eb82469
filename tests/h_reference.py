"""Reference quadrature of the Fisher information and the build of the table of h.

``qisac.analytics`` evaluates F = (A^2 sin^2(phi) / sigma^2) * h(r) on a table
of h that ships as constants.  This module is where that table comes from and
how it is checked:

* :func:`fisher_quad`, the mixture Fisher information by a composite
  Gauss-Legendre rule in the standardized lobe variable z (the reference
  quadrature);
* :func:`chebyshev_table`, the table rebuilt from it at each piece's
  Chebyshev points of the first kind, and :func:`monomial_table`, the same
  table in the form ``analytics._H_TABLE`` ships;
* :func:`certify`, the relative errors of the shipped table that
  ``analytics._H_RTOL`` states.

Only tests use it, so ``numpy.polynomial`` is loaded here and never by qisac.
To remake the table, run from the repository root

    PYTHONPATH=src python3 tests/h_reference.py

and paste its output over ``_H_RTOL`` and ``_H_TABLE`` in
``src/qisac/analytics.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial.legendre import leggauss

from qisac import analytics
from qisac.physics import dot

# Composite Gauss-Legendre in the standardized lobe variable z.
PANEL_ORDER = 32
MIN_PANELS = 6
TAIL_SIGMAS = 12.0  # truncation at |z| = 12: tail mass < 1e-32


@lru_cache(maxsize=8)
def normal_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule for E[f(z)], z ~ N(0, 1), on [-12, 12].

    Order-32 panels, ``nodes // 32`` of them but never fewer than six (so no
    panel is wider than 4 standard deviations); the normal density is folded
    into the weights.  Built on first use and cached read-only.
    """
    panels = max(MIN_PANELS, nodes // PANEL_ORDER)
    xg, wg = leggauss(PANEL_ORDER)
    half = TAIL_SIGMAS / panels
    mid = -TAIL_SIGMAS + half * (2 * np.arange(panels) + 1)
    z = (mid[:, None] + half * xg[None, :]).ravel()
    w = np.tile(half * wg, panels) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def fisher_quad(a: float, sigma2: float, phi: float, nodes: int) -> tuple[float, int]:
    """Mixture-Fisher integral at offset ``phi`` with a fixed node budget.

    Returns (value, node count of the rule used).

    The score of the antipodal mixture (means +-mu, mu = A*cos(phi)) is even
    in x, so its variance under the mixture equals its second moment under
    the single lobe N(mu, sigma^2).  With x = mu + sigma*z this is

        F = E_z[ score(mu + sigma*z)^2 ],   z ~ N(0, 1),

    a channel-independent expectation evaluated on :func:`normal_rule`.
    """
    z, w = normal_rule(nodes)
    sigma = math.sqrt(sigma2)
    mu = a * math.cos(phi)
    score = analytics._mixture_score(mu + sigma * z, mu, -a * math.sin(phi), sigma2)
    return float(dot(w, np.square(score, out=score))), len(z)


def q_quad(r: float, nodes: int = analytics._H_NODES) -> float:
    """q(r) = h(r) * (1 + r^2) / r^2 by quadrature, on the channel the table is defined on.

    That channel is A = sqrt(1 + r^2), sigma^2 = 1 at offset atan2(1, r):
    lobe mean r and mean derivative -1.
    """
    h, _ = fisher_quad(math.hypot(1.0, r), 1.0, math.atan2(1.0, r), nodes)
    return h * (1.0 + r * r) / (r * r)


def _points() -> np.ndarray:
    """The Chebyshev points of the first kind in t, descending, one per coefficient."""
    n = analytics._H_DEGREE + 1
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def piece_nodes() -> np.ndarray:
    """r at each piece's Chebyshev points: row i maps t to r = (i + (1 + t)/2) * width."""
    width = analytics._R_EDGE / analytics._H_PIECES
    i = np.arange(analytics._H_PIECES)[:, None]
    return width * (i + 0.5 * (1.0 + _points()[None, :]))


def chebyshev_table() -> np.ndarray:
    """Chebyshev coefficients in t, lowest degree first, of each piece's interpolant.

    The samples are the reference quadrature on ``_H_NODES`` nodes at
    :func:`piece_nodes`.
    """
    samples = np.array([[q_quad(r) for r in row] for row in piece_nodes().tolist()])
    n = samples.shape[1]
    theta = np.pi * (np.arange(n) + 0.5) / n
    coef = 2.0 / n * samples @ np.cos(np.outer(np.arange(n), theta)).T
    coef[:, 0] /= 2.0
    return coef


def monomial_table(cheb: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Each piece's interpolant as powers of t, highest degree first: the shipped form."""
    return tuple(tuple(chebyshev.cheb2poly(c)[::-1].tolist()) for c in cheb)


def _horner(coef, t: float) -> float:
    acc = 0.0
    for c in coef:
        acc = acc * t + c
    return acc


def certify() -> dict[str, float]:
    """Largest relative error of the shipped table of h under each check.

    * quadrature: the samples on half the nodes against the samples;
    * nodes: ``analytics._q_interp`` at every piece's Chebyshev points
      against the samples there;
    * midpoints: ``_q_interp`` midway between each pair of neighbouring
      points, across piece boundaries too, against the quadrature;
    * piece ends: each piece's polynomial at t = -1 and t = +1 against the
      quadrature at that r, and against the limits q(0) = 2 and
      q(_R_EDGE) = 1 + _R_EDGE^-2, where h = 1;
    * edge: ``_q_interp(_R_EDGE)`` against 1 + _R_EDGE^-2.
    """
    edge, table = analytics._R_EDGE, analytics._H_TABLE
    r_nodes = piece_nodes()
    fine = np.array([[q_quad(r) for r in row] for row in r_nodes.tolist()])
    coarse = np.array([[q_quad(r, analytics._H_NODES // 2) for r in row]
                       for row in r_nodes.tolist()])
    flat = np.sort(r_nodes.ravel())
    mids = (0.5 * (flat[1:] + flat[:-1])).tolist()
    width = edge / len(table)
    ends = []
    for i, coef in enumerate(table):
        for t, r in ((-1.0, i * width), (1.0, (i + 1) * width)):
            ref = 2.0 if r == 0.0 else (1.0 + edge**-2 if r == edge else q_quad(r))
            ends.append(abs(_horner(coef, t) - ref) / ref)

    def rel(got, ref):
        return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))

    return {
        "2048 vs 4096 nodes": rel(coarse, fine),
        "nodes": rel([[analytics._q_interp(r) for r in row] for row in r_nodes.tolist()], fine),
        "midpoints": rel([analytics._q_interp(r) for r in mids], [q_quad(r) for r in mids]),
        "piece ends": max(ends),
        "edge": rel(analytics._q_interp(edge), 1.0 + edge**-2),
    }


def _literals(table, rtol: float) -> str:
    rtol_text = repr(rtol) if math.isfinite(rtol) else 'float("nan")'
    lines = [f"_H_RTOL = {rtol_text}", "_H_TABLE = ("]
    for coef in table:
        text = [repr(c) for c in coef]
        rows = [", ".join(text[k:k + 4]) for k in range(0, len(text), 4)]
        lines.append("    (" + ",\n     ".join(rows) + "),")
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    # the shipped table must already be the rebuilt one for certify() to
    # state its error; a first run after changing the pieces or the degree
    # prints the new literals, a second run their certified error
    rebuilt = monomial_table(chebyshev_table())
    rtol = max(certify().values()) if rebuilt == analytics._H_TABLE else float("nan")
    print(_literals(rebuilt, rtol))
