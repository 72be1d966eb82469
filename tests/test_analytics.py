import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

import h_reference
import qisac.analytics as analytics
from qisac import (
    ChannelParams,
    InfeasibleError,
    ber_theory,
    fc_max,
    fisher_argmax,
    fisher_high_snr,
    fisher_symbol,
    fisher_symbol_mc,
    offset_table,
    optimal_angles,
    pareto_known_theta,
    q_function,
)

# Frozen reference values, computed with a 30-digit arbitrary-precision
# erfc and cross-checked against the C library implementation.
Q_AT_2_13809 = 0.016254719697763251
BER_COMMON_PHI0 = 0.016254722322859766  # Q(4/sqrt(3.5))
# Mixture Fisher information at phi = 45 deg, A=4, sigma2=3.5; validated
# against the Monte-Carlo score-variance estimator (agreement well within
# one standard error at 1e6 samples).
F_COMMON_45DEG = 2.099012100766802
# Q(x) at x = -8, -7.5, ..., 8, frozen from mpmath 1.3.0 at 50 digits
Q_REFERENCE = (
    0.9999999999999993, 0.9999999999999681, 0.9999999999987201,
    0.99999999995984, 0.9999999990134123, 0.9999999810104375,
    0.9999997133484281, 0.9999966023268753, 0.9999683287581669,
    0.9997673709209645, 0.9986501019683699, 0.9937903346742238,
    0.9772498680518208, 0.9331927987311419, 0.8413447460685429,
    0.6914624612740131, 0.5, 0.3085375387259869,
    0.15865525393145705, 0.06680720126885807, 0.02275013194817921,
    0.006209665325776135, 0.0013498980316300946, 0.00023262907903552504,
    3.1671241833119924e-05, 3.3976731247300603e-06, 2.866515718791939e-07,
    1.8989562465887718e-08, 9.86587645037698e-10, 4.016000583859118e-11,
    1.279812543885835e-12, 3.1908916729108963e-14, 6.220960574271784e-16,
)


def _params_phi(phi: float, E=10.0, eta=0.8, Na=3.0) -> ChannelParams:
    """Channel at effective offset phi (theta=phi, psi=0 at the call site)."""
    return ChannelParams(E=E, eta=eta, Na=Na, theta=phi)


# ---------------------------------------------------------------- q_function

def test_q_function_at_zero():
    assert q_function(0.0) == 0.5


def test_q_function_frozen_value():
    assert np.isclose(q_function(2.13809), Q_AT_2_13809, rtol=1e-12)


def test_q_function_against_stdlib():
    # independent implementation route: arbitrary-precision erfc
    for x, ref in zip(np.linspace(-8.0, 8.0, 33), Q_REFERENCE, strict=True):
        assert np.isclose(q_function(float(x)), ref, rtol=1e-12)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=50, deadline=None)
def test_q_function_reflection(x):
    assert np.isclose(q_function(x), 1.0 - q_function(-x), atol=1e-15)


# ---------------------------------------------------------------- ber_theory

def test_ber_frozen_at_zero_offset():
    p = _params_phi(0.0)
    assert np.isclose(ber_theory(p, 0.0), BER_COMMON_PHI0, rtol=1e-12)


def test_ber_half_at_quarter_turn():
    p = _params_phi(np.pi / 2)
    assert np.isclose(ber_theory(p, 0.0), 0.5, atol=1e-12)


def test_ber_symmetries():
    rng = np.random.default_rng(3)
    for phi in rng.uniform(-4, 4, size=25):
        b = ber_theory(_params_phi(phi), 0.0)
        assert np.isclose(ber_theory(_params_phi(-phi), 0.0), b, rtol=1e-9)
        assert np.isclose(ber_theory(_params_phi(phi + np.pi), 0.0), b, rtol=1e-9)


def test_dmin_identity():
    # |mu_0 - mu_1| = 2A|cos(phi)|
    rng = np.random.default_rng(4)
    for phi in rng.uniform(-6, 6, size=50):
        p = _params_phi(phi)
        from qisac.physics import block_means
        mu = block_means(p, 0.0)
        assert np.isclose(abs(mu[0] - mu[1]), 2 * p.amplitude() * abs(np.cos(phi)),
                          atol=1e-12)


# ------------------------------------------------------------- fisher_symbol

def test_fisher_zero_at_zero_offset():
    rep = fisher_symbol(_params_phi(0.0), 0.0)
    assert rep.per_symbol == 0.0
    assert rep.block == 0.0


def test_fisher_report_fields(params_common):
    rep = fisher_symbol(params_common, 0.0, n=1000)
    assert rep.block == 1000 * rep.per_symbol
    assert rep.n == 1000
    assert rep.quad_nodes >= 2048
    scale = params_common.amplitude() ** 2 / params_common.noise_var()
    assert rep.quad_error_est <= 1e-8 * max(rep.per_symbol, 1e-12 * scale)


def test_fisher_frozen_regression(params_common):
    rep = fisher_symbol(params_common, 0.0)  # phi = 45 deg
    assert np.isclose(rep.per_symbol, F_COMMON_45DEG, rtol=1e-9)


def test_fisher_reflection_symmetries():
    rng = np.random.default_rng(5)
    for phi in rng.uniform(0.1, 1.4, size=6):
        f = fisher_symbol(_params_phi(phi), 0.0).per_symbol
        assert np.isclose(fisher_symbol(_params_phi(-phi), 0.0).per_symbol, f, rtol=1e-9)
        assert np.isclose(fisher_symbol(_params_phi(np.pi - phi), 0.0).per_symbol, f,
                          rtol=1e-9)


def test_fisher_below_high_snr_bound():
    for phi in np.linspace(0.0, np.pi, 25):
        p = _params_phi(float(phi))
        assert fisher_symbol(p, 0.0).per_symbol <= fisher_high_snr(p, 0.0) + 1e-9


def test_fisher_nonnegative():
    rng = np.random.default_rng(6)
    for phi in rng.uniform(-3, 3, size=10):
        assert fisher_symbol(_params_phi(phi), 0.0).per_symbol >= 0.0


def _fisher_mixture_reference(a, sigma2, phi, nodes=4096):
    """Two-component score variance integrated over the whole mixture domain.

    Composite order-32 Gauss-Legendre on [-|mu| - 12 sigma, |mu| + 12 sigma]
    (panels at most 4 sigma wide) of

        g(x) = [sum_m N(x; mu_m, s2) (x - mu_m) mu'_m / s2]^2 / sum_m N(x; mu_m, s2),

    halved for the mixture weights, with both sums in log space.  This is the
    form the one-lobe quadrature replaces; it uses neither the evenness of
    the score nor the antipodal means beyond their values.
    """
    sigma = math.sqrt(sigma2)
    mu = np.array([a * math.cos(phi), -a * math.cos(phi)])
    dmu = np.array([-a * math.sin(phi), a * math.sin(phi)])
    lo, hi = mu.min() - 12.0 * sigma, mu.max() + 12.0 * sigma
    panels = max(nodes // 32, int(np.ceil((hi - lo) / (4.0 * sigma))))
    xg, wg = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg[None, :]).ravel()
    w = np.tile(half * wg, panels)
    z = x[:, None] - mu[None, :]
    logn = -0.5 * z**2 / sigma2 - 0.5 * math.log(2.0 * math.pi * sigma2)
    m = logn.max(axis=1)
    r = np.exp(logn - m[:, None])
    num = (r * z * dmu[None, :]).sum(axis=1) / sigma2
    return 0.5 * float((np.exp(m) * num**2 / r.sum(axis=1)) @ w)


def test_fisher_quad_matches_two_component_reference():
    phis = np.linspace(0.0, np.pi, 97)
    for E in (1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4):
        for Na in (0.0, 0.5, 3.0):
            p = ChannelParams(E=E, eta=0.8, Na=Na, theta=0.0)
            a, sigma2 = p.amplitude(), p.noise_var()
            floor = 1e-12 * a * a / sigma2
            for phi in phis:
                got, nodes = h_reference.fisher_quad(a, sigma2, float(phi), 4096)
                ref = _fisher_mixture_reference(a, sigma2, float(phi))
                assert nodes == 4096
                assert abs(got - ref) <= 1e-12 * max(ref, floor), (E, Na, phi, got, ref)
            assert h_reference.fisher_quad(a, sigma2, 0.0, 4096)[0] == 0.0
            for phi in phis[1:48]:
                f = h_reference.fisher_quad(a, sigma2, float(phi), 4096)[0]
                g = h_reference.fisher_quad(a, sigma2, float(np.pi - phi), 4096)[0]
                assert abs(g - f) <= 1e-12 * max(f, floor), (E, Na, phi, f, g)


def test_fisher_symbol_matches_quadrature_on_reference_grid():
    # the table of h against the per-call quadrature, on the grid above;
    # channels whose lobes separate reach r = A|cos(phi)|/sigma >= 9, where
    # the table takes h = 1
    phis = np.linspace(0.0, np.pi, 97)
    past_edge = 0
    for E in (1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4):
        for Na in (0.0, 0.5, 3.0):
            p = ChannelParams(E=E, eta=0.8, Na=Na, theta=0.0)
            a, sigma2 = p.amplitude(), p.noise_var()
            floor = 1e-12 * a * a / sigma2
            assert fisher_symbol(p, 0.0).per_symbol == 0.0
            for phi in phis:
                got = fisher_symbol(replace(p, theta=float(phi)), 0.0).per_symbol
                ref, _ = h_reference.fisher_quad(a, sigma2, float(phi), 4096)
                assert abs(got - ref) <= 1e-12 * max(ref, floor), (E, Na, phi, got, ref)
                past_edge += a * abs(math.cos(phi)) / math.sqrt(sigma2) >= 9.0
    assert past_edge > 100


def test_fisher_rises_to_its_peak_at_every_snr():
    # F depends on the channel only through rho = A/sigma, and
    # pareto_known_theta bisects on [0, argmax F], so F must not fall there
    for rho in np.logspace(-4, 4, 81):
        phi_star, f_peak = analytics._fisher_peak(float(rho), 1.0)
        vals = [analytics._fisher(float(rho), 1.0, p)
                for p in np.linspace(0.0, phi_star, 1024).tolist()]
        assert vals[-1] == f_peak
        assert np.all(np.diff(vals) >= -1e-13 * f_peak), rho


# Relative bound the shipped table of h is certified to.
_TABLE_RTOL = 1e-12


def test_shipped_table_of_h_is_certified():
    # The table of h is made by tests/h_reference.py: each piece interpolates
    # the reference quadrature at its Chebyshev points of the first kind.
    # Every check of h_reference.certify holds at _TABLE_RTOL relative, and
    # _H_RTOL states the worst of them.
    errors = h_reference.certify()
    for name, err in errors.items():
        assert err <= _TABLE_RTOL, (name, err)
    worst = max(errors.values())
    assert analytics._H_RTOL <= _TABLE_RTOL
    assert worst <= 1.01 * analytics._H_RTOL, worst
    # and the literals are the table this build makes.  Powers of t amplify
    # a rounding of the samples by up to ~1e-11, so the pieces are compared
    # in the Chebyshev basis, where it moves a coefficient by ~1e-16
    assert len(analytics._H_TABLE) == analytics._H_PIECES
    assert {len(c) for c in analytics._H_TABLE} == {analytics._H_DEGREE + 1}
    rebuilt = h_reference.chebyshev_table()
    shipped = np.array([chebyshev.poly2cheb(c[::-1]) for c in analytics._H_TABLE])
    assert np.max(np.abs(rebuilt - shipped)) <= 1e-14, np.max(np.abs(rebuilt - shipped))


# Channels of the array-path checks: E from 1 to 1000 and Na from 0 to 3
_ARRAY_CHANNELS = [ChannelParams(E=e, eta=0.8, Na=na, theta=0.0)
                   for e, na in ((1.0, 0.0), (1.0, 3.0), (4.0, 1.0), (10.0, 3.0),
                                 (31.6, 0.5), (100.0, 2.0), (300.0, 0.0), (1000.0, 0.0))]


def _boundary_offsets(p: ChannelParams) -> list[float]:
    """Offsets whose r = A|cos(phi)|/sigma lands on each piece boundary and on the edge.

    With their one-ulp neighbours; channels whose r never reaches a boundary
    contribute none.
    """
    rho = p.amplitude() / math.sqrt(p.noise_var())
    width = analytics._R_EDGE / analytics._H_PIECES
    out = []
    for k in range(1, analytics._H_PIECES + 1):
        if k * width < rho:
            phi = math.acos(k * width / rho)
            out += [np.nextafter(phi, 0.0), phi, np.nextafter(phi, 4.0)]
    return [float(x) for x in out]


def test_fisher_offsets_match_scalar_path_bit_for_bit():
    rng = np.random.default_rng(17)
    random = rng.uniform(-4.0, 4.0, 10**4).tolist()
    crossed = 0
    for p in _ARRAY_CHANNELS:
        a, sigma2 = p.amplitude(), p.noise_var()
        edges = _boundary_offsets(p)
        crossed += len(edges)
        phis = [0.0, np.pi / 2, np.pi, 1e-300, -1e-300] + edges + random
        got = analytics._fisher_offsets(a, sigma2, phis)
        want = [analytics._fisher(a, sigma2, phi) for phi in phis]
        assert got.tobytes() == np.array(want).tobytes(), p
        # and the public path: the LO phase -phi on the theta = 0 channel
        ber, fisher, high_snr = offset_table(p, [-phi for phi in phis])
        assert fisher.tobytes() == np.array(
            [fisher_symbol(p, -phi).per_symbol for phi in phis]).tobytes(), p
        assert ber.tobytes() == np.array([ber_theory(p, -phi) for phi in phis]).tobytes(), p
        assert high_snr.tobytes() == np.array(
            [fisher_high_snr(p, -phi) for phi in phis]).tobytes(), p
    # the two largest channels reach r = _R_EDGE: all 36 boundaries, 3 offsets each
    assert crossed >= 2 * 3 * analytics._H_PIECES


def test_offset_table_at_a_nonzero_theta():
    # the offsets are theta - psi, computed per LO phase as the scalar functions do
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.7)
    psis = np.linspace(-4.0, 4.0, 401).tolist()
    ber, fisher, high_snr = offset_table(p, psis)
    assert ber.tolist() == [ber_theory(p, psi) for psi in psis]
    assert fisher.tolist() == [fisher_symbol(p, psi).per_symbol for psi in psis]
    assert high_snr.tolist() == [fisher_high_snr(p, psi) for psi in psis]


def test_fisher_block_is_the_block_of_fisher_symbol():
    # the control loop's call from run-level constants, at every offset of
    # the scalar path: F = 0 at phi = 0, inside the table and beyond its edge
    for p in (*_ARRAY_CHANNELS, ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.7)):
        a, sigma2 = p.amplitude(), p.noise_var()
        psis = [p.theta, *np.linspace(-4.0, 4.0, 201).tolist()]
        for n in (1, 1000, 50000):
            got = [analytics.fisher_block(a, sigma2, p.theta - psi, n) for psi in psis]
            assert np.array(got).tobytes() == np.array(
                [fisher_symbol(p, psi, n=n).block for psi in psis]).tobytes(), (p, n)


def test_array_scan_picks_the_scalar_scan_index():
    # _fisher_peak scans 64 offsets on [0, pi/2] in one array pass
    grid = np.linspace(0.0, np.pi / 2, 64).tolist()
    for p in _ARRAY_CHANNELS:
        a, sigma2 = p.amplitude(), p.noise_var()
        scalar = int(np.argmax([analytics._fisher(a, sigma2, phi) for phi in grid]))
        assert int(np.argmax(analytics._fisher_offsets(a, sigma2, grid))) == scalar, p
        lo, hi = grid[max(scalar - 1, 0)], grid[min(scalar + 1, 63)]
        assert lo <= analytics._fisher_peak(a, sigma2)[0] <= hi, p


def test_fisher_rejects_bad_block_length(params_common):
    with pytest.raises(ValueError):
        fisher_symbol(params_common, 0.0, n=0)


# ---------------------------------------------------------- fisher_symbol_mc

def test_mc_zero_at_zero_offset():
    assert fisher_symbol_mc(_params_phi(0.0), 0.0, 10**4, seed=1) < 1e-20


def test_mc_matches_quadrature(params_common):
    quad = fisher_symbol(params_common, 0.0).per_symbol
    mc = fisher_symbol_mc(params_common, 0.0, 2 * 10**5, seed=21)
    assert np.isclose(mc, quad, rtol=0.03)


def test_mc_variance_shrinks_with_trials(params_common):
    # 40 replicas per side: the 2x bound then false-fails with probability
    # P(F(39, 39) < 1/4) ~ 2e-5 (with 10 it was P(F(9, 9) < 1/4) ~ 3%)
    small = [fisher_symbol_mc(params_common, 0.0, 10**4, seed=s) for s in range(40)]
    large = [fisher_symbol_mc(params_common, 0.0, 16 * 10**4, seed=100 + s) for s in range(40)]
    assert np.std(small) > 2.0 * np.std(large)   # expect ~4x for 16x samples


def test_mc_rejects_tiny_sample():
    with pytest.raises(ValueError):
        fisher_symbol_mc(_params_phi(0.3), 0.0, 10**3, seed=1)


# ------------------------------------------------------------ high-SNR limit

def test_high_snr_values(params_common):
    p = replace(params_common, theta=np.pi / 2)
    assert np.isclose(fisher_high_snr(p, 0.0), 16.0 / 3.5, rtol=1e-15)
    assert fisher_high_snr(_params_phi(0.0), 0.0) == 0.0


# ------------------------------------------------------------------- fc_max

def test_fc_max_linearity(params_theta0):
    f1 = fc_max(params_theta0, 1)
    f1000 = fc_max(params_theta0, 1000)
    assert f1000 == 1000 * f1


def test_fc_max_below_parameter_bound(params_theta0):
    bound = 1000 * params_theta0.amplitude() ** 2 / params_theta0.noise_var()
    assert fc_max(params_theta0, 1000) <= bound


def test_fc_max_rejects_bad_n(params_theta0):
    with pytest.raises(ValueError):
        fc_max(params_theta0, 0)


def test_argmax_matches_grid_search():
    # Independent search route: dense grid over the candidate interval.
    p = ChannelParams(E=200.0, eta=1.0, Na=0.0, theta=0.0)
    phi_star, f_peak = fisher_argmax(p)
    grid = np.linspace(1.30, np.pi / 2, 301)
    vals = [fisher_symbol(replace(p, theta=float(g)), 0.0).per_symbol for g in grid]
    assert abs(phi_star - grid[int(np.argmax(vals))]) < 2e-3
    assert f_peak >= max(vals) - 1e-6 * f_peak
    # Frozen location: the peak sits 0.0972 rad short of the quarter turn
    # at this SNR (the argmax approaches pi/2 only as SNR grows further).
    assert np.isclose(np.pi / 2 - phi_star, 0.097229, atol=5e-4)


def test_argmax_common_point(params_theta0):
    phi_star, f_peak = fisher_argmax(params_theta0)
    assert np.isclose(np.degrees(phi_star), 59.78, atol=0.1)
    assert np.isclose(f_peak, 2.6403500674606918, rtol=1e-6)


# ------------------------------------------------------------ optimal_angles

def test_optimal_angles_examples():
    com, sen = optimal_angles(math.radians(30.0))
    assert np.isclose(com, math.radians(30.0), rtol=1e-15)
    assert np.isclose(sen, math.radians(120.0), rtol=1e-12)
    _, sen170 = optimal_angles(math.radians(170.0))
    assert np.isclose(sen170, math.radians(80.0), rtol=1e-12)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_optimal_angles_quarter_turn_apart(theta_hat):
    com, sen = optimal_angles(theta_hat)
    assert 0.0 <= com < np.pi
    assert 0.0 <= sen < np.pi
    d = (sen - com) % np.pi
    assert np.isclose(d, np.pi / 2, atol=1e-9)


# -------------------------------------------------------- pareto_known_theta

def test_pareto_unconstrained_endpoint(params_theta0):
    pt = pareto_known_theta(params_theta0, 1000, 0.0)
    assert pt.phi_star == 0.0
    assert pt.ber == ber_theory(params_theta0, 0.0)


def test_pareto_constraint_binds_at_peak(params_theta0):
    fcm = fc_max(params_theta0, 1000)
    phi_star, _ = fisher_argmax(params_theta0)
    pt = pareto_known_theta(params_theta0, 1000, fcm)
    assert abs(pt.phi_star - phi_star) < 1e-4


def test_pareto_monotone_in_gamma(params_theta0):
    fcm = fc_max(params_theta0, 1000)
    bers = [pareto_known_theta(params_theta0, 1000, f * fcm).ber
            for f in np.linspace(0.0, 1.0, 20)]
    assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(bers, bers[1:]))


def test_pareto_constraint_satisfied(params_theta0):
    fcm = fc_max(params_theta0, 1000)
    for frac in (0.25, 0.6, 0.9):
        pt = pareto_known_theta(params_theta0, 1000, frac * fcm)
        achieved = fisher_symbol(replace(params_theta0, theta=pt.phi_star), 0.0,
                                 n=1000).block
        assert achieved >= pt.gamma_min - 1e-6 * pt.gamma_min
        assert 0.0 <= pt.phi_star <= np.pi / 2


def test_pareto_infeasible(params_theta0):
    fcm = fc_max(params_theta0, 1000)
    with pytest.raises(InfeasibleError):
        pareto_known_theta(params_theta0, 1000, 1.001 * fcm)
    with pytest.raises(ValueError):
        pareto_known_theta(params_theta0, 1000, -1.0)
    # nan < 0 is False, so a plain sign test would let NaN through as phi* = 0
    with pytest.raises(ValueError):
        pareto_known_theta(params_theta0, 1000, float("nan"))


# E x Na x 21 fractions of fc_max, eta = 0.8, N = 1000: 441 frontier points
_ROOT_E = (0.01, 0.05, 0.2, 1.0, 10.0, 300.0, 1000.0)
_ROOT_NA = (0.0, 0.7, 3.0)
_ROOT_FRACS = [k / 20 for k in range(21)]


def _root_channels():
    return [ChannelParams(E=e, eta=0.8, Na=na, theta=0.0) for e in _ROOT_E for na in _ROOT_NA]


def _reference_bisection(params: ChannelParams, n: int, gamma: float) -> float:
    """Smallest feasible offset by plain bisection on [0, argmax F] to adjacent doubles."""
    lo, hi = 0.0, (fisher_argmax(params)[0] if gamma > 0.0 else 0.0)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if n * analytics._fisher(params.amplitude(), params.noise_var(), mid) >= gamma:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _ulps(x: float, y: float) -> int:
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


def test_pareto_root_is_the_first_feasible_double():
    for p in _root_channels():
        fcm = fc_max(p, 1000)
        for frac in _ROOT_FRACS[1:]:
            gamma = frac * fcm
            phi = pareto_known_theta(p, 1000, gamma).phi_star
            info = fisher_symbol(replace(p, theta=phi), 0.0, n=1000).block
            below = fisher_symbol(replace(p, theta=np.nextafter(phi, 0.0)), 0.0, n=1000).block
            assert info >= gamma, (p, frac)
            assert not below >= gamma, (p, frac)


def test_pareto_root_matches_reference_bisection():
    # F is not monotone at ulp scale, so the first feasible double the two
    # searches land on may differ by a few ulps; at gamma = fc_max F is flat
    # and the feasible set is ~sqrt(eps) wide
    for p in _root_channels():
        fcm = fc_max(p, 1000)
        for frac in _ROOT_FRACS:
            gamma = frac * fcm
            got = pareto_known_theta(p, 1000, gamma).phi_star
            ref = _reference_bisection(p, 1000, gamma)
            if frac <= 0.95:
                assert _ulps(got, ref) <= 8, (p, frac, got, ref)
            else:
                assert abs(got - ref) <= 1e-8 * ref, (p, frac, got, ref)


def test_pareto_root_evaluation_count(monkeypatch):
    calls = [0]
    fisher = analytics._fisher

    def counting(*args):
        calls[0] += 1
        return fisher(*args)

    monkeypatch.setattr(analytics, "_fisher", counting)
    per_point = []
    for p in _root_channels():
        fcm = fc_max(p, 1000)              # the peak search is cached per channel
        for frac in _ROOT_FRACS:
            calls[0] = 0
            pareto_known_theta(p, 1000, frac * fcm)
            per_point.append(calls[0])
    assert np.mean(per_point) <= 20.0
    # the offset sits ~500 binary orders below argmax F; plain bisection needs 557
    p = ChannelParams(E=10.0, eta=0.8, Na=3.0, theta=0.0)
    fc_max(p, 1000)
    calls[0] = 0
    assert pareto_known_theta(p, 1000, 1e-300).phi_star > 0.0
    assert calls[0] < 100
    # at gamma = fc_max, hi = argmax F is itself a root (g_hi == 0), so no
    # secant point moves it; plain bisection needed 39 evaluations here
    calls[0] = 0
    pareto_known_theta(p, 1000, fc_max(p, 1000))
    assert calls[0] <= 25
    # the smallest subnormal: its secant point underflows to 0 (591 by bisection)
    calls[0] = 0
    assert pareto_known_theta(p, 1000, 5e-324).phi_star > 0.0
    assert calls[0] <= 100
