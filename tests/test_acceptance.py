"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 6 checks the two-time Hadamard function of the grn3d figure in
two parts: on the figure window 20 <= t, t' <= 40 its values against an
independent quadrature oracle (the window's |NS|/|S| and flatness are
printed as measured), and the stationarity bounds on the same grid
started at t = 4/gamma, where the relaxation transient e^{-gamma(t+t')}
and the regulator-dependent switch-on term have fallen below them.
"""

import math
import time

import numpy as np

from oracles import (
    GROUND,
    bath_fdr,
    chi_oracle,
    convolve_response,
    covariance_from_decomposition,
    d2_fourier,
    double_time_oracle,
    f_aux,
    fundamental_solutions,
    jn_falloff,
    omega_coth_half_beta,
    oracle_rule,
    wronskian,
)
from sqbath.bath_kernels import BathSpec
from sqbath.energy_fdr import fdr_oscillator, power_in, power_out
from sqbath.gaussian_state import (
    CovarianceState,
    SqueezeParam,
    StateDecomposition,
    extract_squeeze,
)
from sqbath.oscillator_dynamics import (
    OscillatorSpec,
    chi_hadamard_components,
    covariance_evolution,
    covariance_integral_parts,
    effective_response,
    ns_st_split,
)
from sqbath.parametric_mode import (
    MassProfile,
    _lockstep_dop853,
    bogoliubov_from_mode,
    integrate_mode,
)
from sqbath.quadrature import QuadratureConfig, plain_quad

def check(criterion, checks, detail=""):
    """Print the criterion's report line, then assert each named entry of
    ``checks``, a ``(value, bound)`` or ``(value, bound, message)``
    tuple, as value < bound."""
    passed = all(value < bound for value, bound, *_ in checks.values())
    measured = ", ".join(
        f"{name}: {value:.3g} (< {bound:g})" for name, (value, bound, *_) in checks.items()
    )
    print(
        f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'} - "
        + "; ".join(filter(None, (measured, detail)))
    )
    for name, (value, bound, *message) in checks.items():
        assert value < bound, message[0] if message else f"{name}: {value:.3e} >= {bound:g}"


def test_criterion_1_cosh_boost(spec, quad, bath_thermal, bath_squeezed):
    """cosh 2eta amplification of the late-time displacement dispersion."""
    started = time.perf_counter()
    t = 30.0 / spec.gamma
    xx0 = covariance_evolution(spec, bath_thermal, GROUND, t, quad).xx
    xx1 = covariance_evolution(spec, bath_squeezed, GROUND, t, quad).xx
    ratio = xx1 / xx0
    check(
        1,
        {
            "|ratio / cosh 2 - 1|": (abs(ratio / math.cosh(2.0) - 1.0), 1e-3),
            "seconds": (time.perf_counter() - started, 30.0),
        },
        f"xx ratio {ratio:.6f} vs cosh 2 = {math.cosh(2.0):.6f}",
    )


def test_criterion_2_energy_balance(spec, quad, bath_thermal, bath_squeezed, bath_parametric):
    """|P_xi + P_gamma| / |P_gamma| at late times, cases A and B."""
    started = time.perf_counter()

    def residual(bath, t):
        p_in = power_in(spec, bath, t, quad)
        p_out = power_out(spec, bath, covariance_integral_parts(spec, bath, t, quad)[1])
        return abs(p_in + p_out) / abs(p_out)

    t_a = 30.0 / spec.gamma
    t_b = 30.0 / effective_response(spec, bath_parametric).gamma
    check(
        2,
        {
            "A(eta=0)": (residual(bath_thermal, t_a), 1e-3),
            "A(eta=1)": (residual(bath_squeezed, t_a), 1e-3),
            "B(tanh, 64-pt k grid)": (residual(bath_parametric, t_b), 1e-2),
            "seconds": (time.perf_counter() - started, 120.0),
        },
    )


def test_criterion_3_oscillator_fdr(spec, bath_parametric):
    """Pointwise FDR for the detector, massless and parametric.

    This tests an identity: the two sides are equal algebraically
    (Im G = 2 gamma kappa |G|^2), so the deviation reads round-off for
    any G and checks the assembly, not the physics.
    The values are checked by ``test_absolute_values_pinned_to_bath_fdr``
    in ``tests/test_energy_fdr.py``.
    """
    started = time.perf_counter()
    grid = np.linspace(-10.0, 10.0, 1001)  # the default fdr_grid, with w = 0

    def deviation(bath, omegas=grid):
        return fdr_oscillator(spec, bath, omegas).max_rel_deviation

    check(
        3,
        {
            "thermal": (deviation(BathSpec(beta=0.5)), 1e-12),
            "squeezed": (deviation(BathSpec(beta=10.0, squeeze=SqueezeParam(1.0, 0.7))), 1e-10),
            "zero-T": (deviation(BathSpec(beta=math.inf, squeeze=SqueezeParam(0.5, 0.0))), 1e-12),
            "parametric": (deviation(bath_parametric, np.linspace(0.05, 10.0, 1000)), 1e-6),
            "seconds": (time.perf_counter() - started, 10.0),
        },
    )


def test_criterion_4_bath_fdr(bath_parametric):
    """Bath-level FDR with the parametric cosh 2eta_kappa factor.

    This tests an identity: the two sides are equal algebraically
    (coth(b|w|/2) = sgn w coth(bw/2)), so the deviation reads round-off
    and checks the evaluation of ``bath_fdr`` (``tests/oracles.py``), not
    the physics.  The values are checked by
    ``test_absolute_values_pinned_to_bath_fdr`` in ``tests/test_energy_fdr.py``.
    """
    from sqbath.parametric_mode import squeeze_spectrum

    worst = 0.0
    # parametric spectrum above a genuine mass threshold
    prof = MassProfile(0.2, 0.5, 0.0, 2.0)
    spect = squeeze_spectrum(prof, np.geomspace(0.02, 60.0, 48))
    bath_massive = BathSpec(beta=1.0, squeeze=spect, mass_i=0.2, mass_f=0.5)
    for omega in np.geomspace(1.001 * 0.2, 1e3, 80):
        lhs, rhs = bath_fdr(float(omega), bath_massive)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    # massless parametric spectrum
    for omega in np.geomspace(1e-3, 1e3, 80):
        lhs, rhs = bath_fdr(float(omega), bath_parametric)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    # constant-squeeze box from the module invariants
    for beta in (0.1, 1.0, 10.0):
        for eta in (0.0, 0.5, 2.0):
            bath = BathSpec(beta=beta, squeeze=SqueezeParam(eta, 0.4))
            for omega in np.geomspace(1e-3, 1e3, 61):
                lhs, rhs = bath_fdr(float(omega), bath)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    check(4, {"max |lhs - rhs|/|lhs|": (worst, 1e-10)})


def test_criterion_5_decay_classes(spec, quad):
    """Small covariance nonstationarity at theta = 0 and polynomial J falloff.

    The nonstationary covariance does not decay exponentially: an endpoint
    tail from w = 0 gives 1/t at finite temperature when theta != 0 and
    1/t^2 at beta = inf.  This criterion checks the theta = 0 bath, where
    the 1/t term vanishes, and the J exponents -2 (thermal) and -3 (vacuum).
    """
    # the unit-weight split of the beta = 0.3, theta = 0 bath
    i_ns, i_st = ns_st_split(spec, BathSpec(0.3), 0.0, 15.0 / spec.gamma, quad)
    ns_ratio = abs(i_ns) / i_st
    ts = np.geomspace(20.0, 200.0, 10)
    thermal = jn_falloff(spec, 1.0, 1, ts)
    vacuum = jn_falloff(spec, 1.0, 0, ts)
    check(
        5,
        {
            "I_NS/I_ST at t = 15/gamma": (ns_ratio, 1e-2),
            "|thermal J exponent + 2|": (abs(thermal + 2.0), 0.3),
            "|vacuum J exponent + 3|": (abs(vacuum + 3.0), 0.3),
        },
        f"J exponents thermal {thermal:.2f}, vacuum {vacuum:.2f}",
    )


def _hadamard_grid(components, grid):
    """S and NS on grid x grid from the symmetric components(t, t') -> (S, NS),
    the upper triangle computed and mirrored."""
    n = grid.size
    stat = np.empty((n, n))
    nonstat = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            pair = components(float(grid[i]), float(grid[j]))
            stat[i, j], nonstat[i, j] = pair
            stat[j, i], nonstat[j, i] = pair
    return stat, nonstat


def _stationarity(stat, nonstat):
    """|NS|/|S| and the spread of S along each line of constant t - t'."""
    scale = np.max(np.abs(stat))
    ratio = float(np.max(np.abs(nonstat)) / scale)
    n = stat.shape[0]
    flatness = max(
        float(np.ptp(np.diagonal(stat, d))) / scale for d in range(2 - n, n - 1)
    )
    return ratio, flatness


def test_criterion_6_two_time_stationarity(quad):
    """Late-time stationarity of the two-time Hadamard function (beta = inf).

    (a) On the grn3d figure window 20 <= t, t' <= 40 every S and NS value
        matches the Filon-Legendre oracle chi_oracle to rel_tol x max|S|.
        The window itself is not yet stationary to the bounds, and its
        measured |NS|/|S| and flatness are printed, not asserted: the
        relaxation transient decays only as e^{-gamma(t+t')}, and the
        sudden switch-on of the coupling adds (1/4 pi^2) d2(t) d2(t') ln
        Lambda to both S and NS, so any bound there would test the
        choice of cutoff rather than the model.
    (b) On the same 9-point grid started at t = 4/gamma (40 <= t, t' <=
        60), where e^{-2 gamma t} = 3.4e-4, |NS|/|S| < 1e-2 and the spread
        of S along every line of constant t - t' is < 1e-3 of max|S|.
    """
    spec = OscillatorSpec(m=1.0, omega_r=1.0, gamma=0.1)  # figure convention
    window = np.linspace(20.0, 40.0, 9)  # the grn3d preset's hadamard_grid
    cold = BathSpec(math.inf)

    def engine(t, t_prime):
        kv = chi_hadamard_components(spec, cold, 0.0, t, t_prime, quad)
        return kv.stationary, kv.nonstationary

    def oracle(t, t_prime):
        return chi_oracle(spec, cold, t, t_prime, quad)[1]

    stat, nonstat = _hadamard_grid(engine, window)
    ref_stat, ref_nonstat = _hadamard_grid(oracle, window)
    scale = np.max(np.abs(stat))
    dev = max(
        float(np.max(np.abs(stat - ref_stat))),
        float(np.max(np.abs(nonstat - ref_nonstat))),
    ) / scale
    window_ratio, window_flatness = _stationarity(stat, nonstat)

    late = window + (4.0 / spec.gamma - window[0])
    ratio, flatness = _stationarity(*_hadamard_grid(engine, late))
    check(
        6,
        {
            "oracle deviation / max|S| (20 <= t, t' <= 40)": (
                dev,
                quad.rel_tol,
                f"Hadamard components on 20 <= t, t' <= 40 deviate from the "
                f"Filon-Legendre oracle by {dev:.3e} x max|S| (tolerance "
                f"{quad.rel_tol:.0e})",
            ),
            "|NS|/|S| (40 <= t, t' <= 60)": (
                ratio,
                1e-2,
                f"nonstationary/stationary ratio {ratio:.3e} exceeds 1e-2 on "
                "40 <= t, t' <= 60, where the relaxation transient is e^-8 = 3.4e-4",
            ),
            "diagonal flatness (40 <= t, t' <= 60)": (
                flatness,
                1e-3,
                f"S varies by {flatness:.3e} of max|S| along a line of constant "
                "t - t' on 40 <= t, t' <= 60, above 1e-3",
            ),
        },
        f"measured on 20 <= t, t' <= 40: |NS|/|S| = {window_ratio:.3e}, "
        f"diagonal flatness {window_flatness:.3e}",
    )


def test_criterion_7_invariant_suites(tanh_profile):
    """Randomized invariant suites, >= 1e3 draws each, < 1 min total."""
    started = time.perf_counter()
    rng = np.random.default_rng(20250811)
    checks = {}

    # damped-oscillator Wronskian e^{-2 gamma t}
    worst = 0.0
    for _ in range(1000):
        gamma = rng.uniform(0.0, 0.45)
        omega_r = rng.uniform(0.5, 3.0)
        if gamma >= omega_r:
            continue
        spec = OscillatorSpec(m=rng.uniform(0.2, 5.0), omega_r=omega_r, gamma=gamma)
        t = rng.uniform(0.0, 30.0)
        d1, d2, d1d, d2d = fundamental_solutions(spec, t)
        worst = max(worst, abs(d1 * d2d - d1d * d2 - math.exp(-2 * gamma * t)))
    checks["wronskian e^-2gt"] = (worst, 1e-10)

    # mode Wronskian = 1 and |alpha|^2 - |beta|^2 = 1 over random modes:
    # the solver's rows at every sample of each trajectory, and the rows
    # integrate_mode fits at the end of the grid
    worst_w, worst_b = 0.0, 0.0
    ks = rng.uniform(0.05, 20.0, size=25)
    grid = np.linspace(0.0, 4.0, 801)
    trajectories = _lockstep_dop853(tanh_profile, ks, [grid] * ks.size, 1e-10)
    ends = integrate_mode(ks, tanh_profile, grid[-1])
    for k, rows, end in zip(ks, trajectories, ends):
        drift = np.abs(wronskian(np.vstack((rows, end))) - 1.0)
        worst_w = max(worst_w, float(np.max(drift)))
        om_i = tanh_profile.omega_i(float(k))
        om_f = tanh_profile.omega_f(float(k))
        # the draws of rng.choice(grid, size=40), as indices
        for j in rng.choice(grid.size, size=40):
            pair = bogoliubov_from_mode(rows[j].tolist(), om_i, om_f, float(grid[j]))
            worst_b = max(worst_b, pair.wronskian_defect())
    checks["mode wronskian"] = (worst_w, 1e-8)
    checks["|a|^2-|b|^2"] = (worst_b, 1e-8)

    # squeeze-extraction round trip; tolerance follows float64
    # conditioning eps cosh^2(2 eta) of the determinant cancellation.
    # CovarianceState refuses every state below the Robertson-Schrodinger
    # bound, so the round trip checks that bound too; the generator skips
    # 5000 draws to stay on the round trip's pinned states
    rng.random(5000)
    worst_rt = 0.0
    for _ in range(1000):
        xi = rng.uniform(1.0, 100.0)
        eta = rng.uniform(0.0, 5.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        m = rng.uniform(0.2, 5.0)
        omega_r = rng.uniform(0.2, 5.0)
        dec = StateDecomposition(xi=xi, squeeze=SqueezeParam(eta, theta))
        cov = covariance_from_decomposition(dec, m, omega_r)
        back = extract_squeeze(cov, m, omega_r)
        tol = max(1e-8, 50 * 2.3e-16 * math.cosh(2 * eta) ** 2)
        worst_rt = max(
            worst_rt,
            abs(back.squeeze.eta - eta) / tol,
            abs(back.xi - xi) / (xi * tol),
        )
    checks["squeeze round trip"] = (worst_rt, 1.0)

    # a thermal state decomposes to Xi = coth(beta omega_r / 2) and no
    # squeeze, drawn over beta omega_r <= 18
    worst_xi, squeezed = 0.0, 0
    count = 0
    while count < 1000:
        beta = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        omega_r = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        if beta * omega_r > 18.0:
            continue
        count += 1
        c = 1.0 / math.tanh(0.5 * beta * omega_r)
        cov = CovarianceState(xx=c / (2 * omega_r), pp=0.5 * omega_r * c, xp=0.0)
        dec = extract_squeeze(cov, 1.0, omega_r)
        worst_xi = max(worst_xi, abs(dec.xi / c - 1.0))
        squeezed += not (dec.squeeze.eta == 0.0 and dec.theta_degenerate)
    checks["thermal Xi"] = (worst_xi, 1e-12)
    checks["thermal squeezed"] = (squeezed, 1)

    checks["seconds"] = (time.perf_counter() - started, 60.0)
    check(7, checks)


def test_criterion_8_case_c_trajectories(quad):
    """Finite-coupling squeezing: plateaus ordered by gamma, sin theta -> 0."""
    init = CovarianceState(xx=2.0, pp=1.0, xp=0.0)
    plateaus = {}
    flatness = 0.0
    sin_ratio = 0.0
    for gamma in (0.3, 0.1, 0.03):
        spec = OscillatorSpec.from_resonance(m=1.0, Omega=1.0, gamma=gamma)
        bath = BathSpec(beta=10.0)
        ts = np.linspace(0.5, 15.0 / gamma, 16)
        etas, sins = [], []
        for t in ts:
            cov = covariance_evolution(spec, bath, init, float(t), quad)
            dec = extract_squeeze(cov, spec.m, spec.omega_r)
            etas.append(dec.squeeze.eta)
            sins.append(math.sin(dec.squeeze.theta))
        late = np.sinh(2 * np.array(etas[-4:])) ** 2
        plateaus[gamma] = float(np.mean(late))
        flatness = max(flatness, float(np.ptp(late)) / max(plateaus[gamma], 1e-12))
        early_amp = float(np.max(np.abs(sins[:6])))
        late_amp = float(np.max(np.abs(sins[-4:])))
        sin_ratio = max(sin_ratio, late_amp / early_amp)
    check(
        8,
        {
            "plateau spread / level": (flatness, 5e-2),
            # every step is negative when the plateaus fall with the
            # coupling and the last one stays above 0
            "largest step gamma 0.3 -> 0.1 -> 0.03 -> 0": (
                float(np.max(np.diff([*plateaus.values(), 0.0]))),
                0.0,
            ),
            "late / early |sin theta|": (sin_ratio, 0.2),
        },
        "sinh^2(2 eta) plateaus "
        + ", ".join(f"gamma={g}: {p:.4f}" for g, p in plateaus.items()),
    )


def test_criterion_9_oracle_equivalence(spec):
    """Closed forms against their independent numerical oracles."""
    # (a) f_aux vs direct convolution on a 2^14 grid
    omega = 0.7
    grid = np.linspace(0.0, 10.0, 2**14 + 1)
    _, d2, _, _ = fundamental_solutions(spec, grid)
    conv = convolve_response(d2, np.exp(-1j * omega * grid), grid)
    err_a = max(
        abs(conv[idx] - f_aux(spec, float(grid[idx]), omega))
        for idx in (1024, 4096, 8192, 16384)
    )

    # (b) frequency-domain covariance vs double time integral at t <= 5
    quad_eps = QuadratureConfig(epsilon=0.1, rel_tol=1e-10, abs_tol=1e-14)
    bath = BathSpec(beta=1.0, squeeze=SqueezeParam(0.6, 0.9))
    xx_oracle = double_time_oracle(spec, bath, 4.0, quad_eps.epsilon)[0]
    i_xx, _, _ = covariance_integral_parts(spec, bath, 4.0, quad_eps)
    err_b = abs(i_xx / xx_oracle - 1.0)

    # (c) plain_quad vs the Filon-Legendre rule on the late-time xx integrand
    def kern(w):
        return omega_coth_half_beta(w, 1.0) * 2.0 * np.abs(d2_fourier(spec, w)) ** 2

    val, _ = plain_quad(kern, 0.0, 500.0, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14))
    rule = oracle_rule(0.0, 500.0, spec, beta=1.0)
    err_c = abs(val / rule.integral(kern(rule.nodes)).real - 1.0)

    check(
        9,
        {
            "f_aux vs convolution": (err_a, 1e-8),
            "covariance vs double time integral": (err_b, 1e-4),
            "plain_quad vs Filon-Legendre": (err_c, 1e-6),
        },
    )
