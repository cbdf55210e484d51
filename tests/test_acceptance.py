"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (run with -s or check the
captured output); any failure reads FAIL with the offending numbers.
"""

import time

import numpy as np
import pytest

from delayfronts import (
    N_kernel,
    SimConfig,
    build_profile,
    c_bound_curve,
    count_zeros_right_of,
    double_root_speed,
    h_star,
    limit_quantities,
    minimal_speed,
    oscillation_threshold,
    psi_kernel,
    pushed_to_pulled_delay,
    ratio_T,
    roots_at_kappa,
    run,
)
from conftest import nondelay_minimal_speed, sample_dkappa

SPEED_TABLE = {
    0.5: (0.5720, 0.6562), 1.0: (0.4270, 0.4770), 1.5: (0.3420, 0.3779),
    2.0: (0.2860, 0.3138), 2.5: (0.2458, 0.2687), 3.0: (0.2157, 0.2351),
    3.5: (0.1922, 0.2091), 4.0: (0.1733, 0.1883), 4.5: (0.1579, 0.1713),
    5.0: (0.1450, 0.1571), 5.5: (0.1340, 0.1452), 6.0: (0.1246, 0.1348),
}
SIM_ROWS = {0.5: 0.6377, 2.0: 0.3165, 4.0: 0.1892, 6.0: 0.1346}


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_01_speed_table_reproduction():
    t0 = time.monotonic()
    worst = 0.0
    for h, (cs_ref, cst_ref) in SPEED_TABLE.items():
        cs, _ = double_root_speed(h, 1.2)
        cst, _ = minimal_speed(h, 1.2)
        worst = max(worst, abs(cs - cs_ref), abs(cst - cst_ref))
        assert cs == pytest.approx(cs_ref, abs=5e-4), f"c_sharp({h})"
        assert cst == pytest.approx(cst_ref, abs=5e-4), f"c_star({h})"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report("1 speed table", f"24 values, worst |err|={worst:.2e}, {elapsed:.2f}s")


@pytest.mark.slow
def test_02_simulated_speeds():
    t0 = time.monotonic()
    worst = 0.0
    for h, cns_ref in SIM_ROWS.items():
        res = run(SimConfig(h=h, k=1.2, t_end=400.0))
        worst = max(worst, abs(res.c_ns - cns_ref))
        assert res.c_ns == pytest.approx(cns_ref, abs=0.02), f"c_ns({h})"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report("2 simulated speeds", f"4 rows, worst |err|={worst:.4f}, {elapsed:.1f}s")


def test_03_limit_quantities():
    expected = {
        1.5: (0.7088, 1.3856, 0.5115, 1.1031, 0.4637),
        1.2: (0.3388, 0.8901, 0.3806, 1.1639, 0.3269),
    }
    for k, (w, rho, lam, mu, t1) in expected.items():
        lq = limit_quantities(k)
        got = (lq.w_plus, lq.rho, lq.lambda_inf, lq.mu_inf, lq.T1_inf)
        for g, e in zip(got, (w, rho, lam, mu, t1)):
            assert g == pytest.approx(e, abs=5e-4), (k, got)
    report("3 limit quantities", "both k rows within 5e-4")


def test_04_transitions():
    hp15 = pushed_to_pulled_delay(1.5)
    assert hp15 == pytest.approx(0.3379, abs=1e-3)
    assert pushed_to_pulled_delay(1.2) == np.inf
    hosc = oscillation_threshold(1.2)
    assert hosc == pytest.approx(3.25, abs=0.02)
    c_sharp4, _ = double_root_speed(4.0, 1.2)
    t1_4 = ratio_T(c_sharp4 * (1 + 1e-12), 4.0, 1.2)
    assert t1_4 == pytest.approx(0.3141, abs=5e-4)
    report(
        "4 transitions",
        f"h_p(1.5)={hp15:.4f}, h_p(1.2)=inf, h_osc(1.2)={hosc:.3f}, "
        f"T1(4)={t1_4:.4f}",
    )


def test_05_closed_form_consistency():
    ks = np.linspace(1.01, 5.0 / 3.0 - 0.01, 50)
    worst = 0.0
    for k in ks:
        closed, _ = nondelay_minimal_speed(k)
        solved, regime = minimal_speed(0.0, k)
        assert regime == "pushed"
        worst = max(worst, abs(closed - solved))
        assert abs(closed - solved) <= 1e-14, k
    report("5 closed-form consistency", f"50 k values, worst gap={worst:.2e}")


def test_06_kernel_properties(toy12):
    rng = np.random.default_rng(2024)
    worst_mass, worst_jump = 0.0, 0.0
    for c, h in sample_dkappa(rng, 100):
        psi = psi_kernel(c, h, toy12)
        assert psi.values.max() < 0.0, (c, h)
        i0 = psi.index_of_zero()
        left = psi.values[i0 - 1] * np.exp(psi.mu1 * (0.0 - psi.t[i0 - 1]))
        jump = psi.values[i0] - left
        worst_jump = max(worst_jump, abs(jump - 1.0))
        assert jump == pytest.approx(1.0, abs=1e-12), (c, h)
        nker = N_kernel(psi, toy12)
        assert nker.values.max() < 0.0, (c, h)
        mass = np.trapezoid(nker.values, nker.t)
        worst_mass = max(worst_mass, abs(mass + 0.5))
        assert mass == pytest.approx(-0.5, abs=1e-4), (c, h)
    report(
        "6 kernel properties",
        f"100 draws, worst |mass+1/2|={worst_mass:.2e}, "
        f"worst |jump-1|={worst_jump:.2e}",
    )


def test_07_root_dominance_certification(toy12):
    # every zero with Re z > mu3 - 1e-4 is counted: the three real ones, and
    # any complex zero that would sit right of mu3
    rng = np.random.default_rng(4096)
    for c, h in sample_dkappa(rng, 100):
        r = roots_at_kappa(c, h, toy12)
        n = count_zeros_right_of(c, h, -1.0, r.mu3 - 1e-4)
        assert n == 3, (c, h, n)
    report("7 root dominance", "100 draws, 3 zeros right of mu3 - 1e-4 each")


def test_08_profile_structural_suite(toy12):
    cases = []
    for h in (0.0, 0.5, 2.0, 6.0):
        c_star, regime = minimal_speed(h, 1.2)
        assert regime == "pushed"
        cases.append((c_star, h, "minimal/" + regime))
        # modest above-minimal margin: far above it the slow e^{mu2 t}
        # relaxation outlasts the T_stop-capped integration window
        cases.append((c_star * 1.1, h, "above-minimal"))
    for c, h, label in cases:
        prof = build_profile(c, h, 1.2)
        ch = c * h
        assert prof.phi.max() < 3.0, label
        assert prof.tail(np.linspace(-ch, 0, 200)).max() < 3.0, label
        interior = prof.phi[1:] if h == 0.0 else prof.phi
        assert interior.min() > 1.0, label
        if h > 0:
            ss = np.linspace(-ch * (1 - 1e-9), 0.0, 200)
            assert prof.tail(ss).min() > 1.0, label
        assert abs(prof.phi[0] - prof.tail(0.0)) <= 10 * prof.grid_step**2, label
        assert abs(prof.dphi[0] - prof.tail_deriv(0.0)) <= 10 * prof.grid_step**2
        assert prof.residual_max <= 1e-6, label
        assert prof.settle_offset <= 1e-3, label
        # the pushed minimal front has no lambda2 tail mode, a faster one has
        assert prof.p == 0.0 if label.startswith("minimal") else prof.p > 0.0, label
        # the computed continuation relaxes to 2 at the rate mu2 inside D_kappa
        # (relative error <= 3.5e-6 measured, at 1.1 c*, h = 2, where |phi - 2|
        # falls to 6e-12) and oscillates about 2 outside it (3-4 sign changes)
        window = (prof.t > 0.3 * prof.terminal_time) & (prof.t < 0.9 * prof.terminal_time)
        offset = prof.phi[window] - 2.0
        if prof.in_region_Dkappa:
            slope = np.polyfit(prof.t[window], np.log(np.abs(offset)), 1)[0]
            assert slope == pytest.approx(roots_at_kappa(c, h, toy12).mu2, rel=2e-5), label
        else:
            assert offset.min() < 0.0 < offset.max(), label
    report("8 profile structure", f"{len(cases)} profiles, all checks hold")


def test_09_monotonicity_suite():
    hs = np.linspace(0.0, 6.0, 200)
    c_sharp = [double_root_speed(h, 1.2)[0] for h in hs]
    assert np.all(np.diff(c_sharp) < 0)
    c_star = [minimal_speed(h, 1.2)[0] for h in hs]
    assert np.all(np.diff(c_star) < 0)
    hstar = h_star(-1.0)
    hb = np.linspace(hstar * (1 + 1e-6), 1.0, 200)
    c_bound = [c_bound_curve(h, -1.0) for h in hb]
    assert np.all(np.diff(c_bound) < 0)
    cs = np.linspace(0.7, 3.0, 200)
    t_of_c = [ratio_T(c, 0.5, 1.2) for c in cs]
    assert np.all(np.diff(t_of_c) > 0)
    hgrid = np.linspace(0.0, 3.0, 200)
    t_of_h = [ratio_T(1.0, h, 1.2) for h in hgrid]
    assert np.all(np.diff(t_of_h) > 0)
    report("9 monotonicity", "c#, c*, c_bound decreasing; T increasing (200-pt grids)")


@pytest.mark.slow
def test_10_front_shape_comparison():
    h, k = 0.5, 1.2
    c_star, _ = minimal_speed(h, k)
    prof = build_profile(c_star, h, k)
    res = run(SimConfig(h=h, k=k, t_end=24.0, snapshot_times=(24.0,)))
    t_late, x_front = res.level_trajectory[-1]
    t_snap, u = res.snapshots[-1]
    assert t_snap == t_late
    x = np.linspace(-25.0, 25.0, u.size)
    mask = (x >= x_front - 10.0) & (x <= x_front + 20.0) & (np.abs(x) <= 23.0)
    xi = x[mask] - x_front - c_star * h
    dev = np.max(np.abs(u[mask] - prof(xi)))
    assert dev <= 0.05
    report("10 front shape", f"aligned late-time deviation {dev:.4f} <= 0.05")
