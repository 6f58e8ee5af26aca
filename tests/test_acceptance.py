"""End-to-end verification of the package's headline numerical claims.

Each test checks one claim at its stated tolerance and prints a single
verdict line of the form ``[PASS] criterion NN: <name>`` (run pytest with
``-s`` to see the lines as they appear).
"""

import filecmp
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from nonholo.camassaholm import (
    ch_rhs,
    ch_rhs_velocity_form,
    helmholtz_apply,
    helmholtz_inverse,
    integrate_ch,
)
from nonholo.cli import PRESETS, main as cli_main
from nonholo.distributions import (
    car_fields,
    car_turn_park,
    derived_flag,
    goursat_normal_form,
    lie_bracket,
    trailer_fields,
    VectorField,
)
from nonholo.driving import bracket_maneuver_slope
from nonholo.liealg import integrate_lie, restricted_inverse_inertia
from nonholo.loopgroup import (
    TWO_PI,
    gauss_map_consistency,
    integrate_ll,
    magnon,
)
from nonholo.masstransport import gradient, integrate_burgers, integrate_hj
from nonholo.numkit import Stepper
from nonholo.oddfluid import (
    FluidParams,
    FluidState,
    fluid_rhs,
    integrate_fluid,
)
from nonholo.skate import (
    FIG_INITIAL,
    fit_circle,
    initial_full,
    initial_reduced,
    integrate_skate,
    lda_closed_form,
    regularized_dissipation,
    regularized_energy,
    regularized_energy_rate,
)
from nonholo.snake import frame_arclength, sleigh_with_string


def verdict(num, name, ok):
    ok = bool(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}")
    assert ok, f"criterion {num:02d}: {name}"


# ---------------------------------------------------------------------------
# skate


def test_01_skate_energy_conserved_for_every_mu():
    y0 = initial_reduced(**FIG_INITIAL, lam=0.0)
    worst = 0.0
    for mu in (0.0, 1.0, 100.0):
        traj = integrate_skate("reduced", y0, 1.0, (0.0, 8.0), Stepper.rk4(1e-4),
                               mu=mu, record_every=1000)
        e = traj.ledger["energy"]
        worst = max(worst, np.abs(e - e[0]).max() / abs(e[0]))
    verdict(1, "skate energy drift <= 1e-8 for mu in {0, 1, 100}", worst <= 1e-8)


def test_02_lda_zero_gravity_circle():
    y0 = initial_reduced(**FIG_INITIAL)[:5]
    traj = integrate_skate("lda", y0, 0.0, (0.0, 2.0), Stepper.rk4(1e-4),
                           record_every=10)
    _, _, r, _ = fit_circle(traj.column("x"), traj.column("y"))
    # closure gap after one precession period, measured on an every-step
    # record so linear interpolation at the period time adds no chord error
    period = 2 * np.pi / abs(FIG_INITIAL["omega"])
    fine = integrate_skate("lda", y0, 0.0, (0.0, 0.7), Stepper.rk4(1e-4))
    xp = np.interp(period, fine.times, fine.column("x"))
    yp = np.interp(period, fine.times, fine.column("y"))
    gap = np.hypot(xp - fine.column("x")[0], yp - fine.column("y")[0])
    verdict(2, "unforced sliding path is a circle of radius 0.1",
            abs(r - 0.1) < 1e-6 and gap < 1e-6)


def test_03_lda_cycloid_matches_quadrature():
    y0 = initial_reduced(**FIG_INITIAL)[:5]
    traj = integrate_skate("lda", y0, 1.0, (0.0, 10.0), Stepper.rk4(1e-4),
                           record_every=100)
    theta, rho = lda_closed_form(FIG_INITIAL["theta"], FIG_INITIAL["omega"],
                                 FIG_INITIAL["v"], 1.0, traj.times)
    err = max(np.abs(traj.column("theta") - theta).max(),
              np.abs(traj.column("rho") - rho).max())
    verdict(3, "forced sliding angles match the closed form to 1e-8", err < 1e-8)


def test_04_regularized_dissipation_identity():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        s = rng.normal(size=6)
        rate = regularized_energy_rate(s, 0.0, 0.1, 0.1)
        two_r = regularized_dissipation(s, 0.1)
        E = regularized_energy(s, 0.0, 0.1)
        ok = ok and abs(rate + two_r) < 1e-12 * abs(E)
    verdict(4, "energy rate equals minus twice the dissipation", ok)


def test_05_double_limit_converges_monotonically():
    mu, g = 100.0, 1.0
    ref = integrate_skate("reduced", initial_reduced(**FIG_INITIAL, lam=0.0), g,
                          (0.0, 2.0), Stepper.rk4(1e-4), mu=mu, record_every=100)
    gaps = []
    for alpha in (1e-2, 1e-3, 1e-4):
        dt = min(1e-4, alpha / 5.0)
        traj = integrate_skate("regularized", initial_full(**FIG_INITIAL), g,
                               (0.0, 2.0), Stepper.rk4(dt), nu=mu * alpha,
                               alpha=alpha, record_every=max(1, int(round(1e-2 / dt))))
        gap = 0.0
        for col in ("x", "y", "theta"):
            gap = max(gap, np.abs(np.interp(ref.times, traj.times, traj.column(col))
                                  - ref.column(col)).max())
        gaps.append(gap)
    verdict(5, "penalty trajectories approach the reduced flow as alpha -> 0",
            gaps[0] > gaps[1] > gaps[2])


# ---------------------------------------------------------------------------
# distributions and driving


def test_06_growth_vector_and_car_brackets():
    rng = np.random.default_rng(7)
    ok = True
    for n in range(6):
        d = trailer_fields(n)
        for q in rng.uniform(-0.7, 0.7, size=(20, n + 3)):
            ok = ok and derived_flag(d, q).dims == list(range(2, n + 4))
    for n in range(4, 9):
        d = goursat_normal_form(n)
        for q in rng.uniform(-0.7, 0.7, size=(20, n)):
            ok = ok and derived_flag(d, q).dims == list(range(2, n + 1))
    steer, drive = car_fields(1.0).generators
    turn, park = car_turn_park(1.0)
    b1 = lie_bracket(steer, drive)
    b2 = lie_bracket(drive, b1)
    for q in rng.uniform(-0.6, 0.6, size=(100, 4)):
        ok = ok and derived_flag(car_fields(1.0), q).dims == [2, 3, 4]
        ok = ok and np.max(np.abs(b1.at(q) - turn.at(q))) < 1e-10
        ok = ok and np.max(np.abs(b2.at(q) - park.at(q))) < 1e-10
    verdict(6, "step-one growth vectors and car bracket closed forms", ok)


def test_07_bracket_maneuver_third_order():
    ts = [0.2, 0.1, 0.05, 0.025]
    steer, drive = car_fields(1.0).generators
    slope_car, _ = bracket_maneuver_slope(steer, drive, [0.0, 0.0, 0.0, 0.0], ts)
    V = VectorField(2, lambda q: [1.0, 0.0])
    W = VectorField(2, lambda q: [0.0, q[0]])
    slope_lin, errs_lin = bracket_maneuver_slope(V, W, [0.0, 0.0], ts)
    # this nilpotent pair realizes its bracket exactly (every higher bracket
    # vanishes and the flows are polynomial), so the residuals sit at roundoff
    # and the decay slope is vacuous below 1e-12
    lin_ok = slope_lin >= 2.9 or max(errs_lin) < 1e-12
    verdict(7, "square maneuver error decays with slope >= 2.9",
            slope_car >= 2.9 and lin_ok)


def test_08_sleigh_string_follows_with_delay():
    traj, frames = sleigh_with_string(
        1.0, -10.0, 1.0, (0.0, 4.0), Stepper.rk4(1e-3), n_string=51, record_every=100
    )
    x, y = traj.column("x"), traj.column("y")
    cx, cy, r, _ = fit_circle(x[len(x) // 2:], y[len(y) // 2:])
    late = frames[traj.times > 1.0]  # head has traversed the string length
    circle_dev = np.abs(np.hypot(late[..., 0] - cx, late[..., 1] - cy) - r).max()
    # each interior point replays the head's path delayed by s / |v0|
    dt_out = traj.times[1] - traj.times[0]
    s_grid = np.linspace(0.0, 1.0, 51)
    sup = 0.0
    for k in range(1, 11):  # delay k * dt_out lands on string node 5k
        j = int(round(k * dt_out / (s_grid[1] - s_grid[0])))
        for i in range(k, len(traj.times)):
            sup = max(sup, np.hypot(frames[i, j, 0] - x[i - k],
                                    frames[i, j, 1] - y[i - k]))
    verdict(8, "towed string settles on the sleigh circle and replays its path",
            circle_dev < 1e-3 and sup < 1e-3)


# ---------------------------------------------------------------------------
# rotation-group flows


def test_09_spin_flows_conserve_and_coincide():
    st = Stepper.rk4(1e-3)
    free = integrate_lie(("free", np.diag([1.0, 0.5, 1.0 / 3.0])),
                         [0.4, 0.7, -0.3], (0.0, 20.0), st, 100)
    e, c = free.column("energy"), free.column("casimir")
    ok = np.abs(e - e[0]).max() < 1e-8 and np.abs(c - c[0]).max() < 1e-8

    A, a = np.diag([1.0, 2.0, 3.0]), [0.0, 0.0, 1.0]
    sus = integrate_lie(("constrained", A, [a]), [1.0, 2.0, 0.0], (0.0, 20.0), st, 100)
    e = sus.column("energy")
    ok = ok and np.abs(e - e[0]).max() < 1e-8
    ok = ok and sus.column("constraint_max").max() < 1e-8

    A, a = np.diag([2.0, 2.0, 1.0]), [0.0, 0.0, 1.0]
    m0 = [0.7, -0.4, 0.0]
    con = integrate_lie(("constrained", A, [a]), m0, (0.0, 10.0), st, 100)
    fre = integrate_lie(("free", np.linalg.inv(A)), m0, (0.0, 10.0), st, 100)
    deg = integrate_lie(("free", restricted_inverse_inertia(A, a)), m0,
                        (0.0, 10.0), st, 100)
    ok = ok and np.abs(con.column("lambda_0")).max() < 1e-8
    ok = ok and np.abs(con.states - fre.states).max() < 1e-8
    ok = ok and np.abs(con.states - deg.states).max() < 1e-8
    verdict(9, "spin invariants and the symmetric-top coincidence", ok)


def test_10_magnon_dispersion_and_gauss_map():
    n, eps = 128, 0.5
    ok = True
    for k in (1, 2, 3):
        tr = integrate_ll(magnon(n, k, eps), (0.0, 0.5), Stepper.rk4(1e-4),
                          record_every=100)
        z = tr.states[:, 0] + 1j * tr.states[:, 1]
        slope = np.polyfit(tr.times, np.unwrap(np.angle(z)), 1)[0]
        omega = k * k * np.cos(eps)
        ok = ok and abs(-slope - omega) / omega < 1e-4

    tr = integrate_ll(magnon(n, 1, eps), (0.0, 1.0), Stepper.rk4(1e-4),
                      record_every=1000)
    e = tr.column("energy")
    ok = ok and np.abs(e - e[0]).max() < 1e-6
    for comp in ("mom_x", "mom_y", "mom_z"):
        p = tr.column(comp)
        ok = ok and np.abs(p - p[0]).max() < 1e-6

    theta = np.arange(n) * TWO_PI / n
    r = 1.0 + 0.05 * np.cos(3 * theta)
    g = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)])
    d_coarse = gauss_map_consistency(g, (0.0, 0.5), Stepper.rk4(2e-4),
                                     record_every=10 ** 6)
    d_fine = gauss_map_consistency(g, (0.0, 0.5), Stepper.rk4(1e-4),
                                   record_every=10 ** 6)
    # both runs sit at the roundoff floor (~1e-13): the two discretizations
    # agree exactly, so the step-halving improvement is vacuous below 1e-10
    ok = ok and d_coarse <= 1e-5 and d_fine <= 1e-5
    ok = ok and (d_coarse / d_fine > 10.0 or d_fine < 1e-10)
    verdict(10, "magnon frequency k^2 cos(eps) and spin/curve consistency", ok)


# ---------------------------------------------------------------------------
# shallow water on the circle


def test_11_zero_mean_preserved_and_forms_agree():
    n = 256
    x = np.arange(n) * TWO_PI / n
    u0 = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
    m0 = helmholtz_apply(u0)
    ok = True
    for kappa in (0.0, 0.5):
        tr = integrate_ch(m0, kappa, (0.0, 1.0), Stepper.rk4(1e-4),
                          record_every=1000)
        mu = tr.column("mean_u")
        e = tr.column("energy")
        ok = ok and np.abs(mu).max() * TWO_PI < 1e-12
        ok = ok and np.abs(e - e[0]).max() < 1e-8 * abs(e[0])
        a = helmholtz_inverse(ch_rhs(m0, kappa))
        b = ch_rhs_velocity_form(u0, kappa)
        ok = ok and np.abs(a - b).max() < 1e-10
    verdict(11, "zero mean and H1 energy preserved; the two forms agree", ok)


# ---------------------------------------------------------------------------
# parity-breaking fluid


def _fluid_params(mu=1.0, nu=1.0):
    return FluidParams(eos=("isothermal", 1.0), eta_H=lambda r: 0.1 * r,
                       Gamma_H=lambda r: 0.05 * r * r, mu=mu, nu=nu)


def _fluid_state(n=64, with_ell=False):
    x = np.arange(n) * TWO_PI / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    rho = 1.0 + 0.1 * np.cos(X) + 0.05 * np.sin(Y + 1.0) + 0.03 * np.cos(X + 2 * Y)
    v = 0.1 * np.stack([np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * Y),
                        np.cos(X + Y) + 0.2 * np.sin(2 * X)])
    ell = 0.05 * np.sin(X + Y) + 0.02 * np.cos(2 * X) if with_ell else None
    return FluidState(rho=rho, v=v, ell=ell)


def test_12_odd_fluid_energy_accounting():
    base = integrate_fluid("base", _fluid_state(64), _fluid_params(),
                           (0.0, 1.0), Stepper.rk4(1e-3), 100)[0]
    H = base.column("H")
    ok = np.abs(H - H[0]).max() < 1e-6 * abs(H[0])

    ext = integrate_fluid("extended", _fluid_state(64, with_ell=True),
                          _fluid_params(mu=2.0, nu=1.0), (0.0, 1.0),
                          Stepper.rk4(2e-3), 5)[0]
    Hn, R = ext.column("H_nu"), ext.column("R_mu")
    quad = np.concatenate([[0.0], np.cumsum(0.5 * (R[1:] + R[:-1]) * np.diff(ext.times))])
    ok = ok and np.abs(Hn - Hn[0] + 2.0 * quad).max() < 1e-6 * abs(Hn[0])

    # Gamma_H = eta_H - rho eta_H' kills the deviation source: with deviation
    # zero the extended right side collapses onto the base system
    params = FluidParams(eos=("isothermal", 1.0), eta_H=lambda r: 0.1 * r,
                         Gamma_H=lambda r: 0.0 * r)
    st = _fluid_state(32, with_ell=True)
    st.ell[:] = 0.0
    rb = fluid_rhs(FluidState(rho=st.rho, v=st.v), params, "base")
    re = fluid_rhs(st, params, "extended")
    ok = ok and np.abs(rb[0] - re[0]).max() < 1e-12
    ok = ok and np.abs(rb[1] - re[1]).max() < 1e-12
    ok = ok and np.abs(re[2]).max() < 1e-12

    st = _fluid_state(32)
    gaps = []
    for mu in (10.0, 100.0):
        re = fluid_rhs(st, _fluid_params(mu=mu), "effective")
        rb = fluid_rhs(st, _fluid_params(mu=mu), "base")
        gaps.append(max(np.abs(re[0] - rb[0]).max(), np.abs(re[1] - rb[1]).max()))
    ok = ok and gaps[0] > 0 and abs(gaps[0] / gaps[1] - 10.0) < 0.5
    verdict(12, "fluid energy conservation, balance, collapse, and 1/mu rate", ok)


# ---------------------------------------------------------------------------
# potential advection


def test_13_gradient_data_stays_potential():
    n = 128
    x = np.arange(n) * TWO_PI / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    f0 = 0.2 * np.cos(X) + 0.1 * np.sin(2 * Y) + 0.05 * np.cos(X + Y)
    tr, _ = integrate_burgers(gradient(f0), (0.0, 0.3), Stepper.rk4(1e-3),
                              record_every=30)
    ok = tr.column("curl_max").max() < 1e-6

    def potential_gap(dt):
        st = Stepper.rk4(dt)
        _, uf = integrate_burgers(gradient(f0), (0.0, 0.3), st, record_every=10 ** 6)
        _, ff = integrate_hj(f0, (0.0, 0.3), st, record_every=10 ** 6)
        return np.abs(gradient(ff[-1]) - uf[-1]).max()

    g_coarse, g_fine = potential_gap(2e-3), potential_gap(1e-3)
    # on the dealiased subspace gradient-taking commutes with the discrete
    # flow exactly, so both gaps sit at roundoff and the fourth-order
    # step-halving improvement is vacuous below 1e-10
    ok = ok and g_fine < 1e-5
    ok = ok and (g_coarse / g_fine > 10.0 or g_fine < 1e-10)
    verdict(13, "velocity field remains a gradient; potential flows match", ok)


# ---------------------------------------------------------------------------
# reproducibility


def _run_preset(name, outdir):
    cmd = PRESETS[name][0]
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf_out), redirect_stderr(buf_err):
        code = cli_main([cmd, "--preset", name, "--out", str(outdir),
                         "--format", "csv,json"])
    assert code == 0, buf_err.getvalue()


def test_14_presets_are_bitwise_deterministic(tmp_path):
    ok = True
    for name in sorted(PRESETS):
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        _run_preset(name, d1)
        _run_preset(name, d2)
        files = sorted(p.name for p in d1.iterdir())
        ok = ok and files == sorted(p.name for p in d2.iterdir()) and bool(files)
        for f in files:
            if f == "summary.json":  # embeds the (distinct) output paths
                continue
            ok = ok and filecmp.cmp(d1 / f, d2 / f, shallow=False)
    verdict(14, "every preset writes byte-identical tables on repeat runs", ok)
