"""Command-line front end: every system as a subcommand.

Each subcommand reads a JSON config (``--config`` or a bundled ``--preset``),
checks it against the subcommand's table in ``SCHEMAS``, runs the system,
prints a JSON summary to stdout, and optionally writes CSV and SVG artifacts
into ``--out``.  Declared invariant checks are evaluated post hoc on the
recorded ledger; with ``--check`` a failed check sets exit code 3.  Exit
codes: 0 success, 1 config error, 2 numerical failure, 3 check out of
tolerance.
"""

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from nonholo import camassaholm, distributions, driving, errors, liealg, loopgroup
from nonholo import masstransport, oddfluid, skate, snake, trajectory
from nonholo.numkit import Stepper
from nonholo.schema import (
    REQUIRED,
    Bool,
    Choice,
    ConfigError,
    Int,
    ListOf,
    Obj,
    Real,
    Reals,
    Variant,
)

_NUMERICAL_ERRORS = (
    errors.NonFinite,
    errors.NegativeDensity,
    errors.SingularGram,
    errors.SteeringOutOfRange,
    errors.DomainExceeded,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


# ---------------------------------------------------------------------------
# config schema: one table per subcommand, each key declared once

# upper bounds of the counts in a config
MAX_DIM = 64  # trailers of a rig; flag n and s
MAX_SAMPLES = 10_000  # snake grid and head-path samples, sleigh string points, flag points
MAX_GRID_1D = 4096  # spectral n of heisenberg, binormal and camassa-holm
MAX_GRID_2D = 512  # spectral n of odd-fluid and burgers
MAX_ENTRIES = 256  # Fourier modes of one field; declared checks
MAX_COUNT = 10**9  # record_every; the size of a Fourier or magnon wavenumber

_CHECKS = {
    "checks": ListOf(Obj({"name": Choice(), "tol": Real(0.0, low=0.0)}), MAX_ENTRIES, []),
}
_RUN = {
    "t_span": Reals((2,)),
    "dt": Real(1e-3, positive=True),
    "record_every": Int(1, MAX_COUNT, 1),
    **_CHECKS,
}


def _fourier(*axes, default=REQUIRED):
    """Mean plus cos/sin modes; each mode has one integer wavenumber per axis."""
    mode = {axis: Int(-MAX_COUNT, MAX_COUNT) for axis in axes}
    mode.update(cos=Real(0.0), sin=Real(0.0))
    return Obj({"mean": Real(0.0), "modes": ListOf(Obj(mode), MAX_ENTRIES, [])}, default)


_OPERATOR = Reals((3,), (3, 3))  # a 3x3 operator by its diagonal or by its rows
_RIG = {
    "n": Int(0, MAX_DIM, 0),
    "controls": Variant({
        "constant": {"u1": Real(0.0), "u2": Real(0.0)},
        "sine": {"a1": Real(0.0), "w1": Real(1.0), "a2": Real(0.0), "w2": Real(1.0)},
        "piecewise": {"breaks": Reals((None,)), "values1": Reals((None,)),
                      "values2": Reals((None,))},
    }),
    "initial": Reals((None,), default=None),
    **_RUN,
}

SCHEMAS = {command: Obj(fields) for command, fields in {
    "skate": {
        "system": Choice("reduced", "lda", "regularized"),
        "g": Real(0.0, low=0.0),
        "mu": Real(0.0, low=0.0),
        "nu": Real(None, positive=True),
        "alpha": Real(None, positive=True),
        "initial": Obj({
            "x": Real(0.0), "y": Real(0.0), "theta": Real(0.0),
            "v": Real(1.0), "omega": Real(0.0), "lam": Real(0.0),
        }, skate.FIG_INITIAL),
        **_RUN,
    },
    "trailer": _RIG,
    "car": {**_RIG, "l": Real(1.0, positive=True)},
    "flag": {
        "kind": Choice("unicycle", "trailer", "car", "car-trailer", "goursat", "cartan"),
        "n": Int(0, MAX_DIM, 0),
        "s": Int(1, MAX_DIM, 1),
        "l": Real(1.0, positive=True),
        "points": Int(1, MAX_SAMPLES, 20),
        "tol": Real(distributions.DEFAULT_RANK_TOL, positive=True),
        **_CHECKS,
    },
    "snake": {
        "path": Variant({
            "circle": {"radius": Real(1.0, positive=True), "turns": Real(3.0, positive=True),
                       "samples": Int(4, MAX_SAMPLES, 400)},
            "line": {"length": Real(10.0, positive=True), "samples": Int(4, MAX_SAMPLES, 200)},
            "points": {"points": Reals((None, 2))},
        }),
        "f": Variant({"linear": {"speed": Real(1.0), "offset": Real(0.0)}}, {"kind": "linear"}),
        "t_grid": Obj({"t0": Real(0.0), "t1": Real(), "samples": Int(3, MAX_SAMPLES, 25)}),
        "s_grid": Obj({"length": Real(positive=True), "samples": Int(3, MAX_SAMPLES, 51)}),
        **_CHECKS,
    },
    "sleigh": {
        "v0": Real(),
        "omega0": Real(0.0),
        "L": Real(1.0, positive=True),
        "n_string": Int(2, MAX_SAMPLES, 50),
        **_RUN,
    },
    "euler-suslov": {
        "flow": Variant({
            "free": {"B": _OPERATOR},
            "constrained": {"A": _OPERATOR, "constraints": Reals((1, 3), (2, 3))},
        }),
        "m0": Reals((3,)),
        **_RUN,
    },
    "heisenberg": {
        "n": Int(4, MAX_GRID_1D, 128, pow2=True),
        "initial": Variant({"magnon": {"k": Int(1, MAX_COUNT, 1), "eps": Real(0.3)}},
                           {"kind": "magnon"}),
        "renormalize": Bool(False),
        **_RUN,
    },
    "binormal": {
        "n": Int(4, MAX_GRID_1D, 128, pow2=True),
        "radius": Real(1.0, positive=True),
        **_RUN,
    },
    "camassa-holm": {
        "n": Int(4, MAX_GRID_1D, 256, pow2=True),
        "kappa": Real(0.0),
        "initial": _fourier("k", default={"modes": [{"k": 1, "cos": 0.1}]}),
        **_RUN,
    },
    "odd-fluid": {
        "system": Choice("base", "effective", "extended", default="base"),
        "n": Int(4, MAX_GRID_2D, 64, pow2=True),
        "eos": Variant({
            "isothermal": {"c": Real(1.0, positive=True)},
            "polytropic2": {"kappa": Real(0.5, positive=True)},
        }, {"kind": "isothermal"}),
        "eta_H": Real(0.0),
        "Gamma_H": Real(0.0),
        "mu": Real(1.0, positive=True),
        "nu": Real(1.0, positive=True),
        "initial": Obj({
            "rho": _fourier("kx", "ky", default={"mean": 1.0}),
            **{key: _fourier("kx", "ky", default={}) for key in ("vx", "vy", "ell")},
        }, {}),
        **_RUN,
    },
    "burgers": {
        "n": Int(4, MAX_GRID_2D, 128, pow2=True),
        "potential": _fourier("kx", "ky"),
        **_RUN,
    },
}.items()}


# ---------------------------------------------------------------------------
# cross-field checks and shared helpers; runners read configs checked by SCHEMAS


def _horizon(cfg):
    """(t_span, RK4 stepper) of a run whose span and step give a finite step count."""
    (t0, t1), dt = cfg["t_span"], cfg["dt"]
    if t1 <= t0:
        raise ConfigError("config key 't_span' must be [t0, t1] with t1 > t0")
    if not math.isfinite((t1 - t0) / dt):
        raise ConfigError("config keys 't_span' and 'dt' give a non-finite step count")
    return (t0, t1), Stepper.rk4(dt)


def _sampled(n, spec, *axes):
    """Mean plus cos/sin modes of (k . x) on the [0, 2pi)^d grid with one axis per name."""
    x = np.arange(n) * (2.0 * np.pi / n)
    grid = np.meshgrid(*[x] * len(axes), indexing="ij")
    f = spec["mean"] * np.ones(grid[0].shape)
    for mode in spec["modes"]:
        phase = sum((mode[a] * X for a, X in zip(axes[1:], grid[1:])), mode[axes[0]] * grid[0])
        f += mode["cos"] * np.cos(phase)
        f += mode["sin"] * np.sin(phase)
    return f


def _rel_drift(series):
    series = np.asarray(series, dtype=float)
    scale = max(abs(float(series[0])), 1e-300)
    return float(np.max(np.abs(series - series[0])) / scale)


# ---------------------------------------------------------------------------
# subcommand runners: each takes a config read through SCHEMAS[command] and
# returns (summary dict, check values dict, artifacts)
# artifacts: list of (filename, bytes, format-tag)


def _traj_artifacts(traj, stem, title, cols=("x", "y")):
    return [(f"{stem}.csv", trajectory.to_csv(traj), "csv"),
            (f"{stem}.svg", trajectory.to_svg(traj, *cols, title=title), "svg")]


def _traj_summary(traj):
    return {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.final_state[: min(12, len(traj.columns))]],
        "columns": list(traj.columns),
        "ledger": traj.ledger_extremes(),
    }


def run_skate(cfg, rng):
    system, initial = cfg["system"], cfg["initial"]
    nu, alpha = (cfg["nu"], cfg["alpha"]) if system == "regularized" else (None, None)
    if system == "regularized":
        if nu is None or alpha is None:
            raise ConfigError("config keys 'nu' and 'alpha' are needed by the regularized skate")
        y0 = skate.initial_full(**{k: v for k, v in initial.items() if k != "lam"})
    else:
        y0 = skate.initial_reduced(**initial)
        if system == "lda":
            y0 = y0[:5]
    traj = skate.integrate_skate(
        system, y0, cfg["g"], *_horizon(cfg),
        mu=cfg["mu"], nu=nu, alpha=alpha, record_every=cfg["record_every"],
    )
    values = {"energy_rel_drift": _rel_drift(traj.ledger["energy"])}
    if "phi" in traj.ledger:
        values["phi_max"] = float(np.max(np.abs(traj.ledger["phi"])))
    if system == "lda" and cfg["g"] == 0:
        _, _, r, resid = skate.fit_circle(traj.column("x"), traj.column("y"))
        values["circle_fit_residual"] = float(resid)
        values["circle_radius"] = float(r)
    arts = _traj_artifacts(traj, f"skate-{system}", "contact-point path")
    return _traj_summary(traj), values, arts


def _control(spec):
    kind = spec["kind"]
    if kind == "constant":
        return driving.constant_control(spec["u1"], spec["u2"])
    if kind == "sine":
        return driving.sine_control(spec["a1"], spec["w1"], spec["a2"], spec["w2"])
    breaks = spec["breaks"]
    if len(breaks) < 2 or any(b >= c for b, c in zip(breaks, breaks[1:])):
        raise ConfigError("config key 'controls.breaks' must be at least 2 increasing numbers")
    if any(len(spec[key]) != len(breaks) - 1 for key in ("values1", "values2")):
        raise ConfigError(
            "config keys 'controls.values1' and 'controls.values2' need one value "
            "per interval between breaks"
        )
    return driving.piecewise_control(breaks, spec["values1"], spec["values2"])


def _run_rig(name, cfg, rng):
    kind = {"trailer": "unicycle", "car": "car"}[name]
    n, q0 = cfg["n"], cfg["initial"]
    if q0 is None:
        q0 = driving.default_rig_start(kind, n)
    else:
        q0 = np.asarray(q0)
        want = len(driving.rig_columns(kind, n))
        if q0.shape != (want,):
            raise ConfigError(f"config key 'initial' must have {want} components")
    lengths = {"l": cfg["l"]} if kind == "car" else {}
    traj = driving.simulate_rig(
        kind, n, _control(cfg["controls"]), q0, *_horizon(cfg), **lengths,
        record_every=cfg["record_every"],
    )
    values = {"residual_max": float(np.max(traj.ledger["residual_max"]))}
    return _traj_summary(traj), values, _traj_artifacts(traj, f"{name}-n{n}", f"{name} path")


def _flag_distribution(cfg):
    kind, n, l = cfg["kind"], cfg["n"], cfg["l"]
    if kind == "unicycle":
        return distributions.unicycle_fields(), 3
    if kind == "trailer":
        return distributions.trailer_fields(n), n + 3
    if kind == "car":
        return distributions.car_fields(l), 4
    if kind == "car-trailer":
        return distributions.car_trailer_fields(n, l), n + 4
    if kind == "goursat":
        if n < 3:
            raise ConfigError("config key 'n' must be >= 3 for the goursat normal form")
        return distributions.goursat_normal_form(n), n
    return distributions.cartan_distribution(cfg["s"]), cfg["s"] + 2


def generic_point(kind, dim, rng):
    """Random chart point avoiding the singular relative angles."""
    if kind in ("trailer", "car", "car-trailer"):
        point = np.empty(dim)
        point[:2] = rng.uniform(-1.0, 1.0, size=2)
        n_angles = dim - 2 - (1 if kind in ("car", "car-trailer") else 0)
        prev = rng.uniform(-np.pi, np.pi)
        point[2] = prev
        for j in range(1, n_angles):
            while True:
                theta = prev + rng.uniform(-np.pi, np.pi)
                rel = abs(((theta - prev + np.pi) % (2 * np.pi)) - np.pi)
                if abs(rel - np.pi / 2) > 0.1:
                    break
            point[2 + j] = theta
            prev = theta
        if kind in ("car", "car-trailer"):
            point[-1] = rng.uniform(-0.6, 0.6)
        return point
    return rng.uniform(-1.0, 1.0, size=dim)


def run_flag(cfg, rng):
    dist, dim = _flag_distribution(cfg)
    kind, points = cfg["kind"], cfg["points"]
    reports = []
    try:
        for _ in range(points):
            p = generic_point(kind, dim, rng)
            reports.append(distributions.derived_flag(dist, p, tol=cfg["tol"]))
    except errors.JetTableTooLarge as exc:
        key = "s" if kind == "cartan" else "n"
        raise ConfigError(f"config key {key!r} is too large for the derived flag: {exc}") from exc
    non_goursat = sum(0 if r.goursat else 1 for r in reports)
    summary = {
        "kind": kind,
        "chart_dim": dim,
        "points": points,
        "dims": [r.dims for r in reports],
        "goursat_all": non_goursat == 0,
        "reports": [r.as_dict() for r in reports[:3]],
    }
    values = {"non_goursat_points": float(non_goursat)}
    data = json.dumps([r.as_dict() for r in reports], indent=1).encode("ascii")
    return summary, values, [(f"flag-{kind}.json", data, "json")]


def _head_path(spec):
    kind = spec["kind"]
    if kind == "circle":
        r, turns, n = spec["radius"], spec["turns"], spec["samples"]
        fields = "keys 'path.radius', 'path.turns' and 'path.samples' give"
        build = lambda: snake.HeadPath.from_function(
            lambda t: np.array([r * np.cos(t / r), r * np.sin(t / r)]),
            (0.0, turns * 2 * np.pi * r), n=n,
        )
    elif kind == "line":
        length, n = spec["length"], spec["samples"]
        fields = "keys 'path.length' and 'path.samples' give"
        build = lambda: snake.HeadPath.from_function(lambda t: np.array([t, 0.0]), (0.0, length), n=n)
    else:
        fields = "key 'path.points' gives"
        build = lambda: snake.HeadPath(np.asarray(spec["points"], dtype=float))
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"config {fields} an unusable head path: {exc}") from exc


def _grid(start, stop, samples, key):
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(start, stop, samples)
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ConfigError(f"config key {key!r} spans too little or too much for its samples")
    return grid


def run_snake(cfg, rng):
    speed, offset = cfg["f"]["speed"], cfg["f"]["offset"]
    f = lambda t: speed * t + offset
    tg, sg = cfg["t_grid"], cfg["s_grid"]
    if tg["t1"] <= tg["t0"]:
        raise ConfigError("config key 't_grid.t1' must exceed 't_grid.t0'")
    t_grid = _grid(tg["t0"], tg["t1"], tg["samples"], "t_grid")
    s_grid = _grid(0.0, sg["length"], sg["samples"], "s_grid")
    head = _head_path(cfg["path"])
    frames = snake.snake_evolve(head, f, t_grid, s_grid)
    L = float(s_grid[-1])
    arc_dev = max(abs(snake.frame_arclength(fr, s_grid) - L) / L for fr in frames)
    values = {
        "arclength_rel_dev": float(arc_dev),
        "collinearity": snake.collinearity_residual(frames, t_grid, s_grid),
    }
    summary = {
        "frames": len(frames),
        "string_length": L,
        "head_path_length": head.length,
        "unit_speed_deviation": head.unit_speed_deviation(),
    }
    arts = [(f"snake-frame-{i:04d}.csv", snake.frame_to_csv(fr, s_grid), "csv")
            for i, fr in enumerate(frames)]
    arts.append(("snake-timelapse.svg", snake.timelapse_svg(frames, title="string"), "svg"))
    return summary, values, arts


def run_sleigh(cfg, rng):
    v0, omega0, L, n_string = cfg["v0"], cfg["omega0"], cfg["L"], cfg["n_string"]
    if v0 == 0:
        raise ConfigError("config key 'v0' must be nonzero: the head must move to drag the string")
    traj, frames = snake.sleigh_with_string(
        v0, omega0, L, *_horizon(cfg), n_string=n_string, record_every=cfg["record_every"],
    )
    values = {"energy_rel_drift": _rel_drift(traj.ledger["energy"])}
    if omega0 != 0.0:
        x, y = traj.column("x"), traj.column("y")
        cx, cy, r, _ = skate.fit_circle(x[len(x) // 2:], y[len(y) // 2:])
        late = frames[traj.times > L / abs(v0)]
        if len(late):
            dist = np.hypot(late[..., 0] - cx, late[..., 1] - cy)
            values["circle_distance"] = float(np.max(np.abs(dist - r)))
        values["circle_radius"] = float(r)
    summary = _traj_summary(traj)
    summary["string_points"] = n_string
    arts = _traj_artifacts(traj, "sleigh", "contact point")
    s_grid = np.linspace(0.0, L, n_string)
    arts += [(f"sleigh-frame-{i:04d}.csv", snake.frame_to_csv(fr, s_grid), "csv")
             for i, fr in enumerate(frames)]
    arts.append(("sleigh-timelapse.svg", snake.timelapse_svg(frames, title="dragged string"), "svg"))
    return summary, values, arts


def run_euler_suslov(cfg, rng):
    spec = cfg["flow"]
    if spec["kind"] == "free":
        flow = ("free", np.asarray(spec["B"]))
    else:
        flow = ("constrained", np.asarray(spec["A"]), [np.asarray(a) for a in spec["constraints"]])
    traj = liealg.integrate_lie(flow, np.asarray(cfg["m0"]), *_horizon(cfg),
                                record_every=cfg["record_every"])
    values = {
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
        "casimir_rel_drift": _rel_drift(traj.ledger["casimir"]),
    }
    if "constraint_max" in traj.ledger:
        values["constraint_max"] = float(np.max(np.abs(traj.ledger["constraint_max"])))
    arts = _traj_artifacts(traj, "spin-momentum", "momentum path", ("m1", "m2"))
    return _traj_summary(traj), values, arts


def _grid_summary(traj, **sizes):
    return {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        **sizes,
        "ledger": traj.ledger_extremes(),
    }


def run_heisenberg(cfg, rng):
    n, initial = cfg["n"], cfg["initial"]
    L0 = loopgroup.magnon(n, initial["k"], initial["eps"])
    traj = loopgroup.integrate_ll(
        L0, *_horizon(cfg), renormalize=cfg["renormalize"], record_every=cfg["record_every"],
    )
    values = {
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
        "norm_dev_max": float(np.max(traj.ledger["norm_dev"])),
        "momentum_drift": max(
            float(np.max(np.abs(traj.ledger[c] - traj.ledger[c][0])))
            for c in ("mom_x", "mom_y", "mom_z")
        ),
    }
    return _grid_summary(traj, n=n), values, [("spin-chain.csv", trajectory.to_csv(traj), "csv")]


def run_binormal(cfg, rng):
    n = cfg["n"]
    gamma0 = loopgroup.circle_curve(n, cfg["radius"])
    traj = loopgroup.integrate_binormal(gamma0, *_horizon(cfg), record_every=cfg["record_every"])
    values = {"length_rel_drift": _rel_drift(traj.ledger["length"])}
    return _grid_summary(traj, n=n), values, [("filament.csv", trajectory.to_csv(traj), "csv")]


def run_camassa_holm(cfg, rng):
    n, kappa = cfg["n"], cfg["kappa"]
    m0 = camassaholm.helmholtz_apply(_sampled(n, cfg["initial"], "k"))
    traj = camassaholm.integrate_ch(m0, kappa, *_horizon(cfg), record_every=cfg["record_every"])
    values = {
        "mean_abs": float(np.max(np.abs(traj.ledger["mean_u"]))),
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
    }
    arts = [("shallow-water.csv", trajectory.to_csv(traj), "csv")]
    return _grid_summary(traj, n=n, kappa=kappa), values, arts


def run_odd_fluid(cfg, rng):
    system, n, eos = cfg["system"], cfg["n"], cfg["eos"]
    eta, gamma = cfg["eta_H"], cfg["Gamma_H"]
    params = oddfluid.FluidParams(
        eos=(eos["kind"], eos["c"] if eos["kind"] == "isothermal" else eos["kappa"]),
        eta_H=lambda rho: eta + 0.0 * rho,
        Gamma_H=lambda rho: gamma + 0.0 * rho,
        mu=cfg["mu"],
        nu=cfg["nu"],
    )
    rho, vx, vy, ell = (_sampled(n, cfg["initial"][key], "kx", "ky")
                        for key in ("rho", "vx", "vy", "ell"))
    if np.min(rho) <= oddfluid.DENSITY_FLOOR:
        raise ConfigError("config key 'initial.rho' must stay positive")
    state0 = oddfluid.FluidState(rho=rho, v=np.stack([vx, vy]),
                                 ell=ell if system == "extended" else None)
    traj, frames = oddfluid.integrate_fluid(system, state0, params, *_horizon(cfg),
                                            record_every=cfg["record_every"])
    values = {"energy_rel_drift": _rel_drift(traj.ledger["H"])}
    if system == "extended":
        h = traj.ledger["H_nu"]
        dissipated = 2.0 * np.trapezoid(traj.ledger["R_mu"], traj.times)
        values["balance_rel"] = float(abs(h[-1] - h[0] + dissipated) / max(abs(h[0]), 1e-300))
        values["dl_max"] = float(np.max(traj.ledger["dl_max"]))
    summary = _traj_summary(traj)
    summary["system"] = system
    last = frames[-1]
    final = {"rho": last.rho, "vx": last.v[0], "vy": last.v[1], "ell": last.ell}
    arts = [("fluid-ledger.csv", trajectory.to_csv(traj), "csv")]
    arts += [(f"fluid-final-{key}.csv", trajectory.csv_bytes([], field), "csv")
             for key, field in final.items() if field is not None]
    return summary, values, arts


def run_burgers(cfg, rng):
    n = cfg["n"]
    f0 = _sampled(n, cfg["potential"], "kx", "ky")
    u0 = masstransport.gradient(f0)
    t_span, stepper = _horizon(cfg)
    re = cfg["record_every"]
    traj, u_frames = masstransport.integrate_burgers(u0, t_span, stepper, record_every=re)
    _, f_frames = masstransport.integrate_hj(f0, t_span, stepper, record_every=re)
    gap = max(
        float(np.max(np.abs(masstransport.gradient(f) - u)))
        for f, u in zip(f_frames, u_frames)
    )
    values = {
        "curl_max": float(np.max(traj.ledger["curl_max"])),
        "tail_fraction": float(np.max(traj.ledger["tail_fraction"])),
        "potential_gap": gap,
    }
    summary = _traj_summary(traj)
    arts = [("advection-ledger.csv", trajectory.to_csv(traj), "csv"),
            ("advection-final-ux.csv", trajectory.csv_bytes([], u_frames[-1][0]), "csv"),
            ("advection-final-uy.csv", trajectory.csv_bytes([], u_frames[-1][1]), "csv")]
    return summary, values, arts


RUNNERS = {
    "skate": run_skate,
    "trailer": partial(_run_rig, "trailer"),
    "car": partial(_run_rig, "car"),
    "flag": run_flag,
    "snake": run_snake,
    "sleigh": run_sleigh,
    "euler-suslov": run_euler_suslov,
    "heisenberg": run_heisenberg,
    "binormal": run_binormal,
    "camassa-holm": run_camassa_holm,
    "odd-fluid": run_odd_fluid,
    "burgers": run_burgers,
}


_COLUMN_HELP = {
    "skate": "CSV columns: t, x, y, theta, omega, rho[, lam | xdot, ydot, thetadot], energy[, phi]",
    "trailer": "CSV columns: t, x, y, theta_0..theta_n, residual_max",
    "car": "CSV columns: t, x, y, theta_0..theta_n, phi, residual_max",
    "flag": "JSON output: per-point flag dimensions and the Goursat verdict",
    "snake": "per-frame CSV columns: s, x, y; plus a combined time-lapse SVG",
    "sleigh": "trajectory CSV: t, x, y, theta, omega, rho, energy; frame CSVs: s, x, y",
    "euler-suslov": "CSV columns: t, m1, m2, m3, energy, casimir[, constraint_max, lambda_i]",
    "heisenberg": "CSV columns: t, Lx_j, Ly_j, Lz_j per node, energy, norm_dev, mom_x/y/z",
    "binormal": "CSV columns: t, x_j, y_j, z_j per node, length",
    "camassa-holm": "CSV columns: t, m_j per node, mean_u, energy",
    "odd-fluid": "ledger CSV: t, rho_min, rho_max, speed_max, div_l2, H[, H_nu, R_mu, dl_max]",
    "burgers": "ledger CSV: t, speed_max, mean_ux, mean_uy, curl_max, tail_fraction",
}


# ---------------------------------------------------------------------------
# bundled presets


def _figure(system, g, *checks, **extra):
    """A skate run of the paper's figures: 8 time units at dt = 1e-4."""
    return ("skate", {
        "system": system, "g": g, **extra,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8}, *checks],
    })


PRESETS = {
    "fig1a": _figure("reduced", 1.0, mu=0.0),
    "fig1b": _figure("reduced", 0.0, mu=0.0),
    "fig2a": _figure("lda", 1.0),
    "fig2b": _figure("lda", 0.0, {"name": "circle_fit_residual", "tol": 1e-6}),
    "fig3a": _figure("reduced", 1.0, mu=100.0),
    "fig3b": _figure("reduced", 0.0, mu=100.0),
    "trailer-goursat-n3": ("flag", {
        "kind": "trailer", "n": 3, "points": 20, "tol": 1e-8,
        "checks": [{"name": "non_goursat_points", "tol": 0.0}],
    }),
    "car-engel": ("flag", {
        "kind": "car", "l": 1.0, "points": 20, "tol": 1e-8,
        "checks": [{"name": "non_goursat_points", "tol": 0.0}],
    }),
    "sleigh-circle": ("sleigh", {
        "v0": 1.0, "omega0": -10.0, "L": 1.0,
        "t_span": [0.0, 4.0], "dt": 1e-3, "n_string": 50, "record_every": 100,
        "checks": [{"name": "circle_distance", "tol": 1e-3}],
    }),
    "magnon": ("heisenberg", {
        "n": 128, "initial": {"kind": "magnon", "k": 1, "eps": 0.3},
        "t_span": [0.0, 0.5], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-6},
                   {"name": "momentum_drift", "tol": 1e-6}],
    }),
    "ch-zero-mean": ("camassa-holm", {
        "n": 256, "kappa": 0.5,
        "initial": {"modes": [{"k": 1, "cos": 0.1}, {"k": 2, "sin": 0.05}]},
        "t_span": [0.0, 1.0], "dt": 1e-3, "record_every": 50,
        "checks": [{"name": "mean_abs", "tol": 1e-12},
                   {"name": "energy_rel_drift", "tol": 1e-8}],
    }),
    "oddfluid-balance": ("odd-fluid", {
        "system": "extended", "n": 64,
        "eos": {"kind": "isothermal", "c": 1.0},
        "eta_H": 0.1, "Gamma_H": 0.3, "mu": 1.0, "nu": 1.0,
        "initial": {
            "rho": {"mean": 1.0, "modes": [{"kx": 1, "ky": 0, "cos": 0.05}]},
            "vx": {"modes": [{"kx": 0, "ky": 1, "sin": 0.1}]},
            "vy": {"modes": [{"kx": 1, "ky": 0, "cos": 0.1}]},
            "ell": {"modes": [{"kx": 1, "ky": 1, "cos": 0.05}]},
        },
        "t_span": [0.0, 0.5], "dt": 2e-3, "record_every": 5,
        "checks": [{"name": "balance_rel", "tol": 1e-6}],
    }),
    "burgers-potential": ("burgers", {
        "n": 128,
        "potential": {"modes": [{"kx": 1, "ky": 0, "cos": 0.2},
                                {"kx": 0, "ky": 1, "sin": 0.1},
                                {"kx": 1, "ky": 1, "cos": 0.05}]},
        "t_span": [0.0, 0.3], "dt": 1e-3, "record_every": 30,
        "checks": [{"name": "curl_max", "tol": 1e-6},
                   {"name": "potential_gap", "tol": 1e-5}],
    }),
}


def list_presets():
    """Bundled run configurations, keyed by preset name."""
    return {name: {"command": cmd, "config": cfg} for name, (cmd, cfg) in PRESETS.items()}


# ---------------------------------------------------------------------------
# driver


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Simulate and verify nonholonomic/vakonomic mechanical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, description=_COLUMN_HELP[name])
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--preset", help="name of a bundled preset configuration")
        p.add_argument("--out", help="directory for CSV/SVG artifacts")
        p.add_argument("--format", default="csv,svg",
                       help="comma-separated subset of csv,svg,json to write")
        p.add_argument("--check", action="store_true",
                       help="exit 3 when a declared invariant check fails")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random test points (flag subcommand)")
    sub.add_parser("presets", description="List bundled preset configurations as JSON.")
    return parser


def _resolve_config(args):
    if args.preset is not None and args.config is not None:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        cmd, cfg = PRESETS[args.preset]
        if cmd != args.command:
            raise ConfigError(f"preset {args.preset!r} belongs to subcommand {cmd!r}")
        return cfg
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge ints, deep nesting
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        return cfg
    raise ConfigError("a run needs --config or --preset")


def _evaluate_checks(declared, values):
    results = []
    for check in declared:
        value = values.get(check["name"])
        results.append({**check, "value": value,
                        "pass": value is not None and abs(value) <= check["tol"]})
    return results


def _write_artifacts(arts, out_dir, formats):
    written = []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data, tag in arts:
        if tag in formats:
            path = out / name
            path.write_bytes(data)
            written.append(str(path))
    return written


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "presets":
        print(json.dumps(list_presets(), indent=1))
        return EXIT_OK

    try:
        cfg = _resolve_config(args)
        formats = set(args.format.split(","))
        if not formats <= {"csv", "svg", "json"}:
            raise ConfigError("config key '--format' must be a subset of csv,svg,json")
        cfg = SCHEMAS[args.command].read(cfg)
        rng = np.random.default_rng(args.seed)
        summary, values, arts = RUNNERS[args.command](cfg, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    check_results = _evaluate_checks(cfg["checks"], values)
    report = {
        "command": args.command,
        "summary": summary,
        "values": values,
        "checks": check_results,
    }
    if args.out is not None:
        report["outputs"] = _write_artifacts(arts, args.out, formats)
        if "json" in formats:
            path = Path(args.out) / "summary.json"
            path.write_text(json.dumps(report, indent=1) + "\n")
            report["outputs"].append(str(path))
    print(json.dumps(report, indent=1))

    failed = [c["name"] for c in check_results if not c["pass"]]
    if args.check and failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
