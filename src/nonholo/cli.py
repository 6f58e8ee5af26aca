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
from functools import cache, partial
from pathlib import Path

import numpy as np

from nonholo import camassaholm, distributions, driving, errors, liealg, loopgroup
from nonholo import masstransport, oddfluid, skate, snake, trajectory
from nonholo.numkit import Stepper
from nonholo.numkit.steppers import record_rows
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
    errors.FallingRank,
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
MAX_COUNT = 10**9  # record_every; the size of a Fourier or magnon wavenumber; RK4 steps
MAX_RECORDED = 10**8  # numbers a run records: records times state width (800 MB of floats)

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
_AXLE = Real(1.0, positive=True)  # car axle span l
_TRAILERS = Int(0, MAX_DIM, 0)
_RIG = {
    "n": _TRAILERS,
    "controls": Variant({
        "constant": {"u1": Real(0.0), "u2": Real(0.0)},
        "sine": {"a1": Real(0.0), "w1": Real(1.0), "a2": Real(0.0), "w2": Real(1.0)},
        "piecewise": {"breaks": Reals((None,)), "values1": Reals((None,)),
                      "values2": Reals((None,))},
    }),
    "initial": Reals((None,), default=None),
    **_RUN,
}
_SKATE_START = {"x": Real(0.0), "y": Real(0.0), "theta": Real(0.0), "v": Real(1.0),
                "omega": Real(0.0)}
_SKATE = {"g": Real(0.0, low=0.0), "initial": Obj(_SKATE_START, skate.FIG_INITIAL), **_RUN}
_FLAG = {
    "points": Int(1, MAX_SAMPLES, 20),
    "tol": Real(distributions.DEFAULT_RANK_TOL, positive=True),
    **_CHECKS,
}
_FIELD = _fourier("kx", "ky", default={})
_FLUID_START = {"rho": _fourier("kx", "ky", default={"mean": 1.0}), "vx": _FIELD, "vy": _FIELD}
_FLUID = {
    "n": Int(4, MAX_GRID_2D, 64, pow2=True),
    "eos": Variant({
        "isothermal": {"c": Real(1.0, positive=True)},
        "polytropic2": {"kappa": Real(0.5, positive=True)},
    }, {"kind": "isothermal"}),
    "eta_H": Real(0.0),
    "Gamma_H": Real(0.0),
    "initial": Obj(_FLUID_START, {}),
    **_RUN,
}

SCHEMAS = {
    "skate": Variant({
        "reduced": {**_SKATE, "mu": Real(0.0, low=0.0),
                    "initial": Obj({**_SKATE_START, "lam": Real(0.0)}, skate.FIG_INITIAL)},
        "lda": _SKATE,
        "regularized": {**_SKATE, "nu": Real(positive=True), "alpha": Real(positive=True)},
    }, tag="system"),
    "trailer": Obj(_RIG),
    "car": Obj({**_RIG, "l": _AXLE}),
    "flag": Variant({
        "unicycle": _FLAG,
        "trailer": {**_FLAG, "n": _TRAILERS},
        "car": {**_FLAG, "l": _AXLE},
        "car-trailer": {**_FLAG, "n": _TRAILERS, "l": _AXLE},
        "goursat": {**_FLAG, "n": Int(3, MAX_DIM)},
        "cartan": {**_FLAG, "s": Int(1, MAX_DIM, 1)},
    }),
    "snake": Obj({
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
    }),
    "sleigh": Obj({
        "v0": Real(),
        "omega0": Real(0.0),
        "L": Real(1.0, positive=True),
        "n_string": Int(2, MAX_SAMPLES, 50),
        **_RUN,
    }),
    "euler-suslov": Obj({
        "flow": Variant({
            "free": {"B": _OPERATOR},
            "constrained": {"A": _OPERATOR, "constraints": Reals((1, 3), (2, 3))},
        }),
        "m0": Reals((3,)),
        **_RUN,
    }),
    "heisenberg": Obj({
        "n": Int(4, MAX_GRID_1D, 128, pow2=True),
        "initial": Variant({"magnon": {"k": Int(1, MAX_COUNT, 1), "eps": Real(0.3)}},
                           {"kind": "magnon"}),
        "renormalize": Bool(False),
        **_RUN,
    }),
    "binormal": Obj({
        "n": Int(4, MAX_GRID_1D, 128, pow2=True),
        "radius": Real(1.0, positive=True),
        **_RUN,
    }),
    "camassa-holm": Obj({
        "n": Int(4, MAX_GRID_1D, 256, pow2=True),
        "kappa": Real(0.0),
        "initial": _fourier("k", default={"modes": [{"k": 1, "cos": 0.1}]}),
        **_RUN,
    }),
    "odd-fluid": Variant({
        "base": _FLUID,
        "effective": {**_FLUID, "mu": Real(1.0, positive=True)},
        "extended": {**_FLUID, "mu": Real(1.0, positive=True), "nu": Real(1.0, positive=True),
                     "initial": Obj({**_FLUID_START, "ell": _FIELD}, {})},
    }, tag="system", pick="base"),
    "burgers": Obj({
        "n": Int(4, MAX_GRID_2D, 128, pow2=True),
        "potential": _fourier("kx", "ky"),
        **_RUN,
    }),
}


# ---------------------------------------------------------------------------
# cross-field checks and shared helpers; runners read configs checked by SCHEMAS


def _horizon(cfg, width, per_step=0):
    """(t_span, RK4 stepper) of a run of at most MAX_COUNT steps that records at most
    MAX_RECORDED numbers: ``width`` per record and ``per_step`` at every step."""
    (t0, t1), dt = cfg["t_span"], cfg["dt"]
    if t1 <= t0:
        raise ConfigError("config key 't_span' must be [t0, t1] with t1 > t0")
    steps = (t1 - t0) / dt
    if not math.isfinite(steps):
        raise ConfigError("config keys 't_span' and 'dt' give a non-finite step count")
    if steps > MAX_COUNT:
        raise ConfigError(f"config keys 't_span' and 'dt' give more than {MAX_COUNT} steps")
    recorded = record_rows((t0, t1), dt, cfg["record_every"]) * width + steps * per_step
    if recorded > MAX_RECORDED:
        raise ConfigError(f"config keys 't_span', 'dt' and 'record_every' give {recorded:.3g} "
                          f"recorded numbers, more than {MAX_RECORDED}")
    return (t0, t1), Stepper.rk4(dt)


def _spectrum_width(n, fields):
    """Floats in one record of ``fields`` n x n fields integrated on their half
    spectra: n (n//2 + 1) complex modes each."""
    return 2 * n * (n // 2 + 1) * fields


def _sampled(n, spec, *axes):
    """Mean plus cos/sin modes of (k . x) on the [0, 2pi)^d grid with one axis per name."""
    x = np.arange(n) * (2.0 * np.pi / n)
    grid = np.meshgrid(*[x] * len(axes), indexing="ij")
    f = spec["mean"] * np.ones(grid[0].shape)
    # amplitudes near the float maximum may overflow here; the runner's
    # non-finite check reports that as a numerical failure
    with np.errstate(over="ignore", invalid="ignore"):
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
# artifacts: list of (filename, write, format-tag); write(fh) streams the
# artifact to a binary file, and only requested formats are ever written


def _writer(write, *args):
    """An artifact's write(fh): ``write(fh, *args)``."""
    return lambda fh: write(fh, *args)


def _json_writer(value, end=""):
    return lambda fh: fh.write((json.dumps(value, indent=1, allow_nan=False) + end).encode("ascii"))


def _traj_artifacts(traj, stem, title, cols=("x", "y")):
    return [(f"{stem}.csv", _writer(trajectory.write_traj_csv, traj), "csv"),
            (f"{stem}.svg", _writer(trajectory.write_traj_svg, traj, *cols, title), "svg")]


def _traj_summary(traj):
    return {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.final_state[: min(12, len(traj.columns))]],
        "columns": list(traj.columns),
        "ledger": traj.ledger_extremes(),
    }


def run_skate(cfg, rng):
    system = cfg["system"]
    start = skate.initial_full if system == "regularized" else skate.initial_reduced
    y0 = start(**cfg["initial"])
    if system == "lda":
        y0 = y0[:5]
    traj = skate.integrate_skate(
        system, y0, cfg["g"], *_horizon(cfg, len(y0)), record_every=cfg["record_every"],
        **{key: cfg[key] for key in ("mu", "nu", "alpha") if key in cfg},
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
        kind, n, _control(cfg["controls"]), q0, *_horizon(cfg, len(q0)), **lengths,
        record_every=cfg["record_every"],
    )
    values = {"residual_max": float(np.max(traj.ledger["residual_max"]))}
    return _traj_summary(traj), values, _traj_artifacts(traj, f"{name}-n{n}", f"{name} path")


# each flag kind's distribution, built from the kind's keys among n, l and s
_FLAG_FIELDS = {
    "unicycle": distributions.unicycle_fields,
    "trailer": distributions.trailer_fields,
    "car": distributions.car_fields,
    "car-trailer": distributions.car_trailer_fields,
    "goursat": distributions.goursat_normal_form,
    "cartan": distributions.cartan_distribution,
}


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
    kind, points = cfg["kind"], cfg["points"]
    dist = _FLAG_FIELDS[kind](**{key: cfg[key] for key in ("n", "l", "s") if key in cfg})
    dim = dist.dim
    reports = []
    try:
        for _ in range(points):
            p = generic_point(kind, dim, rng)
            report = distributions.derived_flag(dist, p, tol=cfg["tol"])
            if any(b < a for a, b in zip(report.dims, report.dims[1:])):
                # the flag is nested, so only the rank tolerance can make it fall
                raise errors.FallingRank(f"derived flag dims {report.dims} fall at point "
                                         f"{report.point} with tol = {cfg['tol']!r}")
            reports.append(report)
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
    arts = [(f"flag-{kind}.json", _json_writer([r.as_dict() for r in reports]), "json")]
    return summary, values, arts


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
    arts = [(f"snake-frame-{i:04d}.csv", _writer(snake.write_frame_csv, fr, s_grid), "csv")
            for i, fr in enumerate(frames)]
    arts.append(("snake-timelapse.svg", _writer(snake.write_timelapse_svg, frames, "string"),
                 "svg"))
    return summary, values, arts


def run_sleigh(cfg, rng):
    v0, omega0, L, n_string = cfg["v0"], cfg["omega0"], cfg["L"], cfg["n_string"]
    if v0 == 0:
        raise ConfigError("config key 'v0' must be nonzero: the head must move to drag the string")
    # records: string frames at each record, the lda track (5 numbers) at every step
    traj, frames = snake.sleigh_with_string(
        v0, omega0, L, *_horizon(cfg, 2 * n_string, per_step=5), n_string=n_string,
        record_every=cfg["record_every"],
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
    arts += [(f"sleigh-frame-{i:04d}.csv", _writer(snake.write_frame_csv, fr, s_grid), "csv")
             for i, fr in enumerate(frames)]
    arts.append(("sleigh-timelapse.svg",
                 _writer(snake.write_timelapse_svg, frames, "dragged string"), "svg"))
    return summary, values, arts


def run_euler_suslov(cfg, rng):
    spec = cfg["flow"]
    if spec["kind"] == "free":
        flow = ("free", np.asarray(spec["B"]))
    else:
        flow = ("constrained", np.asarray(spec["A"]), [np.asarray(a) for a in spec["constraints"]])
    traj = liealg.integrate_lie(flow, np.asarray(cfg["m0"]), *_horizon(cfg, 3),
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
        L0, *_horizon(cfg, L0.size), renormalize=cfg["renormalize"],
        record_every=cfg["record_every"],
    )
    values = {
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
        "norm_dev_max": float(np.max(traj.ledger["norm_dev"])),
        "momentum_drift": max(
            float(np.max(np.abs(traj.ledger[c] - traj.ledger[c][0])))
            for c in ("mom_x", "mom_y", "mom_z")
        ),
    }
    arts = [("spin-chain.csv", _writer(trajectory.write_traj_csv, traj), "csv")]
    return _grid_summary(traj, n=n), values, arts


def run_binormal(cfg, rng):
    n = cfg["n"]
    gamma0 = loopgroup.circle_curve(n, cfg["radius"])
    traj = loopgroup.integrate_binormal(gamma0, *_horizon(cfg, gamma0.size),
                                        record_every=cfg["record_every"])
    values = {"length_rel_drift": _rel_drift(traj.ledger["length"])}
    arts = [("filament.csv", _writer(trajectory.write_traj_csv, traj), "csv")]
    return _grid_summary(traj, n=n), values, arts


def run_camassa_holm(cfg, rng):
    n, kappa = cfg["n"], cfg["kappa"]
    m0 = camassaholm.helmholtz_apply(_sampled(n, cfg["initial"], "k"))
    traj = camassaholm.integrate_ch(m0, kappa, *_horizon(cfg, m0.size),
                                    record_every=cfg["record_every"])
    values = {
        "mean_abs": float(np.max(np.abs(traj.ledger["mean_u"]))),
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
    }
    arts = [("shallow-water.csv", _writer(trajectory.write_traj_csv, traj), "csv")]
    return _grid_summary(traj, n=n, kappa=kappa), values, arts


def run_odd_fluid(cfg, rng):
    system, n, eos = cfg["system"], cfg["n"], cfg["eos"]
    eta, gamma = cfg["eta_H"], cfg["Gamma_H"]
    params = oddfluid.FluidParams(
        eos=(eos["kind"], eos["c"] if eos["kind"] == "isothermal" else eos["kappa"]),
        # constant coefficients; + 0.0 turns a configured -0.0 into 0.0, as the
        # jet of eta + 0.0 * rho did
        eta_H=eta + 0.0,
        Gamma_H=gamma + 0.0,
        **{key: cfg[key] for key in ("mu", "nu") if key in cfg},
    )
    start = {key: _sampled(n, spec, "kx", "ky") for key, spec in cfg["initial"].items()}
    if np.min(start["rho"]) <= oddfluid.DENSITY_FLOOR:
        raise ConfigError("config key 'initial.rho' must stay positive")
    state0 = oddfluid.FluidState(rho=start["rho"], v=np.stack([start["vx"], start["vy"]]),
                                 ell=start.get("ell"))
    traj, frames = oddfluid.integrate_fluid(system, state0, params,
                                            *_horizon(cfg, _spectrum_width(n, len(start))),
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
    arts = [("fluid-ledger.csv", _writer(trajectory.write_traj_csv, traj), "csv")]
    arts += [(f"fluid-final-{key}.csv", _writer(trajectory.write_csv, [], [field]), "csv")
             for key, field in final.items() if field is not None]
    return summary, values, arts


def run_burgers(cfg, rng):
    n = cfg["n"]
    f0 = _sampled(n, cfg["potential"], "kx", "ky")
    u0 = masstransport.gradient(f0)
    t_span, stepper = _horizon(cfg, _spectrum_width(n, 3))  # u and f are recorded alike
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
    arts = [("advection-ledger.csv", _writer(trajectory.write_traj_csv, traj), "csv")]
    arts += [(f"advection-final-{key}.csv", _writer(trajectory.write_csv, [], [u]), "csv")
             for key, u in zip(("ux", "uy"), u_frames[-1])]
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
    "skate": "CSV columns: t, x, y, theta, omega, rho[, lam], energy (reduced, lda) or "
             "t, x, y, theta, xdot, ydot, thetadot, energy, phi (regularized)",
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


@cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
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


def _non_finite_key(value, key=""):
    """Dotted key of the first NaN or infinity in a report of dicts, lists and
    numbers, or None; strict JSON has no spelling for those values."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for sub_key, sub in items:
        found = _non_finite_key(sub, f"{key}.{sub_key}" if key else str(sub_key))
        if found is not None:
            return found
    return None


def _write_artifacts(arts, out_dir, formats, written):
    """Stream each artifact whose format is in ``formats`` to its file in
    ``out_dir``, appending its path to ``written`` once it is complete."""
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, write, tag in arts:
            if tag in formats:
                path = Path(out_dir) / name
                with path.open("wb") as fh:
                    write(fh)
                written.append(str(path))
    except OSError as exc:
        raise ConfigError(f"config key '--out' gives a path that cannot be written: "
                          f"{str(path)!r}: {exc.strerror or exc}") from exc


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
        # every result is checked below, so numpy's floating-point warnings
        # would only repeat, on stderr, a failure that is reported anyway
        with np.errstate(all="ignore"):
            summary, values, arts = RUNNERS[args.command](cfg, rng)
            check_results = _evaluate_checks(cfg["checks"], values)
            report = {
                "command": args.command,
                "summary": summary,
                "values": values,
                "checks": check_results,
            }
            key = _non_finite_key(report)
            if key is not None:
                raise errors.NonFinite(f"non-finite value of {key!r} in the report")
            if args.out is not None:
                # summary.json comes last and lists the artifacts written before it
                report["outputs"] = []
                arts.append(("summary.json", _json_writer(report, end="\n"), "json"))
                _write_artifacts(arts, args.out, formats, report["outputs"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(json.dumps(report, indent=1, allow_nan=False))

    failed = [c["name"] for c in check_results if not c["pass"]]
    if args.check and failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
