"""Command-line front end: every system as a subcommand.

Each subcommand reads a JSON config (``--config`` or a bundled ``--preset``),
runs the system, prints a JSON summary to stdout, and optionally writes CSV
and SVG artifacts into ``--out``.  Declared invariant checks are evaluated
post hoc on the recorded ledger; with ``--check`` a failed check sets exit
code 3.  Exit codes: 0 success, 1 config error, 2 numerical failure,
3 check out of tolerance.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from nonholo import camassaholm, distributions, driving, liealg, loopgroup
from nonholo import masstransport, oddfluid, skate, snake, trajectory
from nonholo.errors import (
    DomainExceeded,
    JetTableTooLarge,
    NegativeDensity,
    NonFinite,
    SingularGram,
    SteeringOutOfRange,
)
from nonholo.numkit import Stepper


class ConfigError(ValueError):
    """The run configuration is malformed; the message names the field."""


_NUMERICAL_ERRORS = (
    NonFinite,
    NegativeDensity,
    SingularGram,
    SteeringOutOfRange,
    DomainExceeded,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


# ---------------------------------------------------------------------------
# config plumbing


def _is_real(value):
    """A finite JSON number; booleans do not count as numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_count(value):
    """A JSON integer that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(cfg, key, kind=None, where=""):
    if key not in cfg:
        raise ConfigError(f"missing config key {where}{key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config key {where}{key!r} has wrong type")
    return value


def _reject_unknown(cfg, allowed, where="config"):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


# _positive, _real and _count read ``key`` from ``cfg``; when it is absent
# they give ``default``, or fail when there is no default.


def _value(cfg, key, default, where):
    return _require(cfg, key, where=where) if default is None else cfg.get(key, default)


def _positive(cfg, key, default=None, where=""):
    value = _value(cfg, key, default, where)
    if not _is_real(value) or not value > 0:
        raise ConfigError(f"config key {where}{key!r} must be positive, got {value!r}")
    return float(value)


def _real(cfg, key, default=None, where=""):
    """A finite number, as a float."""
    value = _value(cfg, key, default, where)
    if not _is_real(value):
        raise ConfigError(f"config key {where}{key!r} must be a finite number, got {value!r}")
    return float(value)


def _reals(cfg, key, where=""):
    """The list of finite numbers under ``key``, as floats."""
    values = _require(cfg, key, list, where=where)
    if not all(_is_real(v) for v in values):
        raise ConfigError(f"config key {where}{key!r} must be a list of finite numbers")
    return [float(v) for v in values]


def _count(cfg, key, default=None, where="", least=1):
    """An integer >= least."""
    value = _value(cfg, key, default, where)
    if not _is_count(value) or value < least:
        raise ConfigError(f"config key {where}{key!r} must be an integer >= {least}, got {value!r}")
    return value


def _t_span(cfg):
    ts = _require(cfg, "t_span", list)
    if len(ts) != 2 or not all(_is_real(v) for v in ts) or ts[1] <= ts[0]:
        raise ConfigError("config key 't_span' must be [t0, t1] of finite numbers with t1 > t0")
    return float(ts[0]), float(ts[1])


def _stepper(cfg):
    dt = cfg.get("dt", 1e-3)
    if not _is_real(dt) or dt <= 0:
        raise ConfigError("config key 'dt' must be a positive finite number")
    t0, t1 = _t_span(cfg)
    if not math.isfinite((t1 - t0) / dt):
        raise ConfigError("config keys 't_span' and 'dt' give a non-finite step count")
    return Stepper.rk4(float(dt))


def _record_every(cfg):
    return _count(cfg, "record_every", 1)


def _checks(cfg):
    entries = cfg.get("checks", [])
    if not isinstance(entries, list):
        raise ConfigError("config key 'checks' must be a list")
    out = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError("each check must be an object")
        _reject_unknown(entry, {"name", "tol"}, where="check")
        name = _require(entry, "name", str, where="checks.")
        tol = entry.get("tol", 0.0)
        if not _is_real(tol) or tol < 0:
            raise ConfigError(f"config key 'tol' of check {name!r} must be nonnegative and finite")
        out.append((name, float(tol)))
    return out


def _fourier_1d(n, spec, where="initial"):
    """Sampled sum of cos/sin modes on [0, 2pi); spec = {mean, modes}."""
    _reject_unknown(spec, {"mean", "modes"}, where=where)
    x = np.arange(n) * (2.0 * np.pi / n)
    f = _real(spec, "mean", 0.0, where=f"{where}.") * np.ones(n)
    for mode in spec.get("modes", []):
        _reject_unknown(mode, {"k", "cos", "sin"}, where=f"{where} mode")
        k = _require(mode, "k", int, where=f"{where}.")
        f += _real(mode, "cos", 0.0, where=f"{where}.") * np.cos(k * x)
        f += _real(mode, "sin", 0.0, where=f"{where}.") * np.sin(k * x)
    return f


def _fourier_2d(n, spec, where="initial"):
    """Sampled sum of cos/sin modes of (kx*x + ky*y) on the [0,2pi)^2 grid."""
    _reject_unknown(spec, {"mean", "modes"}, where=where)
    x = np.arange(n) * (2.0 * np.pi / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = _real(spec, "mean", 0.0, where=f"{where}.") * np.ones((n, n))
    for mode in spec.get("modes", []):
        _reject_unknown(mode, {"kx", "ky", "cos", "sin"}, where=f"{where} mode")
        kx = _require(mode, "kx", int, where=f"{where}.")
        ky = _require(mode, "ky", int, where=f"{where}.")
        phase = kx * X + ky * Y
        f += _real(mode, "cos", 0.0, where=f"{where}.") * np.cos(phase)
        f += _real(mode, "sin", 0.0, where=f"{where}.") * np.sin(phase)
    return f


def _rel_drift(series):
    series = np.asarray(series, dtype=float)
    scale = max(abs(float(series[0])), 1e-300)
    return float(np.max(np.abs(series - series[0])) / scale)


# ---------------------------------------------------------------------------
# subcommand runners: each returns (summary dict, check values dict, artifacts)
# artifacts: list of (filename, bytes, format-tag)


def _traj_artifacts(traj, stem, svg_cols=None, title=None):
    arts = [(f"{stem}.csv", trajectory.to_csv(traj), "csv")]
    if svg_cols is not None:
        arts.append(
            (f"{stem}.svg", trajectory.to_svg(traj, svg_cols[0], svg_cols[1], title=title), "svg")
        )
    return arts


def _traj_summary(traj):
    return {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.final_state[: min(12, len(traj.columns))]],
        "columns": list(traj.columns),
        "ledger": traj.ledger_extremes(),
    }


_SKATE_KEYS = {
    "system", "g", "mu", "nu", "alpha", "initial", "t_span", "dt",
    "record_every", "checks",
}
_INITIAL_KEYS = {"x", "y", "theta", "v", "omega", "lam"}


def run_skate(cfg, rng):
    _reject_unknown(cfg, _SKATE_KEYS)
    system = _require(cfg, "system", str)
    if system not in ("reduced", "lda", "regularized"):
        raise ConfigError(f"config key 'system' must name a skate system, got {system!r}")
    g = cfg.get("g", 0.0)
    if not _is_real(g) or g < 0:
        raise ConfigError("config key 'g' must be a nonnegative finite number")
    mu = cfg.get("mu", 0.0)
    if not _is_real(mu) or mu < 0:
        raise ConfigError("config key 'mu' must be a nonnegative finite number")
    nu = alpha = None
    if system == "regularized":
        if "nu" not in cfg or "alpha" not in cfg:
            raise ConfigError("regularized skate needs 'nu' and 'alpha'")
        nu, alpha = _positive(cfg, "nu"), _positive(cfg, "alpha")
    initial = cfg.get("initial", dict(skate.FIG_INITIAL))
    if not isinstance(initial, dict):
        raise ConfigError("config key 'initial' has wrong type")
    _reject_unknown(initial, _INITIAL_KEYS, where="initial")
    initial = {key: _real(initial, key, where="initial.") for key in initial}
    if system == "regularized":
        y0 = skate.initial_full(**{k: v for k, v in initial.items() if k != "lam"})
    else:
        y0 = skate.initial_reduced(**initial)
        if system == "lda":
            y0 = y0[:5]
    traj = skate.integrate_skate(
        system, y0, float(g), _t_span(cfg), _stepper(cfg),
        mu=float(mu), nu=nu, alpha=alpha, record_every=_record_every(cfg),
    )
    values = {"energy_rel_drift": _rel_drift(traj.ledger["energy"])}
    if "phi" in traj.ledger:
        values["phi_max"] = float(np.max(np.abs(traj.ledger["phi"])))
    if system == "lda" and g == 0:
        _, _, r, resid = skate.fit_circle(traj.column("x"), traj.column("y"))
        values["circle_fit_residual"] = float(resid)
        values["circle_radius"] = float(r)
    summary = _traj_summary(traj)
    arts = _traj_artifacts(traj, f"skate-{system}", svg_cols=("x", "y"), title="contact-point path")
    return summary, values, arts


_RIG_KEYS = {"n", "l", "controls", "initial", "t_span", "dt", "record_every", "checks"}


def _control_from_config(spec):
    _require(spec, "kind", str, where="controls.")
    kind = spec["kind"]
    if kind == "constant":
        _reject_unknown(spec, {"kind", "u1", "u2"}, where="controls")
        return driving.constant_control(
            _real(spec, "u1", 0.0, where="controls."), _real(spec, "u2", 0.0, where="controls.")
        )
    if kind == "sine":
        _reject_unknown(spec, {"kind", "a1", "w1", "a2", "w2"}, where="controls")
        return driving.sine_control(
            *(_real(spec, key, default, where="controls.")
              for key, default in (("a1", 0.0), ("w1", 1.0), ("a2", 0.0), ("w2", 1.0)))
        )
    if kind == "piecewise":
        _reject_unknown(spec, {"kind", "breaks", "values1", "values2"}, where="controls")
        breaks = _reals(spec, "breaks", where="controls.")
        if len(breaks) < 2 or any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise ConfigError("config key 'controls.breaks' must be at least 2 increasing numbers")
        values = [_reals(spec, key, where="controls.") for key in ("values1", "values2")]
        if any(len(v) != len(breaks) - 1 for v in values):
            raise ConfigError(
                "config keys 'controls.values1' and 'controls.values2' need one value "
                "per interval between breaks"
            )
        return driving.piecewise_control(breaks, *values)
    raise ConfigError(f"unknown control kind {kind!r}")


def _run_rig(name, cfg):
    kind = {"trailer": "unicycle", "car": "car"}[name]
    _reject_unknown(cfg, _RIG_KEYS)
    n = _count(cfg, "n", 0, least=0)
    l = _positive(cfg, "l", 1.0) if kind == "car" else cfg.get("l", 1.0)
    controls = _control_from_config(_require(cfg, "controls", dict))
    q0 = cfg.get("initial")
    if q0 is None:
        q0 = driving.default_rig_start(kind, n)
    else:
        q0 = np.asarray(_reals(cfg, "initial"))
        want = len(driving.rig_columns(kind, n))
        if q0.shape != (want,):
            raise ConfigError(f"config key 'initial' must have {want} components")
    traj = driving.simulate_rig(
        kind, n, controls, q0, _t_span(cfg), _stepper(cfg), l=l,
        record_every=_record_every(cfg),
    )
    values = {"residual_max": float(np.max(traj.ledger["residual_max"]))}
    summary = _traj_summary(traj)
    arts = _traj_artifacts(traj, f"{name}-n{n}", svg_cols=("x", "y"), title=f"{name} path")
    return summary, values, arts


def run_trailer(cfg, rng):
    return _run_rig("trailer", cfg)


def run_car(cfg, rng):
    return _run_rig("car", cfg)


_FLAG_KEYS = {"kind", "n", "s", "l", "points", "tol", "checks"}


def _flag_distribution(cfg):
    kind = _require(cfg, "kind", str)
    n = _count(cfg, "n", 0, least=0)
    l = _positive(cfg, "l", 1.0)
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
            raise ConfigError("goursat normal form needs n >= 3")
        return distributions.goursat_normal_form(n), n
    if kind == "cartan":
        s = _count(cfg, "s", 1)
        return distributions.cartan_distribution(s), s + 2
    raise ConfigError(f"unknown distribution kind {kind!r}")


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
    _reject_unknown(cfg, _FLAG_KEYS)
    dist, dim = _flag_distribution(cfg)
    points = _count(cfg, "points", 20)
    tol = _positive(cfg, "tol", distributions.DEFAULT_RANK_TOL)
    kind = cfg["kind"]
    reports = []
    try:
        for _ in range(points):
            p = generic_point(kind, dim, rng)
            reports.append(distributions.derived_flag(dist, p, tol=tol))
    except JetTableTooLarge as exc:
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


_SNAKE_KEYS = {"path", "f", "t_grid", "s_grid", "checks"}


def _head_path(spec):
    kind = _require(spec, "kind", str, where="path.")
    if kind == "circle":
        _reject_unknown(spec, {"kind", "radius", "turns", "samples"}, where="path")
        r = _positive(spec, "radius", 1.0, where="path.")
        turns = _positive(spec, "turns", 3.0, where="path.")
        n = _count(spec, "samples", 400, where="path.", least=4)
        fields = "keys 'path.radius', 'path.turns' and 'path.samples' give"
        build = lambda: snake.HeadPath.from_function(
            lambda t: np.array([r * np.cos(t / r), r * np.sin(t / r)]),
            (0.0, turns * 2 * np.pi * r), n=n,
        )
    elif kind == "line":
        _reject_unknown(spec, {"kind", "length", "samples"}, where="path")
        length = _positive(spec, "length", 10.0, where="path.")
        n = _count(spec, "samples", 200, where="path.", least=4)
        fields = "keys 'path.length' and 'path.samples' give"
        build = lambda: snake.HeadPath.from_function(lambda t: np.array([t, 0.0]), (0.0, length), n=n)
    elif kind == "points":
        _reject_unknown(spec, {"kind", "points"}, where="path")
        points = _require(spec, "points", list, where="path.")
        if len(points) < 4 or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_real(c) for c in p) for p in points
        ):
            raise ConfigError("config key 'path.points' must be at least 4 [x, y] pairs of finite numbers")
        fields = "key 'path.points' gives"
        build = lambda: snake.HeadPath(np.asarray(points, dtype=float))
    else:
        raise ConfigError(f"unknown path kind {kind!r}")
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
    _reject_unknown(cfg, _SNAKE_KEYS)
    f_spec = cfg.get("f", {"kind": "linear", "speed": 1.0, "offset": 0.0})
    if not isinstance(f_spec, dict):
        raise ConfigError("config key 'f' has wrong type")
    _reject_unknown(f_spec, {"kind", "speed", "offset"}, where="f")
    if f_spec.get("kind") != "linear":
        raise ConfigError("config key 'f.kind' must be 'linear'")
    speed = _real(f_spec, "speed", 1.0, where="f.")
    offset = _real(f_spec, "offset", 0.0, where="f.")
    f = lambda t: speed * t + offset
    tg = _require(cfg, "t_grid", dict)
    _reject_unknown(tg, {"t0", "t1", "samples"}, where="t_grid")
    t0, t1 = _real(tg, "t0", 0.0, where="t_grid."), _real(tg, "t1", where="t_grid.")
    if t1 <= t0:
        raise ConfigError("config key 't_grid.t1' must exceed 't_grid.t0'")
    t_grid = _grid(t0, t1, _count(tg, "samples", 25, where="t_grid.", least=3), "t_grid")
    sg = _require(cfg, "s_grid", dict)
    _reject_unknown(sg, {"length", "samples"}, where="s_grid")
    s_grid = _grid(0.0, _positive(sg, "length", where="s_grid."),
                   _count(sg, "samples", 51, where="s_grid.", least=3), "s_grid")
    head = _head_path(_require(cfg, "path", dict))
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


_SLEIGH_KEYS = {"v0", "omega0", "L", "t_span", "dt", "n_string", "record_every", "checks"}


def run_sleigh(cfg, rng):
    _reject_unknown(cfg, _SLEIGH_KEYS)
    v0 = _real(cfg, "v0")
    if v0 == 0:
        raise ConfigError("config key 'v0' must be nonzero: the head must move to drag the string")
    omega0 = _real(cfg, "omega0", 0.0)
    L = _positive(cfg, "L", 1.0)
    n_string = _count(cfg, "n_string", 50, least=2)
    traj, frames = snake.sleigh_with_string(
        v0, omega0, L, _t_span(cfg), _stepper(cfg),
        n_string=n_string, record_every=_record_every(cfg),
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
    arts = _traj_artifacts(traj, "sleigh", svg_cols=("x", "y"), title="contact point")
    s_grid = np.linspace(0.0, L, n_string)
    arts += [(f"sleigh-frame-{i:04d}.csv", snake.frame_to_csv(fr, s_grid), "csv")
             for i, fr in enumerate(frames)]
    arts.append(("sleigh-timelapse.svg", snake.timelapse_svg(frames, title="dragged string"), "svg"))
    return summary, values, arts


_LIE_KEYS = {"flow", "m0", "t_span", "dt", "record_every", "checks"}


def _is_triple(value):
    return isinstance(value, list) and len(value) == 3 and all(_is_real(v) for v in value)


def _operator(spec, key):
    """A 3x3 operator given by its diagonal or by its rows."""
    value = _require(spec, key, list, where="flow.")
    if not (_is_triple(value) or (len(value) == 3 and all(_is_triple(row) for row in value))):
        raise ConfigError(f"config key 'flow.{key}' must be 3 finite numbers or 3 rows of 3")
    return np.asarray(value, dtype=float)


def run_euler_suslov(cfg, rng):
    _reject_unknown(cfg, _LIE_KEYS)
    flow_spec = _require(cfg, "flow", dict)
    kind = _require(flow_spec, "kind", str, where="flow.")
    if kind == "free":
        _reject_unknown(flow_spec, {"kind", "B"}, where="flow")
        flow = ("free", _operator(flow_spec, "B"))
    elif kind == "constrained":
        _reject_unknown(flow_spec, {"kind", "A", "constraints"}, where="flow")
        A = _operator(flow_spec, "A")
        cons = _require(flow_spec, "constraints", list, where="flow.")
        if len(cons) not in (1, 2) or not all(_is_triple(a) for a in cons):
            raise ConfigError("config key 'flow.constraints' must hold 1 or 2 vectors of 3 "
                              "finite numbers")
        flow = ("constrained", A, [np.asarray(a, dtype=float) for a in cons])
    else:
        raise ConfigError(f"unknown flow kind {kind!r}")
    m0 = np.asarray(_reals(cfg, "m0"))
    if m0.shape != (3,):
        raise ConfigError("config key 'm0' must have 3 components")
    traj = liealg.integrate_lie(flow, m0, _t_span(cfg), _stepper(cfg),
                                record_every=_record_every(cfg))
    values = {
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
        "casimir_rel_drift": _rel_drift(traj.ledger["casimir"]),
    }
    if "constraint_max" in traj.ledger:
        values["constraint_max"] = float(np.max(np.abs(traj.ledger["constraint_max"])))
    summary = _traj_summary(traj)
    arts = _traj_artifacts(traj, "spin-momentum", svg_cols=("m1", "m2"), title="momentum path")
    return summary, values, arts


_LL_KEYS = {"n", "initial", "t_span", "dt", "record_every", "renormalize", "checks"}


def run_heisenberg(cfg, rng):
    _reject_unknown(cfg, _LL_KEYS)
    n = _count(cfg, "n", 128, least=4)
    init = cfg.get("initial", {"kind": "magnon", "k": 1, "eps": 0.3})
    kind = _require(init, "kind", str, where="initial.")
    if kind != "magnon":
        raise ConfigError("config key 'initial.kind' must be 'magnon'")
    _reject_unknown(init, {"kind", "k", "eps"}, where="initial")
    k = _count(init, "k", 1, where="initial.")
    eps = _real(init, "eps", 0.3, where="initial.")
    L0 = loopgroup.magnon(n, k, eps)
    renormalize = cfg.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ConfigError("config key 'renormalize' must be true or false")
    traj = loopgroup.integrate_ll(
        L0, _t_span(cfg), _stepper(cfg), renormalize=renormalize,
        record_every=_record_every(cfg),
    )
    values = {
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
        "norm_dev_max": float(np.max(traj.ledger["norm_dev"])),
        "momentum_drift": max(
            float(np.max(np.abs(traj.ledger[c] - traj.ledger[c][0])))
            for c in ("mom_x", "mom_y", "mom_z")
        ),
    }
    summary = {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        "n": n,
        "ledger": traj.ledger_extremes(),
    }
    arts = [("spin-chain.csv", trajectory.to_csv(traj), "csv")]
    return summary, values, arts


_BINORMAL_KEYS = {"n", "radius", "t_span", "dt", "record_every", "checks"}


def run_binormal(cfg, rng):
    _reject_unknown(cfg, _BINORMAL_KEYS)
    n = _count(cfg, "n", 128, least=4)
    r = _positive(cfg, "radius", 1.0)
    gamma0 = loopgroup.circle_curve(n, r)
    traj = loopgroup.integrate_binormal(gamma0, _t_span(cfg), _stepper(cfg),
                                        record_every=_record_every(cfg))
    values = {"length_rel_drift": _rel_drift(traj.ledger["length"])}
    summary = {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        "n": n,
        "ledger": traj.ledger_extremes(),
    }
    arts = [("filament.csv", trajectory.to_csv(traj), "csv")]
    return summary, values, arts


_CH_KEYS = {"n", "kappa", "initial", "t_span", "dt", "record_every", "checks"}


def run_camassa_holm(cfg, rng):
    _reject_unknown(cfg, _CH_KEYS)
    n = _count(cfg, "n", 256, least=4)
    kappa = _real(cfg, "kappa", 0.0)
    u0 = _fourier_1d(n, cfg.get("initial", {"modes": [{"k": 1, "cos": 0.1}]}))
    m0 = camassaholm.helmholtz_apply(u0)
    traj = camassaholm.integrate_ch(m0, kappa, _t_span(cfg), _stepper(cfg),
                                    record_every=_record_every(cfg))
    values = {
        "mean_abs": float(np.max(np.abs(traj.ledger["mean_u"]))),
        "energy_rel_drift": _rel_drift(traj.ledger["energy"]),
    }
    summary = {
        "samples": len(traj),
        "final_time": float(traj.times[-1]),
        "n": n,
        "kappa": kappa,
        "ledger": traj.ledger_extremes(),
    }
    arts = [("shallow-water.csv", trajectory.to_csv(traj), "csv")]
    return summary, values, arts


_FLUID_KEYS = {
    "system", "n", "eos", "eta_H", "Gamma_H", "mu", "nu",
    "initial", "t_span", "dt", "record_every", "checks",
}


def run_odd_fluid(cfg, rng):
    _reject_unknown(cfg, _FLUID_KEYS)
    system = cfg.get("system", "base")
    if system not in ("base", "effective", "extended"):
        raise ConfigError(f"config key 'system' must name a fluid system, got {system!r}")
    n = _count(cfg, "n", 64, least=4)
    eos_spec = cfg.get("eos", {"kind": "isothermal", "c": 1.0})
    eos_kind = _require(eos_spec, "kind", str, where="eos.")
    if eos_kind == "isothermal":
        _reject_unknown(eos_spec, {"kind", "c"}, where="eos")
        eos = ("isothermal", _positive(eos_spec, "c", 1.0, where="eos."))
    elif eos_kind == "polytropic2":
        _reject_unknown(eos_spec, {"kind", "kappa"}, where="eos")
        eos = ("polytropic2", _positive(eos_spec, "kappa", 0.5, where="eos."))
    else:
        raise ConfigError(f"unknown equation of state {eos_kind!r}")
    eta, gamma = _real(cfg, "eta_H", 0.0), _real(cfg, "Gamma_H", 0.0)
    params = oddfluid.FluidParams(
        eos=eos,
        eta_H=lambda rho: eta + 0.0 * rho,
        Gamma_H=lambda rho: gamma + 0.0 * rho,
        mu=_positive(cfg, "mu", 1.0),
        nu=_positive(cfg, "nu", 1.0),
    )
    init = cfg.get("initial", {})
    _reject_unknown(init, {"rho", "vx", "vy", "ell"}, where="initial")
    rho = _fourier_2d(n, init.get("rho", {"mean": 1.0}), where="initial.rho")
    vx = _fourier_2d(n, init.get("vx", {}), where="initial.vx")
    vy = _fourier_2d(n, init.get("vy", {}), where="initial.vy")
    ell = None
    if system == "extended":
        ell = _fourier_2d(n, init.get("ell", {}), where="initial.ell")
    if np.min(rho) <= oddfluid.DENSITY_FLOOR:
        raise ConfigError("config key 'initial.rho' must stay positive")
    state0 = oddfluid.FluidState(rho=rho, v=np.stack([vx, vy]), ell=ell)
    traj, frames = oddfluid.integrate_fluid(system, state0, params, _t_span(cfg),
                                            _stepper(cfg), record_every=_record_every(cfg))
    values = {"energy_rel_drift": _rel_drift(traj.ledger["H"])}
    if system == "extended":
        h = traj.ledger["H_nu"]
        dissipated = 2.0 * np.trapezoid(traj.ledger["R_mu"], traj.times)
        values["balance_rel"] = float(abs(h[-1] - h[0] + dissipated) / max(abs(h[0]), 1e-300))
        values["dl_max"] = float(np.max(traj.ledger["dl_max"]))
    summary = _traj_summary(traj)
    summary["system"] = system
    arts = [("fluid-ledger.csv", trajectory.to_csv(traj), "csv")]
    last = frames[-1]
    arts.append(("fluid-final-rho.csv", _field_csv(last.rho), "csv"))
    arts.append(("fluid-final-vx.csv", _field_csv(last.v[0]), "csv"))
    arts.append(("fluid-final-vy.csv", _field_csv(last.v[1]), "csv"))
    if last.ell is not None:
        arts.append(("fluid-final-ell.csv", _field_csv(last.ell), "csv"))
    return summary, values, arts


def _field_csv(field):
    """Flat row-major CSV of a 2-D grid, one grid row per line."""
    return b"".join(trajectory._csv_lines(field))


_BURGERS_KEYS = {"n", "potential", "t_span", "dt", "record_every", "checks"}


def run_burgers(cfg, rng):
    _reject_unknown(cfg, _BURGERS_KEYS)
    n = _count(cfg, "n", 128, least=4)
    f0 = _fourier_2d(n, _require(cfg, "potential", dict), where="potential")
    u0 = masstransport.gradient(f0)
    t_span, stepper, re = _t_span(cfg), _stepper(cfg), _record_every(cfg)
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
            ("advection-final-ux.csv", _field_csv(u_frames[-1][0]), "csv"),
            ("advection-final-uy.csv", _field_csv(u_frames[-1][1]), "csv")]
    return summary, values, arts


RUNNERS = {
    "skate": run_skate,
    "trailer": run_trailer,
    "car": run_car,
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


PRESETS = {
    "fig1a": ("skate", {
        "system": "reduced", "g": 1.0, "mu": 0.0,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8}],
    }),
    "fig1b": ("skate", {
        "system": "reduced", "g": 0.0, "mu": 0.0,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8}],
    }),
    "fig2a": ("skate", {
        "system": "lda", "g": 1.0,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8}],
    }),
    "fig2b": ("skate", {
        "system": "lda", "g": 0.0,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8},
                   {"name": "circle_fit_residual", "tol": 1e-6}],
    }),
    "fig3a": ("skate", {
        "system": "reduced", "g": 1.0, "mu": 100.0,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8}],
    }),
    "fig3b": ("skate", {
        "system": "reduced", "g": 0.0, "mu": 100.0,
        "t_span": [0.0, 8.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8}],
    }),
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
        return json.loads(json.dumps(cfg))
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        return cfg
    raise ConfigError("a run needs --config or --preset")


def _evaluate_checks(declared, values):
    results = []
    for name, tol in declared:
        if name not in values:
            results.append({"name": name, "tol": tol, "value": None, "pass": False})
            continue
        value = values[name]
        results.append({"name": name, "tol": tol, "value": value, "pass": abs(value) <= tol})
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
        declared = _checks(cfg)
        rng = np.random.default_rng(args.seed)
        summary, values, arts = RUNNERS[args.command](cfg, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    check_results = _evaluate_checks(declared, values)
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

    if args.check and any(not c["pass"] for c in check_results):
        failed = [c["name"] for c in check_results if not c["pass"]]
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
