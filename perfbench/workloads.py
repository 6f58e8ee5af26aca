"""Job lists of the nonholo benchmark workloads.

Every job is one ``nonholo`` command line: a subcommand with ``--preset``
or ``--config``, plus ``--seed`` for the flag jobs.  The workload seed picks
the flag sample points and scales each initial-data amplitude by a factor in
[1 - AMPLITUDE_SPREAD, 1 + AMPLITUDE_SPREAD]; grid sizes, dt, horizons and
record_every never depend on it.

Run as a script, it writes one workload's config files into a directory:

    python3 perfbench/workloads.py WORKLOAD SEED DIR
"""

import json
import random
import sys
from pathlib import Path

AMPLITUDE_SPREAD = 0.05


def _scaled(rng, value):
    return value * (1.0 + AMPLITUDE_SPREAD * (2.0 * rng.random() - 1.0))


def _preset(name):
    from nonholo.cli import PRESETS

    command, cfg = PRESETS[name]
    return command, json.loads(json.dumps(cfg))


def _skate_initial(rng):
    from nonholo.skate import FIG_INITIAL

    init = {k: float(v) for k, v in FIG_INITIAL.items()}
    init["v"] = _scaled(rng, init["v"])
    init["omega"] = _scaled(rng, init["omega"])
    return init


def _skate_preset(rng, name):
    command, cfg = _preset(name)
    cfg["initial"] = _skate_initial(rng)
    return command, cfg


def _sleigh(rng):
    command, cfg = _preset("sleigh-circle")
    cfg["v0"] = _scaled(rng, cfg["v0"])
    cfg["omega0"] = _scaled(rng, cfg["omega0"])
    return command, cfg


def _regularized_skate(rng):
    return "skate", {
        "system": "regularized", "g": 1.0, "nu": 0.01, "alpha": 0.01,
        "initial": _skate_initial(rng),
        "t_span": [0.0, 2.0], "dt": 1e-4, "record_every": 100,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-3},
                   {"name": "phi_max", "tol": 1e-2}],
    }


def _rig(rng, command, n, a1, w1, a2, w2):
    # car rigs steer with u1 (phi' = u1), so a1/w1 keeps |phi| below pi/4
    return command, {
        "n": n,
        "controls": {"kind": "sine", "a1": _scaled(rng, a1), "w1": w1,
                     "a2": _scaled(rng, a2), "w2": w2},
        "t_span": [0.0, 10.0], "dt": 1e-3, "record_every": 10,
        "checks": [{"name": "residual_max", "tol": 1e-8}],
    }


def _suslov(rng):
    return "euler-suslov", {
        "flow": {"kind": "constrained", "A": [1.0, 2.0, 3.0], "constraints": [[0.0, 0.0, 1.0]]},
        "m0": [_scaled(rng, 1.0), _scaled(rng, 2.0), 0.0],
        "t_span": [0.0, 4.0], "dt": 1e-3, "record_every": 10,
        "checks": [{"name": "energy_rel_drift", "tol": 1e-8},
                   {"name": "constraint_max", "tol": 1e-10}],
    }


def _snake(rng):
    return "snake", {
        "path": {"kind": "circle", "radius": _scaled(rng, 1.0), "turns": 3.0, "samples": 400},
        "t_grid": {"t0": 2.0, "t1": 15.0, "samples": 25},
        "s_grid": {"length": 2.0, "samples": 51},
        "checks": [{"name": "arclength_rel_dev", "tol": 1e-6}],
    }


def _scale_modes(rng, spec):
    for mode in spec.get("modes", []):
        for key in ("cos", "sin"):
            if key in mode:
                mode[key] = _scaled(rng, mode[key])
    return spec


def _odd_fluid(rng):
    command, cfg = _preset("oddfluid-balance")
    for field in ("vx", "vy", "ell", "rho"):
        _scale_modes(rng, cfg["initial"][field])
    return command, cfg


def _burgers(rng):
    command, cfg = _preset("burgers-potential")
    _scale_modes(rng, cfg["potential"])
    return command, cfg


def _camassa_holm(rng):
    command, cfg = _preset("ch-zero-mean")
    _scale_modes(rng, cfg["initial"])
    cfg.update(t_span=[0.0, 2.0], record_every=1)
    return command, cfg


def _magnon(rng):
    command, cfg = _preset("magnon")
    cfg["initial"]["eps"] = _scaled(rng, cfg["initial"]["eps"])
    cfg["record_every"] = 2
    return command, cfg


def _binormal(rng):
    return "binormal", {
        "n": 128, "radius": _scaled(rng, 1.0),
        "t_span": [0.0, 0.5], "dt": 1e-4, "record_every": 2,
        "checks": [{"name": "length_rel_drift", "tol": 1e-6}],
    }


def _flag(kind, points=20, **extra):
    cfg = {"kind": kind, "points": points, "tol": 1e-8,
           "checks": [{"name": "non_goursat_points", "tol": 0.0}], **extra}
    return lambda rng: ("flag", cfg)


def _flag_preset(name):
    return lambda rng: ("flag", name)


# name -> build(rng) -> (subcommand, config dict or preset name)
WORKLOADS = {
    "ode-small": {
        "fig1a": lambda rng: _skate_preset(rng, "fig1a"),
        "fig2b": lambda rng: _skate_preset(rng, "fig2b"),
        "fig3a": lambda rng: _skate_preset(rng, "fig3a"),
        "sleigh-circle": _sleigh,
        "skate-regularized": _regularized_skate,
        "trailer-rig3": lambda rng: _rig(rng, "trailer", 3, 1.0, 1.0, 0.5, 2.0),
        "car-rig1": lambda rng: _rig(rng, "car", 1, 0.25, 1.0, 1.0, 0.5),
        "suslov": _suslov,
        "snake": _snake,
    },
    "pde-2d": {
        "oddfluid-balance": _odd_fluid,
        "burgers-potential": _burgers,
    },
    "pde-1d-dense": {
        "camassa-holm": _camassa_holm,
        "magnon": _magnon,
        "binormal": _binormal,
    },
    "flag-jets": {
        "trailer3": _flag_preset("trailer-goursat-n3"),
        "trailer4": _flag("trailer", points=8, n=4),
        "trailer5": _flag("trailer", points=1, n=5),
        "car-engel": _flag_preset("car-engel"),
        "goursat8": _flag("goursat", n=8),
        "cartan4": _flag("cartan", s=4),
        "car-trailer2": _flag("car-trailer", n=2),
    },
}


def write_inputs(workload, seed, directory):
    """Write the workload's configs; return [(job name, nonholo argv), ...]."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, build in WORKLOADS[workload].items():
        rng = random.Random(f"{workload}/{name}/{seed}")
        command, cfg = build(rng)
        if isinstance(cfg, str):
            argv = [command, "--preset", cfg]
        else:
            path = directory / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            argv = [command, "--config", str(path)]
        if command == "flag":
            argv += ["--seed", str(rng.randrange(2**31))]
        jobs.append((name, argv))
    return jobs


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DIR")
    import nonholo.cli  # noqa: F401  (every nonholo run pays this import)

    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
