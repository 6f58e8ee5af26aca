"""Property test: no config value makes the CLI raise or print a traceback.

Each example starts from a short, valid ``skate``, ``snake`` or ``flag``
config and replaces a few of its values (nested ones too) with finite
extremes, zeros, negatives, NaN/±Infinity, booleans, strings and other JSON
values.  Whatever the values, ``main`` must return one of the documented
exit codes: 0 success, 1 config error, 2 numerical failure, 3 check failed.

Horizons stay short.  A tiny positive ``dt`` or a span of 1e300 asks for a
valid run of ~1e300 steps, which no test can wait for, so ``t_span`` and
``dt`` draw only from values that are rejected or leave the step count
small; sample and point counts draw from small integers for the same reason.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonholo.cli import main

MAX = sys.float_info.max
TINY = sys.float_info.min  # smallest normal float
SUB = 5e-324  # smallest subnormal float
EXTREMES = [
    0, -1, 1, 0.0, -0.0, 0.5, -2.5, 1e300, -1e300, MAX, -MAX,
    TINY, -TINY, SUB, -SUB, float("nan"), float("inf"), float("-inf"),
]
WORDS = ["", "x", "1", "NaN", "reduced", "lda", "regularized", "trailer", "car",
         "cartan", "goursat", "circle", "line", "points", "linear"]

values = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(),
    st.integers(-3, 5),
    st.booleans(),
    st.sampled_from(WORDS),
    st.sampled_from([None, [], [1.0], [0, 1], {}]),
)
horizon_values = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), MAX, -MAX, 0, 0.0, -0.0, -1, -1e-3,
    SUB, 1, True, False, "0.01", None, [], [0.0], [0.0, 0.0], [0.01, 0.0],
])

CHECKS = [{"name": "energy_rel_drift", "tol": 1e-6}]
SKATE = {
    "system": "reduced", "g": 1.0, "mu": 0.5, "nu": 0.1, "alpha": 0.1,
    "initial": {"x": 0.0, "y": 0.0, "theta": 0.7, "v": 1.0, "omega": -2.0, "lam": 0.0},
    "t_span": [0.0, 0.01], "dt": 1e-3, "record_every": 2, "checks": CHECKS,
}
SNAKE = {
    "path": {"kind": "circle", "radius": 1.0, "turns": 1.0, "samples": 8},
    "f": {"kind": "linear", "speed": 1.0, "offset": 1.5},
    "t_grid": {"t0": 0.0, "t1": 1.0, "samples": 3},
    "s_grid": {"length": 1.0, "samples": 3},
    "checks": [{"name": "collinearity", "tol": 1e-3}],
}
FLAG = {
    "kind": "trailer", "n": 1, "s": 1, "l": 1.0, "points": 2, "tol": 1e-8,
    "checks": [{"name": "non_goursat_points", "tol": 0}],
}

BASES = {
    "skate": [
        SKATE,
        {**SKATE, "system": "lda"},
        {**SKATE, "system": "regularized", "initial": {"theta": 0.7, "omega": -2.0}},
    ],
    "snake": [
        SNAKE,
        {**SNAKE, "path": {"kind": "line", "length": 4.0, "samples": 6}},
        {**SNAKE, "path": {"kind": "points", "points": [[0, 0], [1, 0], [2, 1], [3, 3]]}},
    ],
    "flag": [FLAG, *({**FLAG, "kind": kind} for kind in
                     ("unicycle", "car", "car-trailer", "goursat", "cartan"))],
}
KEYS = {
    "skate": [
        ("system",), ("g",), ("mu",), ("nu",), ("alpha",), ("initial",),
        *(("initial", k) for k in ("x", "y", "theta", "v", "omega", "lam")),
        ("record_every",), ("checks",), ("checks", 0), ("checks", 0, "tol"),
    ],
    "snake": [
        ("path",), ("path", "kind"), ("path", "radius"), ("path", "turns"),
        ("path", "samples"), ("path", "length"), ("path", "points"),
        ("path", "points", 0), ("path", "points", 1, 0), ("f",), ("f", "speed"),
        ("f", "offset"), ("t_grid", "t0"), ("t_grid", "t1"), ("t_grid", "samples"),
        ("s_grid",), ("s_grid", "length"), ("s_grid", "samples"),
    ],
    "flag": [("kind",), ("n",), ("s",), ("l",), ("points",), ("tol",), ("checks", 0, "tol")],
}
HORIZON_KEYS = [("t_span",), ("t_span", 0), ("t_span", 1), ("dt",)]


def _cases(command, horizon=False):
    overrides = st.lists(st.tuples(st.sampled_from(KEYS[command]), values), max_size=3)
    if horizon:
        overrides = st.tuples(overrides, st.lists(
            st.tuples(st.sampled_from(HORIZON_KEYS), horizon_values), max_size=2,
        )).map(lambda pair: pair[0] + pair[1])
    return st.tuples(st.just(command), st.integers(0, len(BASES[command]) - 1), overrides)


def _apply(cfg, overrides):
    """Set each nested value whose parents exist; skip the rest."""
    cfg = copy.deepcopy(cfg)
    for path, value in overrides:
        parent = cfg
        for key in path[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            try:
                parent[path[-1]] = value
            except (IndexError, TypeError):
                pass
    return cfg


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(_cases("skate", horizon=True), _cases("snake"), _cases("flag")))
@example(case=("skate", 0, [(("system",), "regularized"), (("nu",), 1e-17), (("alpha",), 0.01)]))
@example(case=("snake", 2, [(("path", "points"), [[0, 0], [0, 0], [0, 0], [0, 0]])]))
@example(case=("snake", 0, [(("path", "radius"), 1e-300)]))
def test_cli_exits_with_a_documented_code(case):
    command, base, overrides = case
    cfg = _apply(BASES[command][base], overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", str(path), "--check"])
            except Exception as exc:
                raise AssertionError(f"main raised {exc!r} on {cfg!r}") from exc
    assert code in (0, 1, 2, 3), (code, cfg)
    assert "Traceback" not in err.getvalue(), cfg
