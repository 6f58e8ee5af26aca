"""Property test: no config value makes the CLI raise or print a traceback.

The base configs and the key paths come from walking each subcommand's table
in ``cli.SCHEMAS``: one short, valid base per subcommand, plus one per option
of every string choice, the tag of each variant included.  Each example takes
a base and replaces a few of its values (nested ones too) with finite
extremes, zeros, negatives, NaN/±Infinity, booleans, strings and other JSON
values.  Whatever the values, ``main`` must return one of the documented exit
codes: 0 success, 1 config error, 2 numerical failure, 3 check failed.
Stderr holds no traceback and no warning; on exits 0 and 3 stdout is strict
JSON (no NaN or Infinity), and a run over a time span ends at its t1.

The same bases feed a guard: each run must read every top-level key its
table declares, so no declared key is accepted and then ignored.

Runs stay short.  Every count in a base is clamped to 3 (spectral grids take
their least size, 4) and every horizon is [0, 0.01].  A tiny positive ``dt``
or a span of 1e300 asks for a valid run of ~1e300 steps, which no test can
wait for, so ``t_span`` and ``dt`` draw only from values that are rejected or
leave the step count small; counts draw from small integers for the same
reason.
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
import numpy as np
import pytest

from nonholo.cli import RUNNERS, SCHEMAS, _evaluate_checks, main
from nonholo.schema import Bool, Choice, Int, ListOf, Obj, Reals, Variant

MAX = sys.float_info.max
TINY = sys.float_info.min  # smallest normal float
SUB = 5e-324  # smallest subnormal float
EXTREMES = [
    0, -1, 1, 0.0, -0.0, 0.5, -2.5, 1e300, -1e300, MAX, -MAX,
    TINY, -TINY, SUB, -SUB, float("nan"), float("inf"), float("-inf"),
]
WORDS = ["", "x", "1", "NaN", "reduced", "lda", "regularized", "trailer", "car",
         "cartan", "goursat", "circle", "line", "points", "linear", "magnon", "free",
         "constrained", "sine", "piecewise", "isothermal", "polytropic2", "extended"]

values = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(),
    st.integers(-3, 5),
    st.booleans(),
    st.sampled_from(WORDS),
    st.sampled_from([None, [], [1.0], [0, 1], {}, 5, [5], {"kind": 5}]),
)
horizon_values = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), MAX, -MAX, 0, 0.0, -0.0, -1, -1e-3,
    SUB, 1, True, False, "0.01", None, [], [0.0], [0.0, 0.0], [0.01, 0.0],
])
HORIZON_KEYS = [("t_span",), ("t_span", 0), ("t_span", 1), ("dt",)]

# values the tables cannot supply: a short horizon, small regularized skate
# parameters, piecewise controls with one value per interval, a snake head
# path that its few samples resolve and that starts a string length in, and a
# check that exists
GIVEN = {
    ("t_span",): [0.0, 0.01],
    ("path", "turns"): 1.0,
    ("f", "offset"): 1.5,
    ("nu",): 0.1,
    ("alpha",): 0.1,
    ("controls", "breaks"): [0.0, 0.5],
    ("controls", "values1"): [1.0],
    ("controls", "values2"): [-1.0],
    ("checks", 0, "name"): "energy_rel_drift",
}


def _tables(field):
    """The key tables of an object, or one per variant of a tagged one."""
    return list(field.variants.values()) if isinstance(field, Variant) else [field.fields]


def _fields(field):
    """The keys of an object, or of all variants of a tagged one."""
    return {key: sub for fields in _tables(field) for key, sub in fields.items()}


def _walk(field, path=()):
    """Yield (key path, its string options or None) for every key below ``field``;
    a key declared in several variants comes once per variant."""
    if isinstance(field, (Obj, Variant)):
        for fields in _tables(field):
            for key, sub in fields.items():
                options = getattr(sub, "options", None) or None
                yield path + (key,), options
                yield from _walk(sub, path + (key,))
    elif isinstance(field, (ListOf, Reals)):
        yield path + (0,), None
        if isinstance(field, ListOf):
            yield from _walk(field.item, path + (0,))
        elif any(len(shape) > 1 for shape in field.shapes):
            yield path + (0, 0), None


def _base(field, picks, path=()):
    """A short valid value for ``field``; ``picks`` maps key paths to options."""
    if path in GIVEN:
        return GIVEN[path]
    if isinstance(field, (Obj, Variant)):
        given = field.default if isinstance(field.default, dict) else {}
        if isinstance(field, Variant):
            tag = field.tag
            kind = picks.get(path + (tag,), given.get(tag, next(iter(field.variants))))
            given, fields = {**given, tag: kind}, field.variants[kind]
        else:
            fields = field.fields
        return {key: given[key] if key in given else _base(sub, picks, path + (key,))
                for key, sub in fields.items()
                if key in given or sub.default is not None or path + (key,) in GIVEN}
    if isinstance(field, ListOf):
        return [_base(field.item, picks, path + (0,))]
    if isinstance(field, Reals):
        shape = [size or 4 for size in field.shapes[0]]
        return (0.5 * np.arange(1, np.prod(shape) + 1)).reshape(shape).tolist()
    if isinstance(field, Int):
        return min(max(3, field.least), field.most)
    if isinstance(field, Choice):
        return picks.get(path, field.default if isinstance(field.default, str)
                         else (field.options or ("x",))[0])
    if isinstance(field, Bool):
        return False
    return field.default if isinstance(field.default, float) else 1.0


def _bases(schema):
    """The default base, then one base per other option of each choice."""
    bases = [_base(schema, {})]
    for path, options in _walk(schema):
        for option in options or ():
            cfg = _base(schema, {path: option})
            if cfg not in bases:
                bases.append(cfg)
    return bases


BASES = {command: _bases(schema) for command, schema in SCHEMAS.items()}
KEYS = {command: list(dict.fromkeys(path for path, _ in _walk(schema)
                                    if path[0] not in ("t_span", "dt")))
        for command, schema in SCHEMAS.items()}


def _cases(command):
    overrides = st.lists(st.tuples(st.sampled_from(KEYS[command]), values), max_size=3)
    if "t_span" in _fields(SCHEMAS[command]):
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
                parent[path[-1]] = copy.deepcopy(value)  # sampled lists and dicts are shared
            except (IndexError, TypeError):
                pass
    return cfg


def test_every_subcommand_has_a_valid_base():
    for command, bases in BASES.items():
        for cfg in bases:
            assert _run(command, cfg) in (0, 3), (command, cfg)


class _Reads(dict):
    """A config that records which of its keys were read."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command, cfg", [(command, cfg) for command, bases in BASES.items()
                                          for cfg in bases])
def test_every_declared_key_is_read(command, cfg):
    # a declared key that the run never reads would be accepted and ignored
    cfg = _Reads(SCHEMAS[command].read(cfg))
    _, values, _ = RUNNERS[command](cfg, np.random.default_rng(0))
    _evaluate_checks(cfg["checks"], values)
    assert set(cfg) - cfg.read == set()


def _refuse(constant):
    raise AssertionError(f"stdout holds {constant}, which strict JSON has no spelling for")


def _run(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", str(path), "--check"])
            except Exception as exc:
                raise AssertionError(f"main raised {exc!r} on {cfg!r}") from exc
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), cfg
    if code in (0, 3):
        summary = json.loads(out.getvalue(), parse_constant=_refuse)["summary"]
        if "final_time" in summary:
            assert summary["final_time"] == cfg["t_span"][1], cfg
    return code


@settings(max_examples=600, deadline=None)
@given(case=st.one_of(*(_cases(command) for command in SCHEMAS)))
@example(case=("skate", 2, [(("system",), "regularized"), (("nu",), 1e-17), (("alpha",), 0.01)]))
@example(case=("skate", 1, [(("g",), 1e300)]))  # finite states, overflowing energy ledger
@example(case=("flag", 2, [(("tol",), 0.5)]))  # ranks that fall as vectors are added
# spans shorter than the landing tolerance still end at t1
@example(case=("sleigh", 0, [(("t_span", 1), 1e-12)]))
@example(case=("sleigh", 0, [(("t_span", 1), SUB)]))
@example(case=("skate", 0, [(("t_span", 1), 1e-10)]))
# finite states whose circle fit overflows; warnings before a failure line
@example(case=("skate", 1, [(("initial", "x"), 1e160)]))
@example(case=("burgers", 0, [(("n",), 8), (("potential", "modes"),
                                            [{"kx": 1, "ky": 0, "cos": 1e308}])]))
@example(case=("snake", 2, [(("path", "points"), [[0, 0], [0, 0], [0, 0], [0, 0]])]))
@example(case=("snake", 0, [(("path", "radius"), 1e-300)]))
@example(case=("snake", 0, [(("t_grid", "samples"), 10**20)]))
@example(case=("snake", 0, [(("s_grid", "samples"), 10**20)]))
@example(case=("sleigh", 0, [(("n_string",), 10**12)]))
@example(case=("camassa-holm", 0, [(("initial",), 5)]))
@example(case=("camassa-holm", 0, [(("initial", "modes"), 5)]))
@example(case=("camassa-holm", 0, [(("initial", "modes"), [5])]))
@example(case=("odd-fluid", 0, [(("eos",), 5)]))
@example(case=("odd-fluid", 0, [(("initial",), 5)]))
@example(case=("odd-fluid", 0, [(("initial", "rho"), 5)]))
@example(case=("heisenberg", 0, [(("initial",), 5)]))
@example(case=("heisenberg", 0, [(("n",), 12)]))
@example(case=("binormal", 0, [(("n",), 12)]))
@example(case=("camassa-holm", 0, [(("n",), 12)]))
@example(case=("odd-fluid", 0, [(("n",), 12)]))
@example(case=("burgers", 0, [(("n",), 12)]))
def test_cli_exits_with_a_documented_code(case):
    command, base, overrides = case
    cfg = _apply(BASES[command][base], overrides)
    assert _run(command, cfg) in (0, 1, 2, 3), cfg
