"""Tests for the command-line front end: configs, presets, exit codes, outputs."""

import io
import errno
import json
import contextlib
import os
import pathlib
import sys
import warnings

import numpy as np
import pytest

from nonholo import snake, trajectory
from nonholo.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    PRESETS,
    list_presets,
    main,
)


def run_cli(argv):
    """Exit code, stdout and stderr of one run; stderr ends with every warning
    the run raised, as a terminal would show them."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def bare_id(test_id, *case):
    """A case that once asserted a bare nested key and now its dotted path keeps its id."""
    return pytest.param(*case, id=test_id)


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPresets:
    EXPECTED = {
        "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
        "trailer-goursat-n3", "car-engel", "sleigh-circle", "magnon",
        "ch-zero-mean", "oddfluid-balance", "burgers-potential",
    }

    def test_exactly_the_bundled_presets(self):
        assert set(list_presets()) == self.EXPECTED

    def test_presets_subcommand_prints_json(self):
        code, out, _ = run_cli(["presets"])
        assert code == EXIT_OK
        assert set(json.loads(out)) == self.EXPECTED

    def test_every_preset_names_a_real_subcommand(self):
        from nonholo.cli import RUNNERS

        for name, (cmd, cfg) in PRESETS.items():
            assert cmd in RUNNERS
            assert isinstance(cfg, dict)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_preset_validates_and_runs(self, name):
        cmd = PRESETS[name][0]
        code, out, err = run_cli([cmd, "--preset", name, "--check"])
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert all(c["pass"] for c in report["checks"])


class TestExitCodes:
    def test_missing_config(self):
        code, _, err = run_cli(["skate"])
        assert code == EXIT_CONFIG and "config" in err

    def test_unknown_preset(self):
        code, _, err = run_cli(["skate", "--preset", "nope"])
        assert code == EXIT_CONFIG

    def test_preset_subcommand_mismatch(self):
        code, _, err = run_cli(["burgers", "--preset", "fig2b"])
        assert code == EXIT_CONFIG and "fig2b" in err

    def test_negative_nu_names_the_field(self, tmp_path):
        cfg = write_config(tmp_path, {"system": "regularized", "nu": -0.1,
                                      "alpha": 0.1, "t_span": [0, 1], "dt": 1e-3})
        code, _, err = run_cli(["skate", "--config", cfg])
        assert code == EXIT_CONFIG and "nu" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"system": "lda", "t_span": [0, 1], "bogus": 1})
        code, _, err = run_cli(["skate", "--config", cfg])
        assert code == EXIT_CONFIG and "bogus" in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["skate", "--config", str(path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("data", [
        b'{"g": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # deeper than the parser recurses
        b'{"g": ' + b"1" * 5000 + b"}",  # more digits than int() converts
        b'{"g": "\xff"}',  # not UTF-8
    ], ids=["deep", "long-int", "bad-utf8"])
    def test_unparsable_config_files(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run_cli(["skate", "--config", str(path)])
        assert code == EXIT_CONFIG and out == ""
        assert "config is not valid JSON" in err and "Traceback" not in err

    def test_coarse_step_fails_energy_check(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": "reduced", "g": 1.0, "mu": 1.0, "t_span": [0, 8], "dt": 0.1,
            "checks": [{"name": "energy_rel_drift", "tol": 1e-8}],
        })
        code, out, err = run_cli(["skate", "--config", cfg, "--check"])
        assert code == EXIT_CHECK
        # without --check the run reports the failure but exits 0
        code, _, _ = run_cli(["skate", "--config", cfg])
        assert code == EXIT_OK

    def test_an_overflowing_ledger_is_one_numerical_failure_line(self, tmp_path):
        # the state stays finite (about 1e298) while g x overflows the energy
        cfg = write_config(tmp_path, {"system": "lda", "g": 1e300, "t_span": [0, 1],
                                      "dt": 1e-3})
        code, out, err = run_cli(["skate", "--config", cfg])
        assert code == EXIT_NUMERICAL and out == ""
        assert err == ("numerical failure: NonFinite: non-finite values in ledger column "
                       "'energy' from t = 0.001\n")

    def test_numerical_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 0, "controls": {"kind": "constant", "u1": 5.0, "u2": 1.0},
            "t_span": [0, 2.0], "dt": 1e-2,
        })
        code, _, err = run_cli(["car", "--config", cfg])
        assert code == EXIT_NUMERICAL and "SteeringOutOfRange" in err

    @pytest.mark.parametrize("command, cfg, error", [
        # theta overflows inside an RK4 step, where math.cos raises on inf
        ("skate", {"system": "reduced", "g": 1.0, "mu": 1e5}, "NonFinite"),
        ("euler-suslov", {"flow": {"kind": "constrained", "A": [1, 0, 3],
                                   "constraints": [[0, 0, 1]]}, "m0": [1, 2, 0]},
         "SingularGram"),
        # parallel constraint rows: singular whatever the rows' lengths
        ("euler-suslov", {"flow": {"kind": "constrained", "A": [1, 2, 3],
                                   "constraints": [[1, 0, 0], [2, 0, 0]]}, "m0": [1, 2, 0]},
         "SingularGram"),
        ("euler-suslov", {"flow": {"kind": "constrained", "A": [1, 2, 3],
                                   "constraints": [[0, 0, 0]]}, "m0": [1, 2, 0]},
         "SingularGram"),
    ])
    def test_numerical_failure_without_traceback(self, tmp_path, command, cfg, error):
        cfg = {"t_span": [0, 1.0], "dt": 1e-3, **cfg}
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_NUMERICAL and out == ""
        assert error in err and "Traceback" not in err

    @pytest.mark.parametrize("command, cfg", [
        ("burgers", {"n": 16, "potential": {"modes": [{"kx": 1, "ky": 0, "cos": 1e200}]}}),
        ("odd-fluid", {"n": 8, "eta_H": 1e300,
                       "initial": {"vx": {"modes": [{"kx": 0, "ky": 1, "sin": 0.1}]}}}),
        # finite amplitudes whose sum overflows while the initial field is sampled
        ("odd-fluid", {"n": 8, "initial": {"vx": {"modes": [
            {"kx": 1, "ky": 0, "cos": 1.7e308, "sin": 1.7e308}]}}}),
        # the potential's gradient overflows before integrate silences numpy
        ("burgers", {"n": 8, "potential": {"modes": [{"kx": 1, "ky": 0, "cos": 1e308}]}}),
    ], ids=["burgers-cos", "odd-fluid-eta_H", "odd-fluid-initial-overflow", "burgers-cos-max"])
    def test_spectral_blow_up_prints_one_failure_line(self, tmp_path, command, cfg):
        # run_cli appends each warning raised to stderr, so one line means none was
        cfg = {"t_span": [0, 0.01], "dt": 1e-3, **cfg}
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("numerical failure: NonFinite") and err.count("\n") == 1

    @pytest.mark.parametrize("command, cfg, message", [
        # the density starts at 0.5 and is driven out of the trough by the flow
        ("odd-fluid", {"system": "base", "n": 16, "eos": {"kind": "polytropic2", "kappa": 0.01},
                       "initial": {"rho": {"mean": 1.0, "modes": [{"kx": 1, "ky": 0, "cos": 0.5}]},
                                   "vx": {"modes": [{"kx": 1, "ky": 0, "sin": -3.0}]}},
                       "t_span": [0, 1.0]},
         "NegativeDensity: density fell to -1.496e-03 at t = 0.255"),
        # the first rhs is finite; the products of its first stage overflow
        ("burgers", {"n": 16, "potential": {"modes": [{"kx": 1, "ky": 0, "cos": 1e153},
                                                      {"kx": 0, "ky": 1, "sin": 1e153}]},
                     "t_span": [0, 0.1]},
         "NonFinite: blow-up in the advection derivative at t = 0.0005"),
    ], ids=["odd-fluid-floor", "burgers-overflow"])
    def test_a_failure_during_the_run_is_one_line(self, tmp_path, command, cfg, message):
        # the line names the time of the failing rhs evaluation, an RK4 stage;
        # run_cli appends each warning raised to stderr, so one line means none was
        code, out, err = run_cli([command, "--config", write_config(tmp_path, {"dt": 1e-3, **cfg})])
        assert code == EXIT_NUMERICAL and out == ""
        assert err == f"numerical failure: {message}\n"

    def test_a_non_finite_report_value_is_a_numerical_failure(self, tmp_path):
        # the state stays finite while the circle fit squares overflow
        cfg = {"system": "lda", "g": 0, "initial": {"x": 1e160}, "t_span": [0, 0.01],
               "dt": 1e-3}
        code, out, err = run_cli(["skate", "--config", write_config(tmp_path, cfg), "--out",
                                  str(tmp_path / "out"), "--format", "csv,svg,json"])
        assert code == EXIT_NUMERICAL and out == "" and not (tmp_path / "out").exists()
        assert err == ("numerical failure: NonFinite: non-finite value of "
                       "'values.circle_fit_residual' in the report\n")

    def test_a_falling_flag_is_a_numerical_failure(self, tmp_path):
        cfg = {"kind": "car", "l": 1.0, "points": 3, "tol": 0.5}
        code, out, err = run_cli(["flag", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("numerical failure: FallingRank: derived flag dims [2, 3, 2] "
                              "fall at point [")
        assert err.endswith("] with tol = 0.5\n")

    @pytest.mark.parametrize("command, cfg", [
        ("sleigh", {**PRESETS["sleigh-circle"][1], "t_span": [0, 1e-12]}),
        ("sleigh", {**PRESETS["sleigh-circle"][1], "t_span": [0, 5e-324]}),
        ("sleigh", {**PRESETS["sleigh-circle"][1], "t_span": [0, 0.0105]}),
        ("skate", {"system": "reduced", "g": 1, "mu": 1, "t_span": [0, 1e-10], "dt": 1e-3}),
    ], ids=["sleigh-1e-12", "sleigh-subnormal", "sleigh-off-grid", "skate-1e-10"])
    def test_a_span_shorter_than_the_landing_tolerance_ends_at_t1(self, tmp_path, command,
                                                                   cfg):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_OK and err == ""
        summary = json.loads(out)["summary"]
        assert summary["final_time"] == cfg["t_span"][1] and summary["samples"] == 2

    @pytest.mark.parametrize("command, cfg, field", [
        ("flag", {"kind": "trailer", "n": 1, "points": 2, "tol": float("nan")}, "tol"),
        ("flag", {"kind": "trailer", "n": 1, "points": 2, "tol": True}, "tol"),
        ("flag", {"kind": "trailer", "n": 1, "points": True}, "points"),
        ("flag", {"kind": "trailer", "n": True, "points": 2}, "n"),
        ("flag", {"kind": "cartan", "s": True, "points": 2}, "s"),
        ("flag", {"kind": "car", "l": True, "points": 2}, "l"),
        ("skate", {"system": "lda", "t_span": [0, 1], "dt": float("nan")}, "dt"),
        ("skate", {"system": "lda", "t_span": [0, float("inf")], "dt": 1e-3}, "t_span"),
        ("skate", {"system": "lda", "t_span": [0, 1], "dt": True}, "dt"),
    ])
    def test_bool_and_nonfinite_numbers_name_the_field(self, tmp_path, command, cfg, field):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert f"config key {field!r}" in err

    def test_overflowing_step_count_names_t_span_and_dt(self, tmp_path):
        # the second span is a finite count of ~1.8e308 steps: a run that never ends
        for span, dt in (([0, 1e308], 1e-3), ([-sys.float_info.max, 0.01], 1.0)):
            cfg = {"system": "reduced", "g": 1.0, "t_span": span, "dt": dt}
            code, out, err = run_cli(["skate", "--config", write_config(tmp_path, cfg)])
            assert code == EXIT_CONFIG and out == ""
            assert "'t_span'" in err and "'dt'" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, cfg, field", [
        ("skate", {"system": "lda", "g": True}, "g"),
        ("skate", {"system": "lda", "mu": float("inf")}, "mu"),
        ("skate", {"system": "regularized", "nu": True, "alpha": 0.1}, "nu"),
        ("skate", {"system": "regularized", "nu": 0.1, "alpha": float("nan")}, "alpha"),
        ("odd-fluid", {"eta_H": True}, "eta_H"),
        ("odd-fluid", {"Gamma_H": float("inf")}, "Gamma_H"),
        ("odd-fluid", {"mu": True}, "mu"),
        ("odd-fluid", {"nu": float("nan")}, "nu"),
        bare_id("odd-fluid-cfg8-c", "odd-fluid",
                {"eos": {"kind": "isothermal", "c": True}}, "eos.c"),
        bare_id("odd-fluid-cfg9-kappa", "odd-fluid",
                {"eos": {"kind": "polytropic2", "kappa": float("-inf")}}, "eos.kappa"),
        ("skate", {"system": "lda", "record_every": True}, "record_every"),
        bare_id("skate-cfg11-tol", "skate",
                {"system": "lda", "checks": [{"name": "phi_max", "tol": float("nan")}]},
                "checks.0.tol"),
        bare_id("skate-cfg12-tol", "skate",
                {"system": "lda", "checks": [{"name": "phi_max", "tol": True}]},
                "checks.0.tol"),
        bare_id("skate-cfg13-tol", "skate",
                {"system": "lda", "checks": [{"name": "phi_max", "tol": float("inf")}]},
                "checks.0.tol"),
    ])
    def test_physical_parameters_reject_bools_and_nonfinite(self, tmp_path, command, cfg, field):
        cfg = {"t_span": [0, 0.01], "dt": 1e-3, **cfg}
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert "config key" in err and repr(field) in err

    @staticmethod
    def nested_list(depth):
        out = []
        for _ in range(depth - 1):
            out = [out]
        return out

    @pytest.mark.parametrize("cfg", [
        {"system": "x" * 200_000},
        {"system": "lda", "g": nested_list(900)},
        {"system": "lda", "k" * 200_000: 1},
    ], ids=["long-string", "deep-list", "long-key"])
    def test_huge_values_give_short_config_errors(self, tmp_path, cfg):
        cfg = {"t_span": [0, 0.01], "dt": 1e-3, **cfg}
        code, out, err = run_cli(["skate", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("config error: config key '") and len(err.encode()) < 300

    SNAKE = {"path": {"kind": "line", "samples": 8}, "t_grid": {"t0": 2.0, "t1": 5.0},
             "s_grid": {"length": 1.0}}
    RUN = {"t_span": [0, 0.01], "dt": 1e-3}

    @pytest.mark.parametrize("command, cfg, field", [
        ("sleigh", {**RUN, "v0": 1.0, "omega0": "abc"}, "omega0"),
        ("sleigh", {**RUN, "v0": True}, "v0"),
        ("sleigh", {**RUN, "v0": 0.0}, "v0"),
        bare_id("snake-cfg3-speed", "snake",
                {**SNAKE, "f": {"kind": "linear", "speed": "x"}}, "f.speed"),
        bare_id("snake-cfg4-offset", "snake",
                {**SNAKE, "f": {"kind": "linear", "offset": float("nan")}}, "f.offset"),
        bare_id("snake-cfg5-t0", "snake",
                {**SNAKE, "t_grid": {"t0": True, "t1": 5.0}}, "t_grid.t0"),
        bare_id("snake-cfg6-t1", "snake", {**SNAKE, "t_grid": {"t1": float("inf")}}, "t_grid.t1"),
        ("snake", {**SNAKE, "t_grid": {"t0": 6.0, "t1": 5.0}}, "t_grid.t1"),
        bare_id("snake-cfg8-samples", "snake",
                {**SNAKE, "t_grid": {"t1": 5.0, "samples": 2.5}}, "t_grid.samples"),
        bare_id("snake-cfg9-samples", "snake",
                {**SNAKE, "s_grid": {"length": 1.0, "samples": 1}}, "s_grid.samples"),
        bare_id("snake-cfg10-turns", "snake",
                {**SNAKE, "path": {"kind": "circle", "turns": "3"}}, "path.turns"),
        bare_id("snake-cfg11-samples", "snake",
                {**SNAKE, "path": {"kind": "circle", "samples": 3}}, "path.samples"),
        ("snake", {**SNAKE, "path": {"kind": "points", "points": [[0, 0], [1, 0]]}}, "path.points"),
        bare_id("trailer-cfg13-a1", "trailer",
                {**RUN, "controls": {"kind": "sine", "a1": "x"}}, "controls.a1"),
        bare_id("trailer-cfg14-w2", "trailer",
                {**RUN, "controls": {"kind": "sine", "w2": float("inf")}}, "controls.w2"),
        bare_id("trailer-cfg15-u1", "trailer",
                {**RUN, "controls": {"kind": "constant", "u1": True}}, "controls.u1"),
        bare_id("trailer-cfg16-breaks", "trailer",
                {**RUN, "controls": {"kind": "piecewise", "breaks": [0, "1"],
                                     "values1": [1], "values2": [1]}}, "controls.breaks"),
        bare_id("car-cfg17-values1", "car",
                {**RUN, "controls": {"kind": "piecewise", "breaks": [0, 1],
                                     "values1": [True], "values2": [1]}}, "controls.values1"),
        ("car", {**RUN, "controls": {"kind": "piecewise", "breaks": [0, 1],
                                     "values1": [1, 2], "values2": [1]}}, "controls.values1"),
        ("trailer", {**RUN, "n": 1, "controls": {"kind": "constant"},
                     "initial": [0, 0, "a", 0]}, "initial"),
        ("trailer", {**RUN, "n": True, "controls": {"kind": "constant"}}, "n"),
        ("binormal", {**RUN, "n": 16, "radius": float("inf")}, "radius"),
        ("heisenberg", {**RUN, "n": 16, "renormalize": "no"}, "renormalize"),
        bare_id("heisenberg-cfg23-eps", "heisenberg",
                {**RUN, "n": 16, "initial": {"kind": "magnon", "eps": "a"}}, "initial.eps"),
        bare_id("skate-cfg24-theta", "skate",
                {**RUN, "system": "lda", "initial": {"theta": "a"}}, "initial.theta"),
        ("euler-suslov", {**RUN, "flow": {"kind": "free", "B": [1, 2]}, "m0": [1, 2, 0]},
         "flow.B"),
        ("euler-suslov", {**RUN, "flow": {"kind": "constrained", "A": [1, 2, 3],
                                          "constraints": []}, "m0": [1, 2, 0]},
         "flow.constraints"),
        ("euler-suslov", {**RUN, "flow": {"kind": "free", "B": [1, 2, 3]}, "m0": [1, "a", 0]},
         "m0"),
    ])
    def test_runner_values_name_the_field(self, tmp_path, command, cfg, field):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert "config key" in err and repr(field) in err and "Traceback" not in err

    def test_singular_regularized_mass_matrix_names_nu(self, tmp_path):
        # the closed-form inverse of I + n n^T/nu needs no solve, but forces of
        # order 1/nu blow the state up within the first steps
        cfg = {**self.RUN, "system": "regularized", "nu": 1e-17, "alpha": 0.01}
        code, out, err = run_cli(["skate", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_NUMERICAL and out == ""
        assert err == ("numerical failure: NonFinite: non-finite values in state "
                       "during integration\n")

    @pytest.mark.parametrize("path, field", [
        ({"kind": "points", "points": [[0, 0], [0, 0], [0, 0], [0, 0]]}, "path.points"),
        ({"kind": "circle", "radius": 1e-300}, "path.radius"),
        ({"kind": "circle", "radius": 1e300}, "path.radius"),
        ({"kind": "line", "length": 5e-324}, "path.length"),
        ({"kind": "points", "points": [[0, 0], [1, float("nan")], [2, 0], [3, 1]]}, "path.points"),
        # a finite arclength table whose inverse map's coefficients overflow
        ({"kind": "circle", "radius": 1e-150}, "path.radius"),
    ])
    def test_degenerate_head_path_names_the_field(self, tmp_path, path, field):
        cfg = {**self.SNAKE, "path": path}
        code, out, err = run_cli(["snake", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert repr(field) in err and "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("grid, field", [
        ({"s_grid": {"length": 5e-324, "samples": 5}}, "s_grid"),
        ({"t_grid": {"t0": -1.7976931348623157e308, "t1": 1.7976931348623157e308}}, "t_grid"),
    ])
    def test_snake_grids_that_cannot_hold_their_samples(self, tmp_path, grid, field):
        cfg = {**self.SNAKE, **grid}
        code, out, err = run_cli(["snake", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert f"config key {field!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("cfg, field", [
        ({"kind": "trailer", "n": 7, "points": 1}, "n"),
        ({"kind": "goursat", "n": 10, "points": 1}, "n"),
        ({"kind": "cartan", "s": 8, "points": 1}, "s"),
    ])
    def test_flag_beyond_the_jet_table_cap_names_the_size(self, tmp_path, cfg, field):
        code, _, err = run_cli(["flag", "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG
        assert f"config key {field!r}" in err and "500000" in err

    # keys that a kind or system does not read: each was once accepted and ignored
    UNREAD = [
        *[("flag", "kind", kind, key) for kind, keys in {
            "unicycle": ["n", "s", "l"], "trailer": ["s", "l"], "car": ["n", "s"],
            "car-trailer": ["s"], "goursat": ["s", "l"], "cartan": ["n", "l"]}.items()
          for key in keys],
        *[("skate", "system", system, key) for system, keys in {
            "reduced": ["nu", "alpha"], "lda": ["mu", "nu", "alpha", "initial.lam"],
            "regularized": ["mu", "initial.lam"]}.items() for key in keys],
        *[("odd-fluid", "system", system, key) for system, keys in {
            "base": ["mu", "nu", "initial.ell"], "effective": ["nu", "initial.ell"]}.items()
          for key in keys],
    ]
    VALID = {"flag": {"points": 1}, "skate": RUN, "odd-fluid": {**RUN, "n": 8}}
    NEEDED = {"goursat": {"n": 3}, "regularized": {"nu": 0.1, "alpha": 0.1}}
    SAMPLE = {"n": 2, "s": 2, "l": 2.0, "mu": 1.0, "nu": 0.1, "alpha": 0.1,
              "initial.lam": {"initial": {"lam": 0.5}},
              "initial.ell": {"initial": {"ell": {"modes": []}}}}

    @pytest.mark.parametrize("command, tag, name, key", UNREAD,
                             ids=[f"{c}-{n}-{k}" for c, _, n, k in UNREAD])
    def test_keys_the_variant_does_not_read_are_unknown(self, tmp_path, command, tag, name, key):
        cfg = {**self.VALID[command], tag: name, **self.NEEDED.get(name, {})}
        code, _, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_OK, err
        extra = self.SAMPLE[key] if "." in key else {key: self.SAMPLE[key]}
        code, out, err = run_cli([command, "--config", write_config(tmp_path, {**cfg, **extra})])
        assert code == EXIT_CONFIG and out == ""
        assert err == f"config error: config key {key!r} is unknown\n"

    @pytest.mark.parametrize("command, cfg", [
        ("skate", {"system": "reduced", "g": 1.0, "t_span": [0, 1e6], "dt": 1e-3,
                   "record_every": 1}),
        # the sleigh keeps its track at every step, whatever record_every is
        ("sleigh", {"v0": 1.0, "t_span": [0, 1e5], "dt": 1e-3, "record_every": 10**6}),
        ("odd-fluid", {"system": "extended", "n": 512, "t_span": [0, 1], "dt": 1e-3}),
    ])
    def test_record_budget_names_t_span_dt_and_record_every(self, tmp_path, monkeypatch,
                                                            command, cfg):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("nonholo.numkit.steppers.march", refuse)
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert all(repr(key) in err for key in ("t_span", "dt", "record_every"))
        assert "recorded numbers" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, cfg", [
        ("burgers", {"n": 8, "potential": {"modes": [{"kx": 1, "ky": 0, "cos": 0.1}]}}),
        ("odd-fluid", {"system": "extended", "n": 8}),
    ])
    def test_the_record_budget_counts_what_the_run_records(self, tmp_path, monkeypatch,
                                                           command, cfg):
        # march allocates exactly the rows it records, and the budget at
        # exactly those floats runs; one float less is refused before the run
        from nonholo import cli
        from nonholo.numkit import steppers

        argv = [command, "--config", write_config(tmp_path, {
            "t_span": [0, 0.01], "dt": 1e-3, "record_every": 2, **cfg})]
        allocated, march = [], steppers.march

        def counted(*args, **kwargs):
            times, states = march(*args, **kwargs)
            assert states.base.shape[0] == len(times)
            allocated.append(states.base.size)
            return times, states

        monkeypatch.setattr(steppers, "march", counted)
        assert run_cli(argv)[0] == EXIT_OK
        budget = sum(allocated)
        monkeypatch.setattr(cli, "MAX_RECORDED", budget)
        assert run_cli(argv)[0] == EXIT_OK
        monkeypatch.setattr(cli, "MAX_RECORDED", budget - 1)
        code, out, err = run_cli(argv)
        assert code == EXIT_CONFIG and out == "" and "recorded numbers" in err

    GRID = {**RUN, "n": 8}

    @pytest.mark.parametrize("command, cfg, field", [
        ("skate", {**RUN, "system": "lda", "initial": {"theta": 0.1, "spin": 1.0}},
         "initial.spin"),
        ("trailer", {**RUN, "l": "abc", "controls": {"kind": "constant"}}, "l"),
        ("trailer", {**RUN, "l": True, "controls": {"kind": "constant"}}, "l"),
        ("car", {**RUN, "controls": {"kind": "sine", "b1": 1.0}}, "controls.b1"),
        ("car", {**RUN, "n": 65, "controls": {"kind": "constant"}}, "n"),
        ("flag", {"kind": "trailer", "n": 64, "points": 1}, "n"),
        ("flag", {"kind": "trailer", "n": 1, "points": 10**6}, "points"),
        ("snake", {**SNAKE, "t_grid": {"t1": 5.0, "samples": 10**20}}, "t_grid.samples"),
        ("snake", {**SNAKE, "s_grid": {"length": 1.0, "samples": 10**20}}, "s_grid.samples"),
        ("snake", {**SNAKE, "path": {"kind": "spiral"}}, "path.kind"),
        ("sleigh", {**RUN, "v0": 1.0, "n_string": 10**12}, "n_string"),
        ("euler-suslov", {**RUN, "flow": {"kind": "free", "B": [1, 2, 3]}, "m0": [1, 2, 0],
                          "checks": [{"name": "energy_rel_drift", "tol": -1}]}, "checks.0.tol"),
        ("heisenberg", {**GRID, "initial": 5}, "initial"),
        ("heisenberg", {**GRID, "n": 12}, "n"),
        ("binormal", {**RUN, "n": 12}, "n"),
        ("binormal", {**RUN, "n": 2**20}, "n"),
        ("camassa-holm", {**GRID, "initial": 5}, "initial"),
        ("camassa-holm", {**GRID, "initial": {"modes": 5}}, "initial.modes"),
        ("camassa-holm", {**GRID, "initial": {"modes": [5]}}, "initial.modes.0"),
        ("camassa-holm", {**GRID, "initial": {"modes": [{"k": True, "cos": 0.1}]}},
         "initial.modes.0.k"),
        ("camassa-holm", {**GRID, "n": 12}, "n"),
        ("odd-fluid", {**GRID, "eos": 5}, "eos"),
        ("odd-fluid", {**GRID, "initial": 5}, "initial"),
        ("odd-fluid", {**GRID, "initial": {"rho": 5}}, "initial.rho"),
        ("odd-fluid", {**GRID, "initial": {"rho": {"mean": 1.0, "modes": [{"kx": 1}]}}},
         "initial.rho.modes.0.ky"),
        ("odd-fluid", {**GRID, "n": 12}, "n"),
        ("burgers", {**RUN, "n": 12, "potential": {}}, "n"),
        ("burgers", {**RUN, "n": 8}, "potential"),
    ])
    def test_schema_names_the_dotted_key(self, tmp_path, command, cfg, field):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg)])
        assert code == EXIT_CONFIG and out == ""
        assert f"config key {field!r}" in err and "Traceback" not in err


# a sleigh run with a trajectory CSV and SVG, three frame CSVs and a time-lapse SVG
SHORT_SLEIGH = {"v0": 1.0, "omega0": -10.0, "L": 1.0, "n_string": 5,
                "t_span": [0.0, 0.2], "dt": 1e-2, "record_every": 10}


class TestArtifacts:
    def test_skate_outputs(self, tmp_path):
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(["skate", "--preset", "fig2b", "--out", str(out_dir),
                                "--format", "csv,svg,json"])
        assert code == EXIT_OK
        names = {p.name for p in out_dir.iterdir()}
        assert {"skate-lda.csv", "skate-lda.svg", "summary.json"} <= names
        header = (out_dir / "skate-lda.csv").read_bytes().split(b"\n", 1)[0]
        assert header == b"t,x,y,theta,omega,rho,energy"

    def test_csv_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, _ = run_cli(["skate", "--preset", "fig2b", "--out", str(out_dir),
                                  "--format", "csv"])
            assert code == EXIT_OK
            blobs.append((out_dir / "skate-lda.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_format_filter(self, tmp_path):
        out_dir = tmp_path / "csv-only"
        run_cli(["skate", "--preset", "fig2b", "--out", str(out_dir), "--format", "csv"])
        names = {p.name for p in out_dir.iterdir()}
        assert "skate-lda.csv" in names and "skate-lda.svg" not in names

    def test_sleigh_writes_frames_and_timelapse(self, tmp_path):
        out_dir = tmp_path / "sleigh"
        code, _, _ = run_cli(["sleigh", "--preset", "sleigh-circle",
                              "--out", str(out_dir)])
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert "sleigh-timelapse.svg" in names
        assert any(n.startswith("sleigh-frame-") and n.endswith(".csv") for n in names)

    def test_summary_lists_the_outputs_written_before_it(self, tmp_path):
        out_dir = tmp_path / "o"
        code, out, _ = run_cli(["sleigh", "--config", write_config(tmp_path, SHORT_SLEIGH),
                                "--out", str(out_dir), "--format", "csv,svg,json"])
        assert code == EXIT_OK
        report = json.loads(out)
        names = [pathlib.Path(p).name for p in report["outputs"]]
        assert names == ["sleigh.csv", "sleigh.svg", "sleigh-frame-0000.csv",
                         "sleigh-frame-0001.csv", "sleigh-frame-0002.csv",
                         "sleigh-timelapse.svg", "summary.json"]
        written = {**report, "outputs": report["outputs"][:-1]}
        assert (out_dir / "summary.json").read_bytes() == \
            (json.dumps(written, indent=1) + "\n").encode("ascii")

    @pytest.mark.parametrize("with_out", [True, False], ids=["json-only", "no-out"])
    def test_unrequested_formats_are_never_rendered(self, tmp_path, monkeypatch, with_out):
        def refuse(*args, **kwargs):
            raise AssertionError("an unrequested CSV or SVG was rendered")

        for module in (trajectory, snake):
            monkeypatch.setattr(module, "write_csv", refuse)
            monkeypatch.setattr(module, "write_svg", refuse)
        out_dir = tmp_path / "o"
        argv = ["sleigh", "--config", write_config(tmp_path, SHORT_SLEIGH)]
        if with_out:
            argv += ["--format", "json", "--out", str(out_dir)]
        code, _, err = run_cli(argv)
        assert code == EXIT_OK and err == ""
        if with_out:
            assert [p.name for p in out_dir.iterdir()] == ["summary.json"]
        else:
            assert not out_dir.exists()

    def test_an_svg_of_huge_coordinates_prints_no_warning(self, tmp_path):
        # the map's centre x.min() + x.max() overflows while writing the SVG
        cfg = {"system": "lda", "g": 1.0, "initial": {"x": 1.7e308}, "t_span": [0.0, 0.01]}
        out_dir = tmp_path / "o"
        code, _, err = run_cli(["skate", "--config", write_config(tmp_path, cfg),
                                "--out", str(out_dir)])
        assert code == EXIT_OK and err == ""
        assert (out_dir / "skate-lda.svg").read_bytes().endswith(b"</svg>")

    @pytest.mark.parametrize("where", ["under-a-file", "artifact-is-a-directory", "read-only"])
    def test_an_unwritable_out_is_a_config_error(self, tmp_path, monkeypatch, where):
        out_dir = tmp_path / "o"
        if where == "under-a-file":
            out_dir.write_text("")
            out_dir = out_dir / "sub"
            culprit = out_dir
        elif where == "artifact-is-a-directory":
            culprit = out_dir / "skate-reduced.svg"
            culprit.mkdir(parents=True)
        else:
            out_dir.mkdir()
            out_dir.chmod(0o555)
            culprit = out_dir / "skate-reduced.csv"
            if os.access(out_dir, os.W_OK):  # a privileged user: refuse as the OS would
                def refuse(path, *args, **kwargs):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

                monkeypatch.setattr(pathlib.Path, "open", refuse)
        code, out, err = run_cli(["skate", "--preset", "fig1a", "--out", str(out_dir)])
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("config error: config key '--out' ") and err.count("\n") == 1
        assert repr(str(culprit)) in err


class TestParser:
    @staticmethod
    def outcome(argv):
        """Exit code, stdout and stderr of one run; argparse's own for argv it refuses."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_a_parser_built_once_prints_what_a_fresh_parser_prints(self, tmp_path):
        from nonholo import cli

        flag = tmp_path / "flag.json"
        flag.write_text(json.dumps({"kind": "trailer", "n": 1, "points": 3}))
        skate = tmp_path / "skate.json"
        skate.write_text(json.dumps({
            "system": "reduced", "g": 1.0, "mu": 1.0, "t_span": [0, 8], "dt": 0.1,
            "checks": [{"name": "energy_rel_drift", "tol": 1e-8}]}))
        runs = [["flag", "--config", str(flag), "--seed", "5"],
                ["skate", "--config", str(skate), "--check"],
                ["flag", "--config", str(flag)],
                ["skate", "--config", str(skate)],
                ["flag", "--config", str(flag), "--seed", "x"],
                ["presets"]]
        once = [self.outcome(argv) for argv in runs]
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(self.outcome(argv))
        assert once == fresh
        assert [code for code, _, _ in once] == [EXIT_OK, EXIT_CHECK, EXIT_OK, EXIT_OK, 2, EXIT_OK]
        assert "invalid int value: 'x'" in once[4][2]
        assert cli.build_parser() is cli.build_parser()


class TestSubcommands:
    def test_flag_seed_controls_points(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "trailer", "n": 1, "points": 5})
        _, out1, _ = run_cli(["flag", "--config", cfg, "--seed", "1"])
        _, out1b, _ = run_cli(["flag", "--config", cfg, "--seed", "1"])
        _, out2, _ = run_cli(["flag", "--config", cfg, "--seed", "2"])
        r1, r1b, r2 = (json.loads(o)["summary"]["reports"] for o in (out1, out1b, out2))
        assert r1 == r1b and r1 != r2

    def test_flag_goursat_dims(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "goursat", "n": 5, "points": 5})
        code, out, _ = run_cli(["flag", "--config", cfg])
        assert code == EXIT_OK
        report = json.loads(out)
        assert all(d == [2, 3, 4, 5] for d in report["summary"]["dims"])

    def test_trailer_run_reports_residual(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 2, "controls": {"kind": "sine", "a1": 0.5, "w1": 1.0, "a2": 1.0, "w2": 0.0},
            "t_span": [0, 2.0], "dt": 1e-3, "record_every": 10,
            "checks": [{"name": "residual_max", "tol": 1e-10}],
        })
        code, out, _ = run_cli(["trailer", "--config", cfg, "--check"])
        assert code == EXIT_OK

    def test_snake_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "path": {"kind": "circle", "radius": 0.5, "turns": 1.2},
            "f": {"kind": "linear", "speed": 1.0, "offset": 2.0},
            "t_grid": {"t0": 0.0, "t1": 1.0, "samples": 6},
            "s_grid": {"length": 1.5, "samples": 61},
            "checks": [{"name": "arclength_rel_dev", "tol": 1e-6}],
        })
        out_dir = tmp_path / "snake"
        code, out, _ = run_cli(["snake", "--config", cfg, "--check", "--out", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "snake-timelapse.svg").exists()
        assert (out_dir / "snake-frame-0005.csv").exists()

    def test_euler_suslov_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "flow": {"kind": "constrained", "A": [1.0, 2.0, 3.0],
                     "constraints": [[0.0, 0.0, 1.0]]},
            "m0": [1.0, 2.0, 0.0], "t_span": [0, 5.0], "dt": 1e-3, "record_every": 10,
            "checks": [{"name": "energy_rel_drift", "tol": 1e-8},
                       {"name": "constraint_max", "tol": 1e-8}],
        })
        code, out, _ = run_cli(["euler-suslov", "--config", cfg, "--check"])
        assert code == EXIT_OK

    def test_euler_suslov_short_constraint_row(self, tmp_path):
        # the Gram matrix is judged on rows scaled to a largest entry of 1, so
        # a short row is as good as a long one in the same direction
        cfg = write_config(tmp_path, {
            "flow": {"kind": "constrained", "A": [1.0, 2.0, 3.0],
                     "constraints": [[1.0, 0.0, 0.0], [0.0, 1e-7, 0.0]]},
            "m0": [0.0, 0.0, 1.0], "t_span": [0, 1.0], "dt": 1e-3, "record_every": 10,
            "checks": [{"name": "constraint_max", "tol": 1e-12}],
        })
        code, _, err = run_cli(["euler-suslov", "--config", cfg, "--check"])
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("command, cfg", [
        # three string points: every frame's spline is the parabola through them
        ("snake", {"path": {"kind": "line", "samples": 8}, "t_grid": {"t0": 2.0, "t1": 5.0},
                   "s_grid": {"length": 1.0, "samples": 3}}),
        # the fewest head-path samples
        ("snake", {"path": {"kind": "line", "samples": 4}, "t_grid": {"t0": 2.0, "t1": 5.0},
                   "s_grid": {"length": 1.0}}),
        # one shortened step: the track's spline has two knots, so it is the line
        ("sleigh", {"v0": 1.0, "omega0": -10.0, "t_span": [0, 1e-12], "dt": 1e-3}),
    ], ids=["snake-3-string-points", "snake-4-path-samples", "sleigh-2-track-knots"])
    def test_smallest_spline_grids_run(self, tmp_path, command, cfg):
        out_dir = tmp_path / "out"
        code, out, err = run_cli([command, "--config", write_config(tmp_path, cfg),
                                  "--out", str(out_dir), "--format", "csv"])
        assert code == EXIT_OK and err == ""
        json.loads(out)
        tables = [np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                  for path in out_dir.glob("*.csv")]
        assert tables and all(np.all(np.isfinite(t)) for t in tables)

    def test_binormal_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 64, "radius": 1.0, "t_span": [0, 0.05], "dt": 1e-4,
            "record_every": 100,
            "checks": [{"name": "length_rel_drift", "tol": 1e-8}],
        })
        code, out, _ = run_cli(["binormal", "--config", cfg, "--check"])
        assert code == EXIT_OK

    def test_odd_fluid_base_energy(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": "base", "n": 32, "eta_H": 0.2, "Gamma_H": 0.1,
            "initial": {"rho": {"mean": 1.0, "modes": [{"kx": 1, "ky": 0, "cos": 0.05}]},
                        "vx": {"modes": [{"kx": 0, "ky": 1, "sin": 0.1}]}},
            "t_span": [0, 0.2], "dt": 2e-3, "record_every": 10,
            "checks": [{"name": "energy_rel_drift", "tol": 1e-6}],
        })
        code, out, _ = run_cli(["odd-fluid", "--config", cfg, "--check"])
        assert code == EXIT_OK

    def test_unknown_check_name_fails_closed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": "lda", "t_span": [0, 0.1], "dt": 1e-3,
            "checks": [{"name": "no_such_quantity", "tol": 1.0}],
        })
        code, out, _ = run_cli(["skate", "--config", cfg, "--check"])
        assert code == EXIT_CHECK
