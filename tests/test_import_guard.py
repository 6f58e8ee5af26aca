"""No run loads scipy.

nonholo depends on numpy alone: the snake and sleigh splines and arclength
quadrature are numpy code (``numkit.spline``, ``snake``).  Every CLI run is a
fresh process, and importing scipy's splines or quadrature costs more than a
whole ``flag`` run, so neither ``import nonholo.cli`` nor any run, snake and
sleigh included, may import it.  The check runs in a fresh interpreter,
because this test process may already hold scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nonholo

SCRIPT = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

from nonholo import cli

report = {"after_import": scipy_loaded(), "polynomial": "numpy.polynomial" in sys.modules}
report["codes"] = [run(["flag", "--preset", "trailer-goursat-n3"]),
                   run(["skate", "--preset", "fig1a"])]
report["after_runs"] = scipy_loaded()
snake = {"path": {"kind": "line", "samples": 8}, "t_grid": {"t0": 2.0, "t1": 5.0},
         "s_grid": {"length": 1.0}}
sleigh = {"v0": 1.0, "omega0": -10.0, "t_span": [0.0, 0.5], "dt": 1e-3, "record_every": 50}
with tempfile.TemporaryDirectory() as tmp:
    for command, cfg in (("snake", snake), ("sleigh", sleigh)):
        path = Path(tmp) / f"{command}.json"
        path.write_text(json.dumps(cfg))
        report["codes"].append(run([command, "--config", str(path)]))
report["after_snake"] = scipy_loaded()
print(json.dumps(report))
"""


def test_scipy_is_never_loaded():
    src = str(Path(nonholo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0, 0, 0]
    assert not report["after_import"], report
    # the Gauss-Legendre nodes are a table, not numpy.polynomial.legendre.leggauss
    assert not report["polynomial"], report
    assert not report["after_runs"], report
    assert not report["after_snake"], report
