"""scipy is loaded only by the runs that need it (snake and sleigh).

Every CLI run is a fresh process, and importing scipy's quadrature and
splines costs more than a whole ``flag`` run, so ``import nonholo.cli`` and
the runs of the other systems must leave scipy unimported.  The check runs
in a fresh interpreter, because this test process may already hold scipy.
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

report = {"after_import": scipy_loaded()}
report["codes"] = [run(["flag", "--preset", "trailer-goursat-n3"]),
                   run(["skate", "--preset", "fig1a"])]
report["after_runs"] = scipy_loaded()
snake = {"path": {"kind": "line", "samples": 8}, "t_grid": {"t0": 2.0, "t1": 5.0},
         "s_grid": {"length": 1.0}}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "snake.json"
    path.write_text(json.dumps(snake))
    report["codes"].append(run(["snake", "--config", str(path)]))
report["after_snake"] = scipy_loaded()
print(json.dumps(report))
"""


def test_scipy_is_loaded_only_by_snake_runs():
    src = str(Path(nonholo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0, 0]
    assert not report["after_import"], report
    assert not report["after_runs"], report
    assert report["after_snake"], report
