"""Outside-in tracing of the nonholo layers for the benchmark's traced run.

Nothing in the package is edited.  ``Tracer.install`` rebinds public entry
points of the already-imported modules to timing wrappers:

* coarse layer boundaries (``cli.main``, each CLI runner, the ``integrate_*``
  entry point of each system, ``integrate`` itself, trajectory CSV/SVG
  export, ``derived_flag`` and the snake path/evolution calls) become spans
  that record name, start, end, parent and job and stay in memory;
* fine-grained calls (every rhs evaluation, every ``numpy.fft`` transform,
  ``Jet.__mul__``, ``jet_bracket``, ``numerical_rank``) are only counted and
  timed, attributed to the layer that made them: a run can make over a
  million rhs calls, far too many to keep one span each.

``integrate`` is rebound at every module that imported it, so steps, rhs
calls and rhs time are attributed to the calling system module.  The
``numpy.fft`` functions are looked up at call time, so wrapping the module
attributes counts every transform the package makes.
"""

import math
import sys
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter

# system module -> its public integrate entry points
SYSTEMS = {
    "skate": ("integrate_skate",),
    "driving": ("simulate_rig",),
    "liealg": ("integrate_lie",),
    "loopgroup": ("integrate_ll", "integrate_binormal"),
    "camassaholm": ("integrate_ch",),
    "oddfluid": ("integrate_fluid",),
    "masstransport": ("integrate_burgers", "integrate_hj"),
}

# jobs of the flag-jets workload whose derived_flag time per point is reported
FLAG_JOBS = ("trailer3", "trailer4", "trailer5")

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

# counts that must repeat exactly between two traced passes of one seed
DETERMINISTIC_COUNTS = (
    "numkit.steppers.steps",
    "numkit.steppers.rhs_evals",
    "numkit.spectral.transforms",
    "numkit.spectral.points_transformed",
    "numkit.jets.mul_calls",
    "distributions.brackets",
    "numkit.rank.calls",
    "trajectory.rows",
    "trajectory.csv_bytes",
    "trajectory.svg_bytes",
    "cli.artifact_bytes",
)

PER_LAYER = (
    [
        ("numkit.steppers.steps", "count"),
        ("numkit.steppers.rhs_evals", "count"),
        ("numkit.steppers.self_s", "s"),
        ("numkit.steppers.self_us_per_step", "us"),
    ]
    + [(f"{system}.{what}", unit) for system in SYSTEMS
       for what, unit in (("rhs_us", "us"), ("ledger_s", "s"))]
    + [
        ("numkit.spectral.transforms", "count"),
        ("numkit.spectral.transforms_per_rhs", "count/rhs"),
        ("numkit.spectral.fft_s", "s"),
        ("numkit.spectral.points_transformed", "count"),
        ("numkit.spectral.bytes_computed", "B"),
        ("numkit.jets.mul_calls", "count"),
        ("numkit.jets.mul_s", "s"),
        ("distributions.brackets", "count"),
    ]
    + [(f"distributions.flag_s_per_point.{job}", "s") for job in FLAG_JOBS]
    + [
        ("numkit.rank.calls", "count"),
        ("numkit.rank.s", "s"),
        ("trajectory.rows", "count"),
        ("trajectory.csv_bytes", "B"),
        ("trajectory.svg_bytes", "B"),
        ("trajectory.to_csv_s", "s"),
        ("trajectory.csv_mb_per_s", "MB/s"),
        ("trajectory.to_svg_s", "s"),
        ("snake.headpath_s", "s"),
        ("snake.evolve_s", "s"),
        ("cli.self_s", "s"),
        ("cli.artifact_bytes", "B"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _nonholo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nonholo" or name.startswith("nonholo."))]


def _rebind(original, make):
    """Point every nonholo module attribute bound to ``original`` at make(module)."""
    for module in _nonholo_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, make(module.__name__.rsplit(".", 1)[-1]))


class Tracer:
    """Spans and counters of one traced pass; ``reset`` between passes."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1, child s, job]
        self.counts = defaultdict(float)
        self.job = None
        self._stack = []
        self._in_rhs = 0

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def span(self, name, fn):
        """Wrap fn so that each call records a span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, perf_counter(), None, parent, 0.0, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += record[2] - record[1]

        return traced

    def counted(self, calls_key, seconds_key, fn):
        """Wrap fn so that each call adds to a count and, if given, a busy time."""
        counts = self.counts

        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            if seconds_key is not None:
                counts[seconds_key] += perf_counter() - t0
            counts[calls_key] += 1
            return out

        return traced

    def _integrate(self, system, integrate):
        counts = self.counts
        spanned = self.span("numkit.steppers.integrate", integrate)

        def traced(rhs, y0, t_span, stepper, *args, **kwargs):
            acc = [0, 0.0]

            def timed_rhs(t, y):
                self._in_rhs += 1
                t0 = perf_counter()
                out = rhs(t, y)
                acc[1] += perf_counter() - t0
                acc[0] += 1
                self._in_rhs -= 1
                return out

            start = perf_counter()
            times, states = spanned(timed_rhs, y0, t_span, stepper, *args, **kwargs)
            elapsed = perf_counter() - start
            counts["numkit.steppers.rhs_evals"] += acc[0]
            counts["numkit.steppers.self_s"] += elapsed - acc[1]
            counts[f"{system}.rhs_calls"] += acc[0]
            counts[f"{system}.rhs_s"] += acc[1]
            if stepper.scheme == "rk4":
                counts["numkit.steppers.steps"] += math.ceil(
                    (times[-1] - times[0]) / stepper.dt - 1e-9)
            return times, states

        return traced

    def _fft(self, fn):
        counts = self.counts

        def traced(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            counts["numkit.spectral.fft_s"] += perf_counter() - t0
            counts["numkit.spectral.transforms"] += 1
            if self._in_rhs:
                counts["numkit.spectral.rhs_transforms"] += 1
            a = np.asarray(a)
            counts["numkit.spectral.points_transformed"] += a.size
            counts["numkit.spectral.bytes_computed"] += a.nbytes + out.nbytes
            return out

        return traced

    def _export(self, kind, fn):
        counts = self.counts

        def counted(traj, *args, **kwargs):
            out = fn(traj, *args, **kwargs)
            counts[f"trajectory.{kind}_bytes"] += len(out)
            if kind == "csv":
                counts["trajectory.rows"] += len(traj)
            return out

        return self.span(f"trajectory.to_{kind}", counted)

    def install(self):
        """Rebind the layer entry points; call once, after importing nonholo.cli."""
        from nonholo import cli, distributions, snake, trajectory
        from nonholo.numkit import jets, rank, steppers

        integrate = steppers.integrate
        _rebind(integrate, lambda module: self._integrate(module, integrate))
        for system, entries in SYSTEMS.items():
            module = sys.modules[f"nonholo.{system}"]
            for entry in entries:
                wrapped = self.span(f"{system}.{entry}", getattr(module, entry))
                _rebind(getattr(module, entry), lambda _, w=wrapped: w)
        for name in FFT_FUNCTIONS:
            setattr(np.fft, name, self._fft(getattr(np.fft, name)))

        mul = self.counted("numkit.jets.mul_calls", "numkit.jets.mul_s", jets.Jet.__mul__)
        jets.Jet.__mul__ = jets.Jet.__rmul__ = mul
        bracket = self.counted("distributions.brackets", None, distributions.jet_bracket)
        _rebind(distributions.jet_bracket, lambda _: bracket)
        rank_fn = self.counted("numkit.rank.calls", "numkit.rank.s", rank.numerical_rank)
        _rebind(rank.numerical_rank, lambda _: rank_fn)
        flag = self.span("distributions.derived_flag", distributions.derived_flag)
        _rebind(distributions.derived_flag, lambda _: flag)

        for kind in ("csv", "svg"):
            original = getattr(trajectory, f"to_{kind}")
            exported = self._export(kind, original)
            _rebind(original, lambda _, e=exported: e)

        snake.HeadPath.__init__ = self.span("snake.headpath", snake.HeadPath.__init__)
        evolve = self.span("snake.evolve", snake.snake_evolve)
        _rebind(snake.snake_evolve, lambda _: evolve)
        for command, runner in cli.RUNNERS.items():
            cli.RUNNERS[command] = self.span("cli.runner", runner)
        return self.span("cli.main", cli.main)

    def layer_metrics(self, artifact_bytes):
        """Per-layer values of the pass just traced (without trace.* entries)."""
        c = self.counts
        total = defaultdict(float)      # span name -> summed duration
        self_s = defaultdict(float)     # span name -> summed duration minus child spans
        flag = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, child, job in self.spans:
            total[name] += end - start
            self_s[name] += end - start - child
            if name == "distributions.derived_flag":
                flag[job][0] += 1
                flag[job][1] += end - start

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        out = {
            "numkit.steppers.steps": c["numkit.steppers.steps"],
            "numkit.steppers.rhs_evals": c["numkit.steppers.rhs_evals"],
            "numkit.steppers.self_s": c["numkit.steppers.self_s"],
            "numkit.steppers.self_us_per_step": ratio(
                c["numkit.steppers.self_s"], c["numkit.steppers.steps"], 1e6),
        }
        for system, entries in SYSTEMS.items():
            out[f"{system}.rhs_us"] = ratio(c[f"{system}.rhs_s"], c[f"{system}.rhs_calls"], 1e6)
            out[f"{system}.ledger_s"] = sum(self_s[f"{system}.{e}"] for e in entries)
        out.update({
            "numkit.spectral.transforms": c["numkit.spectral.transforms"],
            "numkit.spectral.transforms_per_rhs": ratio(
                c["numkit.spectral.rhs_transforms"], c["numkit.steppers.rhs_evals"]),
            "numkit.spectral.fft_s": c["numkit.spectral.fft_s"],
            "numkit.spectral.points_transformed": c["numkit.spectral.points_transformed"],
            "numkit.spectral.bytes_computed": c["numkit.spectral.bytes_computed"],
            "numkit.jets.mul_calls": c["numkit.jets.mul_calls"],
            "numkit.jets.mul_s": c["numkit.jets.mul_s"],
            "distributions.brackets": c["distributions.brackets"],
        })
        for job in FLAG_JOBS:
            out[f"distributions.flag_s_per_point.{job}"] = ratio(flag[job][1], flag[job][0])
        out.update({
            "numkit.rank.calls": c["numkit.rank.calls"],
            "numkit.rank.s": c["numkit.rank.s"],
            "trajectory.rows": c["trajectory.rows"],
            "trajectory.csv_bytes": c["trajectory.csv_bytes"],
            "trajectory.svg_bytes": c["trajectory.svg_bytes"],
            "trajectory.to_csv_s": total["trajectory.to_csv"],
            "trajectory.csv_mb_per_s": ratio(
                c["trajectory.csv_bytes"], total["trajectory.to_csv"], 1e-6),
            "trajectory.to_svg_s": total["trajectory.to_svg"],
            "snake.headpath_s": total["snake.headpath"],
            "snake.evolve_s": total["snake.evolve"],
            "cli.self_s": self_s["cli.main"],
            "cli.artifact_bytes": artifact_bytes,
        })
        return out
