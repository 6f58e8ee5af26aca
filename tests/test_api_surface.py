"""Every public top-level function of nonholo is used by the package itself or
is a named instrument or oracle of the tests: a second, test-only form of a
right-hand side fails here."""

import ast
import pathlib

import nonholo

SRC = pathlib.Path(nonholo.__file__).parent

# public functions that nothing in the package uses, each with why it stays
LISTED = {
    "camassaholm.ch_rhs_velocity_form": "oracle: the five-term velocity form (criterion 11)",
    "distributions.cartan_form_residuals": "instrument: the contact forms of the Cartan flags",
    "distributions.forgetful_projection_check": "instrument: car prolongation onto the unicycle",
    "driving.bracket_maneuver_slope": "instrument: third-order bracket maneuver (criterion 7)",
    "driving.parallel_park_demo": "instrument: the t^3 / l parallel-parking displacement",
    "liealg.restricted_inverse_inertia": "instrument: the degenerate spin flow (criterion 9)",
    "loopgroup.gauss_map_consistency": "instrument: the Gauss map of the filament (criterion 10)",
    "masstransport.characteristics_1d": "oracle: pre-shock 1-D advection by characteristics",
    "numkit.jets.monomials": "the exponents of the coefficient order, which the jet tests index",
    "oddfluid.energy_balance_residual": "instrument: the extended fluid's energy balance",
    "oddfluid.slaved_deviation": "instrument: the slaved deviation of the small-nu limit",
    "skate.lda_closed_form": "oracle: quadrature of the no-work skate (criterion 3)",
    "skate.reduced_energy_rate": "instrument: dE/dt of the reduced skate",
    "skate.regularized_dissipation": "instrument: the friction's dissipation (criterion 4)",
    "skate.regularized_energy_rate": "instrument: dE_nu/dt of the regularized skate (criterion 4)",
    "trajectory.to_csv": "hooked by perfbench/tracing.py",
    "trajectory.to_svg": "hooked by perfbench/tracing.py",
}


def test_every_public_function_is_used_or_listed():
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # a function's own recursion does not count
            if isinstance(top, ast.FunctionDef) and not own.startswith("_"):
                defined[f"{module}.{own}"] = own
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    unused = {key for key, name in defined.items() if name not in used}
    assert sorted(unused - LISTED.keys()) == []
    # an entry whose function is gone or now used is dropped from the list
    assert sorted(LISTED.keys() - unused) == []
