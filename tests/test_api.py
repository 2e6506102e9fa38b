import ast
import dataclasses
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import mtload
from byte_manifest import README, readme_block
from mtload import (LightField, MotCloud, PumpingDistribution,
                    QuadrupoleField, RateModel, SpeciesData, chromium52,
                    cross_section_from_beta, effective_volume,
                    excited_mot_density, integrate_mt_decay, loading_curve,
                    mean_collision_velocity, mot_on_decay_rate,
                    overlap_correction, phase_space_density, shape_params,
                    simulate_transfer, steady_state_population,
                    transfer_rate)
from mtload.dynamics import decay_density_at
from mtload.estimation import DensityImage, profile_model


def test_public_names_resolve_and_readme_example_runs():
    missing = [name for name in mtload.__all__ if not hasattr(mtload, name)]
    assert missing == []
    block = readme_block("Library usage", "python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["n_of_t"].shape == (50,)


def test_all_lists_exactly_the_imported_names():
    bound = {name for name, value in vars(mtload).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(mtload.__all__) - {"__version__"} == bound


# ------------------------------------------------------ argument domains

NON_FINITE = (math.nan, -math.inf, math.inf)
CR = chromium52()


def guards(call, valid, non_finite=NON_FINITE, **bad):
    """Rows of GUARDS: ``call(**valid)`` succeeds, and each value of
    ``bad[name]`` or ``non_finite`` in place of argument ``name`` is
    refused."""
    return [(call, valid, name, values + non_finite)
            for name, values in bad.items()]


MOT = {"size_sigma": 2e-4, "temperature": 3e-4, "atom_number": 1e7}
PSD = {"peak_density": 1e17, "temperature": 1e-4, "species": CR}
LOSS = {"n_e": 2.5e15, "sigma_ed": 1e-15, "v": 0.4, "gamma_background": 0.3}
DECAY = {"initial_density": 1e16, "model": RateModel(), "t_end": 1.0,
         "dt_hint": 0.1}
RATE = {"n_mot": 1e7, "p_e": 0.3, "species": CR, "efficiency": 0.3}
IMAGE = {"image": DensityImage(np.ones((3, 3)), pitch=1e-4), "n0": 1e16,
         "shape_b": 2000.0, "shape_g": 0.0}
TRANSFER = {"mot": MotCloud(**MOT), "dist": PumpingDistribution.point(4),
            "field": QuadrupoleField(0.1), "species": CR, "count": 1000,
            "rng": np.random.default_rng(0)}

# every argument guard of the library, with finite values outside its
# domain
GUARDS = [
    *guards(QuadrupoleField, {"gradient": 0.1}, gradient=(0.0, -1.0)),
    *guards(MotCloud, MOT, size_sigma=(-1e-6,), temperature=(0.0, -1e-4),
            atom_number=(0.0, -1.0)),
    *guards(shape_params, {"temperature": 1e-4, "mu_bar": 5e-23,
                           "field": QuadrupoleField(0.1), "species": CR},
            temperature=(0.0, -1.0)),
    *guards(effective_volume, {"shape_b": 1000.0, "shape_g": 400.0},
            shape_b=(0.0, -1.0), shape_g=(-1.0,)),
    *guards(phase_space_density, PSD, peak_density=(-1.0,),
            temperature=(0.0, -1.0)),
    *guards(mean_collision_velocity, {"t_mot": 3e-4, "t_mt": 1e-4,
                                      "species": CR},
            t_mot=(-1.0,), t_mt=(-1.0,)),
    *guards(excited_mot_density, {"n_mot": 1e7, "p_e": 0.35, "v_mt": 1.6e-9},
            v_mt=(0.0, -1.0)),
    *guards(overlap_correction, {"size_ratio": 0.25},
            size_ratio=(0.0, -0.5, 1.5)),
    *guards(cross_section_from_beta, {"beta": 7e-17, "v": 0.2},
            v=(0.0, -1.0), beta=(-1.0,)),
    # an infinite lifetime disables background loss
    *guards(RateModel, {}, non_finite=(math.nan, -math.inf),
            background_lifetime=(0.0, -1.0)),
    *guards(RateModel, {}, two_body_coeff=(-1.0,),
            initial_volume=(0.0, -1.0), volume_growth_rate=(-1.0,)),
    *guards(loading_curve, {"r": 1e8, "gamma": 1.0, "t": 1.0},
            gamma=(-1.0,)),
    *guards(steady_state_population, {"r": 1e8, "gamma": 2.0},
            gamma=(0.0, -1.0)),
    *guards(mot_on_decay_rate, LOSS, **dict.fromkeys(LOSS, (-1.0,))),
    # 1e-310 is subnormal: 1/n(s) would overflow and the decay read 0
    *guards(decay_density_at, {"times": [0.0, 1.0], "initial_density": 1e16,
                               "model": RateModel()},
            initial_density=(0.0, -1.0, 1e-310)),
    *guards(integrate_mt_decay, DECAY, t_end=(0.0, -1.0),
            dt_hint=(0.0, -1.0)),
    *guards(LightField, {"single_beam_intensity": 1.0, "beam_count": 6},
            single_beam_intensity=(-1.0,), beam_count=(0, -1)),
    *guards(transfer_rate, RATE, n_mot=(-1.0,), efficiency=(-0.1, 1.5)),
    *guards(SpeciesData, dataclasses.asdict(CR),
            **dict.fromkeys(dataclasses.asdict(CR), (0.0, -1.0))),
    *guards(profile_model, IMAGE, n0=(0.0, -1e16), shape_b=(0.0, -2000.0)),
    # a count that is not an integer, every non-finite one included, is a
    # TypeError (test_mc)
    *guards(simulate_transfer, TRANSFER, non_finite=(), count=(0, -3)),
]


@pytest.mark.parametrize("call, valid, name, values", [
    pytest.param(*row, id=f"{row[0].__name__}-{row[2]}") for row in GUARDS])
def test_out_of_domain_argument_is_refused_by_name(call, valid, name,
                                                   values):
    call(**valid)
    for value in values:
        message = f"^{name} must be .+, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(**{**valid, name: value})


def package_trees():
    """(module file name, parsed module) of each module of the package."""
    for path in sorted(Path(mtload.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def require_sites():
    """(scope, argument) of each ``require`` call in the package: the scope
    is the top-level class or function around it. A call whose argument
    name is not a literal stands for each field of its dataclass."""
    sites = set()
    for module, tree in package_trees():
        for top in tree.body:
            if not isinstance(top, (ast.ClassDef, ast.FunctionDef)):
                continue
            fields = [s.target.id for s in top.body
                      if isinstance(s, ast.AnnAssign)]
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "require"):
                    continue
                arg = node.args[0]
                names = ([arg.value] if isinstance(arg, ast.Constant)
                         else fields)
                assert names, f"{module}:{node.lineno}: no argument name"
                sites.update((top.name, name) for name in names)
    return sites


def test_every_guard_has_a_row():
    rows = {(call.__name__, name) for call, _, name, _ in GUARDS}
    assert require_sites() == rows


def test_linear_algebra_has_one_home():
    # leastsq._lstsq is the package's one linear least-squares solve: no
    # other module reaches numpy.linalg, and no module catches LinAlgError
    sites = []
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "LinAlgError" in ast.unparse(node.type)):
                sites.append(f"{module}:{node.lineno}: catches LinAlgError")
            elif module != "leastsq.py" and (
                    isinstance(node, ast.Attribute) and node.attr == "linalg"
                    or isinstance(node, (ast.Import, ast.ImportFrom))
                    and "linalg" in ast.unparse(node)):
                sites.append(f"{module}:{node.lineno}: uses numpy.linalg")
    assert sites == []
