"""The public modules keep their names while the code lives in narrow ones.

numerics, front and presentation each define only the half of their code
that the light command line verbs never run; the other half is defined in
rational, diagram and surgery, and each public module binds it again, at
import, as the same objects.  So library imports are unchanged, and a
verb imports only the narrow module it runs.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import steinkit

# Every public name each module bound before the split, by the module
# that now defines it.  Names of the standard library are left out, and so
# is presentation's invariant_factors, an import from numerics that no
# presentation code reads: binding it would make every calculus verb
# compile the matrix kernels.
PUBLIC = {
    "numerics": {
        "rational": ["ContinuedFraction", "ExtRational", "Frozen", "INF", "InternalError",
                     "MobiusMap", "NumericsError", "ZERO", "first_asymmetry",
                     "neg_continued_fraction", "parse_int", "parse_rational", "rat"],
        "numerics": ["Gf2Solution", "MAX_SNF_DIM", "SmithForm", "inertia", "invariant_factors",
                     "mat_vec", "signature", "smith_normal_form", "solve_gf2_affine"],
    },
    "front": {
        "rational": ["ExtRational", "Frozen", "InternalError", "parse_int", "parse_rational", "rat"],
        "diagram": ["ComponentStats", "Event", "FrontDiagram", "FrontError", "MAX_NODES",
                    "ParityReport", "STEIN", "SteinFormReport", "check_stein_form",
                    "component_stats", "linking_number", "n_components", "parity_lint",
                    "parse_event_word", "parse_front", "resolve_coefficients", "serialize_front",
                    "surger_handles"],
        "front": ["apply_move", "stabilize"],
    },
    "presentation": {
        "rational": ["ExtRational", "Frozen", "INF", "ZERO", "first_asymmetry",
                     "neg_continued_fraction", "parse_int", "parse_rational", "rat"],
        "surgery": ["AbelianGroup", "MAX_COMPONENTS", "PresentationError", "SurgeryPresentation",
                    "cokernel", "h1", "linking_form", "parse_surgery", "serialize_surgery"],
        "presentation": ["PlanRow", "SteinPlan", "blow_down", "expand_rational", "rolfsen_twist",
                         "slam_dunk", "slam_dunk_inverse", "stein_plan"],
    },
}

# the steinkit modules a fresh import of each public module loads
CLOSURES = {
    "numerics": {"rational", "numerics"},
    "front": {"rational", "diagram", "front"},
    "presentation": {"rational", "surgery", "presentation"},
}


@pytest.mark.parametrize("name", PUBLIC)
def test_a_public_module_binds_each_name_as_its_defining_module_does(name):
    module = import_module(f"steinkit.{name}")
    for home, names in PUBLIC[name].items():
        defining = import_module(f"steinkit.{home}")
        for attr in names:
            value = getattr(module, attr)
            assert value is getattr(defining, attr), (name, attr)
            if isinstance(value, type) or callable(value):
                assert value.__module__ == defining.__name__, (name, attr)
    assert "__getattr__" not in vars(module)  # nothing is bound on first read


@pytest.mark.parametrize("name", PUBLIC)
def test_a_fresh_import_binds_every_public_name(tmp_path, name):
    names = sorted({attr for names in PUBLIC[name].values() for attr in names})
    code = (
        f"import json, sys\nimport steinkit.{name} as m\n"
        f"missing = [n for n in {names!r} if n not in vars(m)]\n"
        "loaded = sorted(k[9:] for k in sys.modules if k.startswith('steinkit.'))\n"
        "print(json.dumps([missing, loaded]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(steinkit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    missing, loaded = json.loads(proc.stdout)
    assert missing == []
    assert set(loaded) == CLOSURES[name]
