"""The package namespace resolves its names on first access, and each CLI
stage loads only the modules its command uses."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multinets

SRC = Path(multinets.__file__).parents[1]

# The names the package has always re-exported, by the module that defines them.
EXPORTS = {
    "circular": [
        "Classification", "EuclidNet", "NetClass", "SphereFamilyPair", "check_embedded",
        "classify_multi_circular", "drop_net", "generate_multi_circular", "invert_net",
        "invert_point", "is_circular_net", "is_concyclic", "is_discrete_isothermic",
        "is_multi_circular", "lift_net", "sample_canonical", "sample_cone", "sample_cylinder",
        "sample_rotational", "strip_sphere",
    ],
    "congruences": [
        "CongruenceClass", "IsoLineGrid", "classify_congruence", "factor_congruence",
        "from_generators", "hyperboloid_ruling_grid", "is_multi_congruence", "lines_intersect",
        "pluecker_embed", "torus_contact_grid",
    ],
    "conical": [
        "GaussClass", "classify_gauss", "gauss_map", "is_conical_quad", "is_multi_conical",
        "parallel_conical_net", "polarize_spherical",
    ],
    "errors": ["GeometryError"],
    "io_json": ["export_obj", "read_net", "write_net"],
    "projective": [
        "INF", "LIE", "MOEBIUS", "MOEBIUS_S2", "PLUECKER", "ProjLine", "QuadricForm",
        "bilinear_eval", "meet_lines", "moebius_drop", "moebius_lift", "normalize", "plane_rep",
        "polar_reflect", "proj_equal", "span_rank", "sphere_rep",
    ],
    "qnets": [
        "LaplaceData", "PlaneNet", "PointNet", "build_qqstar_net", "check_planar_parameter_lines",
        "from_cauchy_homogeneous", "from_translation", "from_two_strips", "is_multi_q_net",
        "is_multi_qstar", "is_q_net", "laplace_data", "laplace_transforms",
    ],
    "quadric_nets": ["generate_by_reflections", "verify_polar_laplace"],
    "subdivision": [
        "CircArc", "EdgePolylines", "adapted_cyclide_patch", "adapted_q_patch",
        "attach_edge_polylines", "subdivide_circular", "subdivide_q",
    ],
}
PUBLIC = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]


def fresh_python(code, *args, cwd=None):
    """stdout and stderr of a fresh interpreter that runs code with the
    package sources first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_exported_name_is_its_modules_object(module, name):
    from importlib import import_module

    assert getattr(multinets, name) is getattr(import_module(f"multinets.{module}"), name)


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_submodule_is_an_attribute(module):
    assert getattr(multinets, module) is sys.modules[f"multinets.{module}"]


def test_all_and_dir_list_every_public_name():
    assert sorted(multinets.__all__) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(multinets))
    assert "__version__" in dir(multinets)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'multinets' has no attribute 'no_such_name'"):
        multinets.no_such_name  # noqa: B018
    assert not hasattr(multinets, "rank_violations")  # projective's, but not re-exported


def test_import_multinets_loads_no_submodule():
    out, _ = fresh_python(
        "import sys, multinets\n"
        "print(sorted(m for m in sys.modules if m.startswith('multinets.')))"
    )
    assert out == "[]\n"


def test_first_access_loads_the_defining_module_and_what_it_imports():
    out, _ = fresh_python(
        "import sys, multinets\n"
        "multinets.classify_congruence\n"
        "print(sorted(m for m in sys.modules if m.startswith('multinets.')))"
    )
    assert out == "['multinets.congruences', 'multinets.errors', 'multinets.projective']\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from multinets import *", namespace)
    assert set(PUBLIC) <= set(namespace)


# Runs ``python -m multinets.cli ARGS`` as the -m switch does and reports on
# stderr, last, the package modules loaded when the command has ended.
RUN_STAGE = """\
import runpy, sys
sys.argv = ["multinets", *sys.argv[1:]]
try:
    runpy.run_module("multinets.cli", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(m for m in sys.modules if m.startswith("multinets.")), file=sys.stderr)
"""


def readme_startup_rows():
    """(CLI arguments, module names) of the rows of the README's start-up table."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("### Start-up", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 2:
            rows.append((cells[0].strip("`").split(), re.findall(r"`(\w+)`", cells[1])))
    return rows


def test_each_benchmark_stage_loads_the_modules_the_readme_states(tmp_path):
    """The nine stages of the benchmark's CLI chains, in chain order, each in
    a fresh interpreter."""
    rows = readme_startup_rows()
    assert [args[:2] for args, _ in rows] == [
        ["gen", "translation"], ["verify", "multi-q"],
        ["gen", "rotational"], ["classify", "circular"],
        ["gen", "translation"], ["subdivide", "--scheme"], ["export", "--format"],
        ["gen", "congruence"], ["classify", "congruence"],
    ]
    for args, modules in rows:
        _, err = fresh_python(RUN_STAGE, *args, cwd=tmp_path)
        loaded = err.splitlines()[-1].split()
        assert loaded == sorted(f"multinets.{m}" for m in modules), args
