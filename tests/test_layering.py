"""Import layering of the package modules, read from their source with ast."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import multinets
from multinets.projective import rank_violations

PACKAGE = Path(multinets.__file__).parent


def package_imports(path):
    """Names of the multinets modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import ...
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "multinets":  # from . import x, y
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("multinets."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("multinets.")
            )
    return found


IMPORTS = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def test_every_module_parsed():
    assert {"projective", "congruences", "circular", "cli", "__init__"} <= set(IMPORTS)


def test_congruences_imports_only_errors_and_projective():
    assert IMPORTS["congruences"] <= {"errors", "projective"}


def test_projective_imports_only_errors():
    assert IMPORTS["projective"] <= {"errors"}


def test_no_module_imports_cli():
    assert [name for name, imports in IMPORTS.items() if "cli" in imports] == []


def test_no_tolerance_parameters():
    """Decisions compare against named module-level constants; no function
    takes a tolerance argument."""
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if names & {"tol", "rtol", "atol", "eps"}:
                    found.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert found == []


def small_floats(path):
    """The named thresholds and the stray literals of the module at path: a
    dict of the upper-case module-level names assigned a float in (0, 1e-2)
    to their values, and the lines of every other such float literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named, values = {}, set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.isupper()
            and isinstance(node.value, ast.Constant)
        ):
            named[node.targets[0].id] = node.value.value
            values.add(id(node.value))
    stray = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < node.value < 1e-2
        and id(node) not in values
    ]
    thresholds = {k: v for k, v in named.items() if type(v) is float and 0 < v < 1e-2}
    return thresholds, stray


THRESHOLDS = {path.stem: small_floats(path) for path in PACKAGE.glob("*.py")}


def test_every_small_float_literal_is_a_named_threshold():
    """A float below 1e-2 decides a verdict or an error; each one is the value
    of a module-level upper-case name, written nowhere else."""
    stray = [f"{name}:{line}" for name, (_, lines) in THRESHOLDS.items() for line in lines]
    assert stray == []


def test_no_threshold_is_named_in_two_modules():
    """A threshold that two modules use lives in projective, once."""
    owners = {}
    for name, (named, _) in THRESHOLDS.items():
        for constant in named:
            owners.setdefault(constant, []).append(name)
    assert {c: mods for c, mods in owners.items() if len(mods) > 1} == {}


def readme_tolerances():
    """(module, name, value) of the rows of the README's Tolerances table."""
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if line.startswith("| `") and len(cells) == 4:
            module, name = cells[0].strip("`").split(".")
            rows.append((module, name, float(cells[1].strip("`"))))
    return rows


def test_readme_tolerance_table_names_every_threshold_with_its_value():
    rows = readme_tolerances()
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"multinets.{module}"), name) == value
    named = {(module, c) for module, (consts, _) in THRESHOLDS.items() for c in consts}
    assert sorted((module, name) for module, name, _ in rows) == sorted(named)


def test_only_projective_spells_the_zero_threshold():
    """The absolute zero threshold is projective._ABS_EPS; other modules
    import it instead of repeating its value."""
    found = [
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.stem != "projective"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == 1e-13
    ]
    assert found == []


def memo_decorations(path):
    """(line, literal maxsize or None) of every functools.lru_cache / cache
    named in the module at path; None where maxsize is missing, None or not
    an integer literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"lru_cache", "cache"}
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in names
    }

    def memo_kind(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.attr in names and node.value.id == "functools" else None
        return aliases.get(node.id) if isinstance(node, ast.Name) else None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        kind = memo_kind(node)
        if kind is None:
            continue
        call = calls.get(id(node))
        size = None
        if call is not None and kind == "lru_cache":
            args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
            if args and isinstance(args[0], ast.Constant) and type(args[0].value) is int:
                size = args[0].value
        found.append((node.lineno, size))
    return found


MEMOS = {path.stem: memo_decorations(path) for path in PACKAGE.glob("*.py")}


def test_memos_have_a_finite_literal_maxsize():
    """An unbounded memo would grow with every distinct input and let the
    benchmark's peak RSS drift; each one names its bound."""
    unbounded = [f"{name}:{line}" for name, memos in MEMOS.items() for line, size in memos if size is None]
    assert unbounded == []


def test_qnets_holds_one_grid_memo_the_view():
    """The predicates of one grid share the stages of its view, memoized on
    the grid's shape and bytes; the strip-gauge memo it replaced is gone."""
    from multinets import qnets

    assert len(MEMOS["qnets"]) == 1
    assert qnets._view_of.cache_info().maxsize == 4
    assert not hasattr(qnets, "_gauge_of") and not hasattr(qnets, "_strip_gauge")


def test_only_projective_and_qnets_memoize():
    assert {name for name, memos in MEMOS.items() if memos} <= {"projective", "qnets"}
    assert MEMOS["projective"] and MEMOS["qnets"]


def dotted(node):
    """'np.linalg.eigh' for the expression np.linalg.eigh, None for an
    expression that is not a chain of names."""
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


CALLS = {
    path.stem: {
        dotted(node.func)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    }
    for path in PACKAGE.glob("*.py")
}


def callers(suffix):
    return {name for name, calls in CALLS.items() if any(c and c.endswith(suffix) for c in calls)}


def test_no_module_calls_eigh():
    """common_point_of_spans reads its direction off one SVD; symmetric
    eigen-decompositions stay in the signature classifier (eigvalsh)."""
    assert callers("linalg.eigh") == set()


def test_only_projective_enumerates_index_pairs():
    """Row and column pairs come from the memoized projective.index_pairs."""
    assert callers("triu_indices") == {"projective"}


def sites(path, match):
    """'module.function' of every node of the module at path that match
    accepts, named by its innermost enclosing function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def package_sites(match):
    return sorted(site for path in PACKAGE.glob("*.py") for site in sites(path, match))


def is_rank_rule(node):
    """A product RANK_RTOL * <subscript>, such as RANK_RTOL * s[..., :1]."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    operands = (node.left, node.right)
    return any(isinstance(a, ast.Name) and a.id == "RANK_RTOL" and isinstance(b, ast.Subscript)
               for a, b in (operands, operands[::-1]))


def is_svd_call(node):
    return isinstance(node, ast.Call) and (dotted(node.func) or "").endswith("linalg.svd")


def test_the_rank_rule_is_written_once():
    """Every numerical rank is decided by projective._kept on singular values
    sorted largest first, reached through projective.span_svd."""
    assert package_sites(is_rank_rule) == ["projective._kept"]


def test_outside_projective_only_a_solve_and_the_circle_order_call_the_svd():
    """Outside projective, the SVD serves only the least-squares solve and the
    plane of centred Euclidean points, which reads collinearity off _kept."""
    assert callers("linalg.svd") <= {"projective", "qnets", "circular"}
    outside = [site for site in package_sites(is_svd_call) if not site.startswith("projective.")]
    assert sorted(set(outside)) == ["circular._circle_order_embedded", "qnets._unit_lstsq"]


def is_loop(node):
    return isinstance(node, (ast.For, ast.AsyncFor, ast.While))


def is_comprehension(node):
    return isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))


# Functions that loop in Python, each sequential or ordered by design: a
# recurrence, orbit or transport step, a subdivision round, a redraw, a
# per-entry parse that names the bad entry, an ordered or fixed pair of
# checks, or ragged lines.  Everything else works on whole stacks.
LOOPS = {
    "circular.__post_init__",
    "circular._net_class",
    "cli._cmd_verify",
    "cli._gen_qqstar",
    "cli._gen_reflect",
    "cli._gen_rotational",
    "cli._gen_translation",
    "congruences.factor_congruence",
    "conical.parallel_conical_net",
    "errors.first_failure",
    "io_json.document_to_net",
    "projective._orbit",
    "projective._read_only",
    "projective.classify_spans",
    "qnets.build_qqstar_net",
    "qnets.from_two_strips",
    "quadric_nets.generate_by_reflections",
    "subdivision._q_patches",
    "subdivision.subdivide_circular",
}

# Samplers, fixtures and the helpers that build representatives: one array expression each.
STACKED = [
    "circular.sample_rotational",
    "circular.torus_point",
    "circular.torus_u_tangent",
    "circular.torus_v_tangent",
    "cli._torus_patch_data",
    "congruences.contact_element",
    "congruences.hyperboloid_ruling_grid",
    "congruences.lie_plane_rep",
    "congruences.lie_point_rep",
    "congruences.lie_sphere_rep",
    "congruences.pluecker_embed",
    "congruences.torus_contact_grid",
    "conical.sample_s2_rotational",
    "conical.sample_s2_stereographic",
]


def test_every_loop_is_on_the_allowlist():
    """A function that loops in Python is named in LOOPS, and every name
    there still loops, so the list shrinks as loops go."""
    assert set(package_sites(is_loop)) == LOOPS


def test_samplers_and_fixtures_have_no_loop_or_comprehension():
    functions = {
        f"{path.stem}.{node.name}": node
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    looping = [
        name for name in STACKED
        if any(is_loop(node) or is_comprehension(node) for node in ast.walk(functions[name]))
    ]
    assert looping == []


def calls_named(name):
    """A matcher of the calls of a function by its bare or dotted name."""
    return lambda node: isinstance(node, ast.Call) and (dotted(node.func) or "").split(".")[-1] == name


def test_only_above_rank3_calls_the_rank4_certificate():
    """Every batch of four-point stacks is decided by projective._above_rank3,
    the one caller of the volume certificate."""
    assert package_sites(calls_named("_rank4_certificate")) == ["projective._above_rank3"]


def test_rank_violations_takes_keys_and_four_point_stacks_only():
    assert list(inspect.signature(rank_violations).parameters) == ["keys", "stacks"]


def test_conical_reads_no_moebius_lift():
    """Conical nets are decided on their Blaschke points, and nets on S^2 on
    their rows (p, 1), so conical takes neither the Moebius lift nor the
    concyclicity tests from circular."""
    tree = ast.parse((PACKAGE / "conical.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & {"lift_net", "is_concyclic", "is_multi_circular", "_CORNER_PAIRS"} == set()


def test_the_classifiers_build_no_strip_gauge():
    """classify_multi_circular and classify_gauss read their Laplace vectors
    from the elementary stage of the grid view (qnets._strip_laplace_vectors),
    so neither circular nor conical imports translation_gauge."""
    for name in ("circular", "conical"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "_strip_laplace_vectors" in names and "translation_gauge" not in names


def test_each_rank_question_is_answered_once():
    """A circular subdivision round decides circularity from its own Laplace
    spheres, S^2 nets are decided and classified on their rows (p, 1), and
    the two-row ranks of lines, and the basis of each line of an
    IsoLineGrid, come from projective._pair_span."""
    from multinets import conical

    tree = ast.parse((PACKAGE / "subdivision.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "circular_violations" not in names
    assert not hasattr(conical, "_s2_lift")
    pair_span = set(package_sites(calls_named("_pair_span")))
    span_rank = set(package_sites(calls_named("span_rank")))
    for site in ("projective.meet_lines", "projective.__post_init__", "congruences.multi_congruence_violations",
                 "congruences.__post_init__"):
        assert site in pair_span and site not in span_rank
    assert "span_svd" not in CALLS["congruences"] and "congruences" not in callers("linalg.svd")


def is_frozen_dataclass(decorator):
    """True iff the decorator node reads @dataclass(frozen=True)."""
    return (
        isinstance(decorator, ast.Call)
        and getattr(decorator.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in decorator.keywords)
    )


def test_every_validating_dataclass_is_frozen():
    """A dataclass that validates its fields in __post_init__ is frozen, so
    it validates once, at construction, and no field is reassigned later."""
    validating, thawed = set(), []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body
            ):
                validating.add(node.name)
                if not any(is_frozen_dataclass(d) for d in node.decorator_list):
                    thawed.append(f"{path.stem}.{node.name}")
    assert {"PointNet", "PlaneNet", "EuclidNet", "IsoLineGrid", "CircArc", "ProjLine", "SphereFamilyPair"} <= validating
    assert thawed == []


def test_a_multi_conical_grid_costs_one_rank_mask(monkeypatch):
    """On multi-conical nets, _conical_violations decides every rectangle
    with one _above_rank3 call over the Blaschke stacks."""
    from conftest import multi_conical_nets
    from multinets import conical

    nets = multi_conical_nets()
    calls = []
    above_rank3 = conical._above_rank3

    def counting(stacks, *volumes):
        calls.append(stacks.shape[1:])
        return above_rank3(stacks, *volumes)

    monkeypatch.setattr(conical, "_above_rank3", counting)
    for pn in nets:
        for elementary in (False, True):
            calls.clear()
            assert conical._conical_violations(pn, elementary) == []
            assert calls == [(4, 5)]


def test_edge_polylines_solve_once_per_direction(monkeypatch):
    """_edge_polylines carries each axis seed across its rows of faces with
    one composed transport: one _unit_lstsq call per direction, whatever the
    number of faces, and no per-step transport."""
    import numpy as np

    from conftest import random_q_net
    from multinets import subdivision

    assert not hasattr(subdivision, "_transport")
    calls = []
    unit_lstsq = subdivision._unit_lstsq

    def counting(m, rhs):
        calls.append(m.shape)
        return unit_lstsq(m, rhs)

    monkeypatch.setattr(subdivision, "_unit_lstsq", counting)
    net = random_q_net(np.random.default_rng(8), 5, 7)
    subdivision.attach_edge_polylines(net, (3, 2))
    assert calls == [(4, 1, 4, 2), (6, 1, 4, 2)]


def test_a_circular_round_inverts_edges_once_per_direction(monkeypatch):
    """A circular round carries the row-0 and column-0 seed samples across all
    faces with one _invert_edges call per direction, whatever the number of
    faces, and no per-step transport."""
    import numpy as np

    from multinets import subdivision
    from test_subdivision import torus_net, torus_seed_arcs

    calls = []
    invert_edges = subdivision._invert_edges

    def counting(samples, mirrors):
        calls.append(mirrors.shape)
        return invert_edges(samples, mirrors)

    monkeypatch.setattr(subdivision, "_invert_edges", counting)
    for nu, nv in ((2, 2), (4, 7), (9, 5)):
        calls.clear()
        us, vs = np.linspace(0.2, 2.0, nu), np.linspace(-0.6, 1.2, nv)
        subdivision.subdivide_circular(torus_net(us, vs), 2, *torus_seed_arcs(us, vs))
        assert calls == [(nu - 1, nv - 1, 5), (nv - 1, nu - 1, 5)]


def test_arcs_are_fitted_and_checked_at_the_boundary_only(monkeypatch):
    """A circular subdivision carries samples, not arcs: the three-point fit
    serves arc_through_points alone (CircArc.transform maps the tangent by
    the inversion's differential), and only the row-0 and column-0 seed
    splines are checked for tangent continuity, once whatever the number of
    rounds, since inversions keep it (README, Circular subdivision)."""
    import numpy as np

    from multinets import subdivision
    from test_subdivision import torus_net, torus_seed_arcs

    assert list(inspect.signature(subdivision._invert_edges).parameters) == ["samples", "mirrors"]
    assert package_sites(calls_named("_arcs_through")) == ["subdivision.arc_through_points"]
    assert package_sites(calls_named("_check_spline_c1")) == ["subdivision.subdivide_circular"] * 2
    checked = []
    check_spline_c1 = subdivision._check_spline_c1

    def counting(spline, name):
        checked.append((name, spline.shape))
        return check_spline_c1(spline, name)

    monkeypatch.setattr(subdivision, "_check_spline_c1", counting)
    us, vs = np.linspace(0.2, 2.0, 4), np.linspace(-0.6, 1.2, 3)
    subdivision.subdivide_circular(torus_net(us, vs), 2, *torus_seed_arcs(us, vs), rounds=2)
    assert checked == [("row-0 spline", (3, 3, 3)), ("column-0 spline", (2, 3, 3))]
