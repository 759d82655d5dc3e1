"""Discrete multi-nets: planar-quad, circular and conical nets, isotropic
line congruences, and structure-preserving interpolatory subdivision.

``import multinets`` loads no submodule.  A name below resolves on first
access (PEP 562): ``multinets.subdivide_q`` imports ``multinets.subdivision``
and what it imports, then stays bound in this namespace."""

from importlib import import_module

# module -> the names this package re-exports from it
_EXPORTS = {
    "circular": """Classification EuclidNet NetClass SphereFamilyPair check_embedded
        classify_multi_circular drop_net generate_multi_circular invert_net invert_point
        is_circular_net is_concyclic is_discrete_isothermic is_multi_circular lift_net
        sample_canonical sample_cone sample_cylinder sample_rotational strip_sphere""",
    "congruences": """CongruenceClass IsoLineGrid classify_congruence factor_congruence
        from_generators hyperboloid_ruling_grid is_multi_congruence lines_intersect
        pluecker_embed torus_contact_grid""",
    "conical": """GaussClass classify_gauss gauss_map is_conical_quad is_multi_conical
        parallel_conical_net polarize_spherical""",
    "errors": "GeometryError",
    "io_json": "export_obj read_net write_net",
    "projective": """INF LIE MOEBIUS MOEBIUS_S2 PLUECKER ProjLine QuadricForm bilinear_eval
        meet_lines moebius_drop moebius_lift normalize plane_rep polar_reflect proj_equal
        span_rank sphere_rep""",
    "qnets": """LaplaceData PlaneNet PointNet build_qqstar_net check_planar_parameter_lines
        from_cauchy_homogeneous from_translation from_two_strips is_multi_q_net is_multi_qstar
        is_q_net laplace_data laplace_transforms""",
    "quadric_nets": "generate_by_reflections verify_polar_laplace",
    "subdivision": """CircArc EdgePolylines adapted_cyclide_patch adapted_q_patch
        attach_edge_polylines subdivide_circular subdivide_q""",
}

# public name -> the submodule that defines it; a submodule's own name maps to itself
_MODULE_OF = {
    **{module: module for module in _EXPORTS},
    **{name: module for module, names in _EXPORTS.items() for name in names.split()},
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
