"""Generating pairs of finite groups: Nielsen orbits, trace invariants,
and lifting to free products of cyclic groups."""

from .field import GF, field_for_q, make_field
from .fpgroups import (
    Presentation,
    abelianization,
    parse_presentation,
    smith_normal_form,
    todd_coxeter,
)
from .groupcore import (
    FiniteGroup,
    build_dihedral,
    build_psl2,
    build_sl2,
    generates,
)
from .matrices import Mat2, trace_invariant
from .nielsen import (
    OrbitDecomposition,
    aut_orbit_decomposition,
    decompose_nielsen_orbits,
    is_mn_generated,
    joint_orbit_decomposition,
    trace_spectrum,
)
from .verify import TOOL_VERSION as __version__, ClaimReport, verify_all

__all__ = [
    "GF",
    "field_for_q",
    "make_field",
    "Mat2",
    "trace_invariant",
    "FiniteGroup",
    "build_sl2",
    "build_psl2",
    "build_dihedral",
    "generates",
    "is_mn_generated",
    "OrbitDecomposition",
    "decompose_nielsen_orbits",
    "aut_orbit_decomposition",
    "joint_orbit_decomposition",
    "trace_spectrum",
    "Presentation",
    "parse_presentation",
    "todd_coxeter",
    "smith_normal_form",
    "abelianization",
    "ClaimReport",
    "verify_all",
    "__version__",
]
