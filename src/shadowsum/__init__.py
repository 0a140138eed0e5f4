"""Shadow state sums and torus-gauge loop observables for colored links in
S^2 x S^1, with independent evaluation routes that cross-check each other."""

from .errors import (
    ColorOutOfRange,
    DegenerateGeometry,
    HasDoublePoints,
    HasVertices,
    InvariantViolation,
    MissingGleams,
    NonTransverse,
    NotNullHomologous,
    OffsetTooLarge,
    ParseError,
    PointOnCurve,
    PreconditionError,
    ShadowsumError,
    TangentialCrossing,
    UnsupportedColor,
)
from .evaluators import wlo_abelian, wlo_abelian_intermediate, wlo_vertical
from .files import dumps_link, dumps_shadow, load_link, load_shadow, loads_link, loads_shadow
from .geometry import (
    AdmissibilityReport,
    CrossingMark,
    DoublePoint,
    FaceComplex,
    Link,
    Loop,
    admissible_at,
    crossing_marks,
    face_complex,
    gleams_dpfree,
    ind,
    make_loop,
    validate,
    winding_s1,
)
from .linking import crossings_between, link_number, lk, pushoff, self_link
from .quantum import Level, sixj, triple_admissible, u_exponent, v_dim
from .shadow import (
    AdmissiblePair,
    BijectionReport,
    Shadow,
    ShadowEdge,
    ShadowFace,
    ShadowVertex,
    check_bijection,
    coloring_of_pair,
    enumerate_colorings,
    enumerate_pairs,
    shadow_from_dpfree,
    state_sum_dpfree,
    state_sum_general,
    wlo_dpfree_final,
    wlo_dpfree_pairsum,
)

__version__ = "0.1.0"
