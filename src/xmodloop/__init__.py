"""Exact computation of free-loop-space homotopy 2-types of finite crossed modules."""

from .errors import Violation, XModError
from .groups import (
    FiniteGroup,
    GroupAction,
    Homomorphism,
    Subgroup,
    are_isomorphic,
    centralizer,
    conjugacy_classes,
    displacement_subgroup,
    group_action,
    homomorphism,
    image,
    kernel,
    make_group,
    quotient,
    semidirect_product,
    subgroup,
    subgroup_generated,
    trivial_action,
)
from .xmod import (
    CrossedModule,
    HomotopyData,
    XModCandidate,
    check_axioms,
    homotopy,
    make_xmod,
    xmod_from_candidate,
)
from .groupoids import (
    FiniteGroupoid,
    GroupoidXMod,
    GXModMorphism,
    action_groupoid,
    as_groupoid_xmod,
    is_fibration,
    make_gxm,
    make_gxm_morphism,
    pi0,
    pi1_at,
    pi2_at,
    vertex_group,
)
from .nerve import (
    Simplex2,
    Simplex3,
    is_simplex2,
    is_simplex3,
    k2_count_formula,
    k3_count,
    nerve_k2,
    nerve_k3,
)
from .loop import (
    LoopData,
    components,
    loop_data,
    loop_gpd_xmod,
    loop_xmod_at,
    pi_loop,
    theta,
)
from .exactseq import (
    ExactSequence,
    FibrationData,
    coinvariants,
    exact_sequence,
    example1_check,
    example2_check,
    fibration_psi,
    fixed_points,
)
from .documents import (
    build_xmod,
    load_document,
    parse_xmod,
    serialize_document,
    serialize_xmod,
)

__version__ = "0.1.0"
