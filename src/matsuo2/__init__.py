"""Fischer spaces and nilpotent Matsuo algebras over fields of characteristic 2.

The package builds finite Fischer spaces (from geometry, from 3-transposition
group data, or from files; `load_space` resolves a catalog name, a `.fischer`
file or a `.gens` file), constructs their nilpotent Matsuo algebras over
GF(2), decomposes them along line nilpotents, computes fusion laws and
Z/2Z-grading verdicts, and for the complete quadrilateral computes Miyamoto
groups over GF(2^k) and full automorphism groups by exhaustive enumeration.
"""

from .gf import Field, FieldMatrix
from .fischer import (
    FischerSpace,
    InvalidSpaceError,
    PlaneType,
    catalog,
    CATALOG_NAMES,
    generated_subspace,
    is_symplectic_type,
    load_space,
    plane_type,
    points_p0_p2,
    save_space,
    validate,
    wedge,
)
from .transposition import (
    AffineMat,
    AffinePerm,
    Permutation,
    TranspositionClass,
    conjugacy_class,
    fischer_from_class,
    preset,
    product_order,
)
from .matsuo import (
    NilpotentMatsuoAlgebra,
    ad_matrix,
    annihilator,
    build,
    line_nilpotent,
    multiply,
    predict_line_row,
    predict_point_row,
    reduce,
)
from .decomp import (
    FusionTable,
    GradingVerdict,
    LineDecomposition,
    classify_space,
    cq_pair_case,
    decompose_line,
    fusion_table,
    is_z2_graded,
    strong_law,
    symplectic_structured_basis,
)
from .miyamoto import (
    MatrixGroup,
    aut_count_full,
    aut_enumerate_reduced,
    group_closure,
    miyamoto_map,
    s_matrix,
    verify_cq_miyamoto,
)
from .verify import run_suite

__version__ = "0.1.0"
