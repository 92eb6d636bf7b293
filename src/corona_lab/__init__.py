"""Finite-horizon laboratory for torus pseudometrics, coherent trees,
block-operator stratification, approximate units, and derived limits of
towers of finitely generated abelian groups."""

from .errors import (
    ConstructionError,
    CoronaLabError,
    HorizonTooSmall,
    IndexOutOfRange,
    InvalidSes,
    PreconditionViolation,
    TruncationExceeded,
    WitnessNotFound,
)
from .limits import (
    AbGroupPresentation,
    SesTower,
    Tower,
    build_paper_model,
    constant_tower,
    cyclic_group,
    flasque_check,
    free_group,
    lim1_tower,
    lim_tower,
    six_term_check,
    smith_normal_form,
)
from .operators import (
    BlockStructure,
    DDWitness,
    ad_sandwich,
    dd_check,
    load_matrix,
    op_norm,
    stratify,
    stratify_against,
)
from .partitions import (
    FxProfile,
    SparseSet,
    fx_profile,
    n_of,
)
from .torus import (
    TorusElement,
    constant_one,
    delta_one,
    delta_set,
    fuzz_lij,
)
from .tree import (
    Chain,
    CoherenceTree,
    build_tree,
    generate_chain,
    jump_schedule,
    limit_stage,
    min_sufficient_horizon,
    successor_witness,
)
from .weak_units import (
    PositiveUnit,
    build_tent_unit,
    epsilon_witness,
    hyp_check,
    power_gap,
    projection_unit,
    quasi_unitary_residual,
    tensor_unit,
    weak_sandwich,
)

__version__ = "0.1.0"
