"""Symmetric and symplectic lattice toolkit.

Constructs circulant-, XOR-patterned- and K-symmetric lattice families,
verifies their symmetries with exact integral change-of-basis witnesses,
enumerates short vectors exactly, and runs the desk-scale mean-value
experiments behind the lower-bound formulas.
"""

__version__ = "0.1.0"

# Kept because the benchmark's env record reads them; there is no jit backend.
JIT_ENABLED = NUMBA_AVAILABLE = False

from . import errors
from .barneswall import (
    SymmetryPatternReport,
    bw_complex,
    bw_lattice,
    bw_prime,
    is_unimodular_lattice,
    modularity_scan,
    realify,
    symmetry_pattern,
)
from .groups import (
    MatrixGroup,
    cyclic_shift,
    group_closure,
    j_generator,
    j_matrix,
    k_matrix,
    k_prime,
)
from .lattice import (
    Lattice,
    ShortVectorReport,
    enumerate_short,
    from_basis,
    hermite_invariant,
    lattice_det,
    lll_reduce,
    orbit_histogram,
    scale_to_unit_det,
    systole,
)
from .linalg import (
    det_int,
    inverse,
    is_orthogonal,
    is_unimodular,
    kron_pow,
    round_to_int,
    sqrt_spd,
    sym_eig,
)
from .meanvalue import (
    BoundValues,
    MeanValueEstimate,
    MultiplicityReport,
    SearchResult,
    ball_volume_limit,
    bounds,
    estimate_I,
    limit_sweep,
    multiplicity_check,
    witness_search,
)
from .patterned import (
    KSymParams,
    a2n_eigenvalues,
    a2n_from_row,
    circulant_from_row,
    is_circulant,
    is_in_a2n,
    k_symmetric_from_params,
    ksym_param_count,
    ksym_region,
    walsh_matrix,
)
from .symmetry import SymmetryWitness, count_symmetries, induced_change_of_basis
from .symplectic import (
    SiegelPoint,
    a2n_family_point,
    is_symplectic,
    k_family_point,
    p_z,
    sample_vcube,
    siegel_point,
    verify_kprime,
    verify_a2n_symmetries,
)
