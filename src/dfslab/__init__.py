"""Numerical workbench for protected subspaces of finite operator algebras.

Modules:
    opcore     operators, subspace bases, tensor factors, kernels, commutants
    states     density matrices, expectations, two-point encodings, fidelity
    spectral   spectral triples and the metric distance solver
    symmetry   finite group closure, averaging, invariant subalgebras
    fock       truncated Fock spaces, oscillator and string-register models
    dynamics   exact evolution and the coherence experiment
    duality    integer coupling transformations, charge lattices, normal modes
    nctorus    flux matrices, clock-shift pairs, Landau levels
    cli        the dfs-lab command line front end
"""

from .errors import (
    BudgetError,
    DfsLabError,
    DomainError,
    NonClosureError,
    ShapeError,
    UnsupportedFluxError,
    UsageError,
)
from .opcore import (
    DIM_BUDGET,
    KroneckerSum,
    Operator,
    SubspaceBasis,
    commutant_basis,
    commutator,
    eig_hermitian,
    kernel_basis,
    operator_norm,
    tensor,
    tensor_sum,
    unitary_exp,
)
from .states import (
    DensityMatrix,
    StateFunctional,
    encode_two_point,
    expectation,
    fidelity,
    partial_trace,
    pure_state,
)
from .spectral import (
    DistanceResult,
    SpectralTriple,
    connes_distance,
    make_diagonal_triple,
    make_two_point_triple,
)
from .symmetry import (
    GroupRep,
    InvariantProjector,
    close_group,
    invariant_projector,
    invariant_subalgebra,
    joint_kernel,
    symmetrize_operator,
)
from .duality import (
    CHARGE_BUDGET,
    Background,
    ONNElement,
    basis_change,
    charge_box,
    charge_matrix,
    coupling_shift,
    coupling_swap,
    dual_metric,
    factorized_inversion,
    max_energy_shift,
    narain_energies,
    normal_modes,
    onn_apply,
    onn_generators,
    pairing_matrix,
    transform_charge_stack,
)
from .fock import (
    CliffordPair,
    DecoherenceModel,
    DiracOperator,
    DiracSplit,
    FockSpace,
    StringModel,
    build_decoherence_model,
    build_string_model,
    clifford_pair,
    dfs_from_dirac,
    duality_substitution,
    env_vacuum_projector,
    hw_mode,
    interior_indices,
    ladder,
    parity_generators,
    position_momentum,
)
from .dynamics import Trajectory, coherence_experiment, evolve
from .nctorus import (
    FluxMatrix,
    MagneticRep,
    antisymmetrize_coupling,
    clock_shift_rep,
    landau_hamiltonian,
    weyl_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
