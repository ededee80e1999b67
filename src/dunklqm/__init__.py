"""dunklqm: exact and numerical verification toolkit for one-dimensional
supersymmetric quantum mechanics with reflection (Dunkl-type) operators.

The package constructs the little -1 Jacobi and generalized Gegenbauer
polynomial families from their defining eigenvalue equations and moment
functionals in exact rational arithmetic, realizes the extended Scarf I
supercharge and Hamiltonian in both the analytic and the gauged polynomial
pictures, cross-checks every commonly printed closed form against
independent oracles (exact algebra, quadrature, finite-difference spectra),
and emits a machine-readable errata report of the discrepancies it finds.
"""

from .exact import (
    DomainError,
    NonTerminatingError,
    SeriesDivisionByZero,
    beta_num,
    hyp2f1,
    hyp3f2,
    pochhammer,
    rat,
)
from .opalg import (
    DegenerateSpectrumError,
    DegreeOverflowError,
    Diff,
    FamilyReport,
    MulPoly,
    OddOverY,
    OrthogonalFamily,
    Poly,
    Reflect,
    ReflOp,
    compose,
    construct_eigen,
    dunkl,
    gram_sequence,
    inner,
    matrix_on_basis,
    verify_family,
)
from .jacobi import (
    Jacobi1Params,
    construct_explicit,
    eigenvalue,
    lop,
    norm_sq_closed,
)
from .gegenbauer import (
    GegParams,
    HermiteParams,
    csm_two_particle_check,
    eigenvalue_geg,
    geg_potentials,
    lop_geg,
)
from .susyqm import (
    ScarfParams,
    SusyPotential,
    gauged_supercharge,
    ground_state,
    intertwiner,
    osc_energy,
    osc_gauged_hamiltonian,
    osc_gauged_supercharge,
    osc_wavefunction,
    oscillator_potential,
    scarf_energy,
    scarf_potential,
    verify_operator_relations,
    verify_oscillator,
)
from .grid import (
    Grid,
    GridOperator,
    SpectrumReport,
    assemble,
    convergence_study,
    eigen_lowest,
    quadrature,
)
from .errata import build_errata, errata_json

__version__ = "0.1.0"
