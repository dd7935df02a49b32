"""jetlag: higher-order Lagrangians as text, first-order energy families,
implicit dynamics, and Hamilton-Jacobi verification."""

from .calculus import diff, expand, time_derivative, total_time_derivative
from .dynamics import (
    ImplicitSystem,
    Trajectory,
    assemble,
    energy_drift,
    integrate_rk4,
    resolve_multipliers,
    trajectory_csv,
)
from .expr import Expr, eval_expr, simplify, substitute
from .families import MorseFamily
from .hamjac import (
    AffineSolution,
    ClosedOneForm,
    ResidualReport,
    SectionSigma,
    affine_hj_solve,
    affine_integrability_check,
    affine_symmetry_check,
    gamma_relatedness,
    hj_residual,
    hj_residual_nondeg,
    lift_trajectory,
    local_vf_residual,
    morse_rank_check,
)
from .ostro import (
    LagrangianSpec,
    euler_lagrange,
    explicit_hamiltonian,
    nondegeneracy,
    ostro_energy,
    ostro_momenta,
)
from .parser import parse
from .printer import to_text
from .sampling import equal_numeric
from .schmidt import (
    GaugeFunction,
    SchmidtSystem,
    chi_check,
    degenerate_second_extend,
    gauge_extend_second,
    ostro_schmidt_pullback_check,
    schmidt_hamiltonian,
    schmidt_morse_family,
    solve_F_quadratic,
    third_order_extend,
)
from .symbols import Kind, Symbol

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
