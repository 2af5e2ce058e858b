"""Forward and inverse spectral maps for even-order operators whose periodic
coefficients are one-sided exponential series, plus the determinant criterion
that characterizes admissible spectral data."""

from .core import (AmReport, Order, PotentialCoefficients, SpectralData, VTable, a_m_constant,
                   k_pole, pole, roots_of_unity, vandermonde_det)
from .forward import diag_solve, forward_map, left_factor, offdiag_step, q_from_p, series_q
from .inverse import (ContractionReport, MomentReport, contraction_conditions, first_moment,
                      inverse_map, p_from_v, v_from_s)
from .analytic import (ExpSum, JumpCheck, eval_f, eval_phi, jump_relation_check, kernel_K,
                       marchenko_residual, ode_residual, ode_residual_scale, q0_from_kernel,
                       shift_spectral, transform_lhs, transition, transition_m1)
from .fredholm import (DeterminantReport, ScanReport, det_truncated, f_matrix, scan_halfplane,
                       solve_system)

__all__ = [
    "AmReport", "ContractionReport", "DeterminantReport", "ExpSum", "JumpCheck", "MomentReport",
    "Order", "PotentialCoefficients", "ScanReport", "SpectralData", "VTable", "a_m_constant",
    "contraction_conditions", "det_truncated", "diag_solve", "eval_f", "eval_phi", "f_matrix",
    "first_moment", "forward_map", "inverse_map", "jump_relation_check", "k_pole", "kernel_K",
    "left_factor", "marchenko_residual", "ode_residual", "ode_residual_scale", "offdiag_step",
    "p_from_v", "pole", "q0_from_kernel", "q_from_p", "roots_of_unity", "scan_halfplane",
    "series_q", "shift_spectral", "solve_system", "transform_lhs", "transition", "transition_m1",
    "v_from_s", "vandermonde_det",
]

__version__ = "0.1.0"
