"""Forward and inverse spectral maps for even-order operators whose periodic
coefficients are one-sided exponential series, plus the determinant criterion
that characterizes admissible spectral data.

The public names load on first use (PEP 562): ``import invspec`` imports
neither numpy nor any submodule, and ``invspec.forward_map`` imports
``invspec.forward`` the first time it is read.
"""

import importlib

_EXPORTS = {
    "core": ("Order", "PotentialCoefficients", "SpectralData", "VTable", "a_m_constant",
             "roots_of_unity"),
    "forward": ("forward_map", "q_from_p", "series_q"),
    "inverse": ("ContractionReport", "MomentReport", "contraction_conditions", "first_moment",
                "inverse_map", "v_from_s"),
    "analytic": ("jump_residual", "marchenko_residual", "ode_mode_residual", "q0_from_kernel",
                 "shift_spectral"),
    "fredholm": ("ScanReport", "scan_halfplane"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
