"""Spectral laboratory for a gauged derivative Schroedinger equation on the torus."""

from types import ModuleType as _ModuleType

from .fields import (
    Trajectory,
    bracket,
    bump,
    constant_field,
    derivative,
    free_phase,
    from_physical,
    mean_value,
    physical_product,
    plane_wave,
    random_field,
    random_trajectory,
    to_physical,
)
from .gauge import (
    gauge_field,
    gauge_field_inv,
    mass_primitive,
    translate,
    translation_gap_probe,
)
from .nonlinear import (
    cubic_diagonal,
    cubic_full,
    cubic_restricted,
    cubic_trilinear,
    dnls_forcing,
    mean_shifted_cubic,
    mean_shifted_cubic_spectral,
    product_restricted,
    quintic_physical,
    quintic_restricted,
    resonance_identity,
)
from .norms import (
    INF,
    NormSpec,
    data_norms,
    xst_norm,
    z_specs,
)
from .reports import (
    ScanReport,
    __version__,
    load_field,
    load_trajectory,
    save_field,
    save_trajectory,
)
from .solver import (
    Equation,
    SolveConfig,
    SolveReport,
    duhamel,
    integral_residual,
    picard_solve,
    plane_wave_solution,
    rk4_solve,
    solve_via_gauge,
)
from .estimates import (
    cubic_ratio_scan,
    divergence_report,
    divisor_pair_count,
    endpoint_injection_report,
    near_diagonal_pair_count,
    near_diagonal_scan,
    quintic_ratio_scan,
    resonance_sum_scan,
    resonance_weighted_sum,
    strichartz_ratio_scan,
)

# the submodules are attributes of the package, not names of its API
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
