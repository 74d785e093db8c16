"""Excitation spectra, skin-effect diagnostics and SSH topology of bosonic Kitaev-type chains."""

from .model import (
    BKCParams,
    BoundaryCondition,
    ExcitationMatrix,
    ModBKCParams,
    QuadraticForm,
    SiteFields,
    bloch_matrix,
    build_bkc_excitation_direct,
    build_bkc_quadratic,
    build_modbkc_excitation_direct,
    build_modbkc_quadratic,
    excitation_matrix,
)
from .spectral import (
    Spectrum,
    bkc_pbc_dispersion,
    eigendecompose,
    modbkc_spectrum_zero_omega,
    solve,
    spectrum_distance,
    spectrum_via_similarity,
    zero_gap,
)
from .transform import (
    EffectiveSSHParams,
    SimilarityMatrix,
    SingularTransformError,
    a1_prime,
    a2_prime,
    a_combined,
    effective_ssh_matrix,
    effective_ssh_params,
    hatano_nelson_A,
    hatano_nelson_target,
    ssh_lift_target,
    transform_residual,
)
from .topology import (
    AxisSpec,
    PhaseDiagram,
    WindingResult,
    edge_mode_count,
    gap_closing_predicates,
    h_pm,
    phase_scan,
    winding_analytic,
    winding_numeric,
    zero_modes,
)
from .skin import SpatialProfile, edge_weight, mean_position, nhse_fraction, profile_matrix, spatial_profile
from .disorder import DisorderSpec, EnsembleResult, ensemble_observables, sample_site_fields
from .floquet import DriveSpec, EffectiveParams, averaged_phase, bessel_j0, chi, delta_omega, effective_params

__version__ = "0.1.0"
