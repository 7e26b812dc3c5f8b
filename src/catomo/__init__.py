"""Homodyne tomography of coherent-state superpositions at low detection efficiency.

The package simulates noisy homodyne quadrature data for an even cat state,
reconstructs its Wigner function with a frequency-truncated deconvolution
kernel, and quantifies the reconstruction through closed-form error bounds
and an interference witness that distinguishes the superposition from any
incoherent mixture.
"""

from .states import (
    CatState,
    NoiseModel,
    WITNESS_PAIRING,
    amplitude_across,
    amplitude_along,
    incoherent_witness_mean,
    noisy_quadrature_density,
    pure_witness_mean,
    quadrature_density,
    radon_oracle,
    wigner_fourier,
    wigner_true,
    witness_phase_fn,
)
from .sampling import (
    QuadratureBatch,
    add_detection_noise,
    batch_to_csv,
    generate_batch,
    read_batch,
    sample_ideal_quadrature,
    sample_phase,
    write_batch,
)
from .estimator import (
    KernelTable,
    ReconstructionParams,
    WignerGrid,
    estimate_at_points,
    estimator_mean_oracle,
    gamma_of,
    grid_to_csv,
    kernel,
    mean_grid,
    optimal_bandwidth,
    read_grid,
    reconstruct_exact,
    reconstruct_fast,
    write_grid,
)
from .analysis import (
    ErrorReport,
    WitnessStats,
    delta_terms,
    error_upper_bound,
    l2_error,
    mean_square_error,
    sweep_beta,
    sweep_terms_csv,
    witness_mean_from_grid,
    witness_mean_oracle,
    witness_stats,
)

__version__ = "0.1.0"
