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
    incoherent_witness_mean,
    noisy_quadrature_density,
    pure_witness_mean,
    quadrature_density,
    wigner_fourier,
    wigner_true,
    witness_phase_fn,
)
from .sampling import (
    QuadratureBatch,
    generate_batch,
    read_batch,
    write_batch,
)
from .estimator import (
    BinnedBatch,
    KernelTable,
    ReconstructionParams,
    WignerGrid,
    estimate_at_points,
    estimator_mean_oracle,
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
