"""The package's public surface: a change that grows or shrinks it edits this list."""

import types

import catomo

PUBLIC = {
    # states
    "CatState", "NoiseModel", "WITNESS_PAIRING", "incoherent_witness_mean",
    "noisy_quadrature_density", "pure_witness_mean", "quadrature_density", "wigner_fourier",
    "wigner_true", "witness_phase_fn",
    # sampling
    "QuadratureBatch", "generate_batch", "read_batch", "write_batch",
    # estimator
    "BinnedBatch", "KernelTable", "ReconstructionParams", "WignerGrid", "estimate_at_points",
    "estimator_mean_oracle", "grid_to_csv", "kernel", "mean_grid", "optimal_bandwidth",
    "read_grid", "reconstruct_exact", "reconstruct_fast", "write_grid",
    # analysis
    "WitnessStats", "delta_terms", "error_upper_bound", "l2_error",
    "mean_square_error", "sweep_beta", "sweep_terms_csv", "witness_mean_from_grid",
    "witness_mean_oracle", "witness_stats",
}


def test_public_names_are_pinned():
    # submodules become attributes once imported, which depends on test order
    exported = {name for name, value in vars(catomo).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
