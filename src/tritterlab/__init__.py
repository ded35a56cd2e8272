"""Post-selected multipartite entanglement at multiport beam splitters.

Simulation of independent photons interfering at a balanced multiport
splitter, recipes for the tripartite entangled states reachable by
post-selecting one photon per output port, and the accompanying analysis
chain: splitter calibration, coincidence-dip visibilities, state tomography
with Monte-Carlo error bars, and entanglement witnesses.
"""

__version__ = "0.4.0"

from .calibration import (
    DipScan,
    GaussianFit,
    IntensityTable,
    fit_gaussian,
    hom_scan,
    insertion_loss_db,
    interferometer_from_magnitudes,
    sinkhorn_magnitudes,
    visibility,
)
from .interference import (
    Interferometer,
    InternalState,
    InputConfiguration,
    PostSelectionResult,
    fourier_unitary,
    matrix_from_pairs,
    matrix_to_pairs,
    output_distribution,
    pair_coincidence_probability,
    permanent,
    postselect_coincidence,
    spectral_vectors_from_gram,
)
from .states import (
    GENERATED_KINDS,
    GHZ_CLASS_THRESHOLD,
    GENUINE_OVERLAP_THRESHOLD,
    Recipe,
    StateKind,
    W_FIDELITY_THRESHOLD,
    WitnessReport,
    apply_local_unitary,
    canonical_state,
    dominant_eigenvector,
    fidelity,
    local_transform,
    phase_normalized,
    purity,
    recipe,
    state_overlap,
    witness_report,
)
from .tomography import (
    CountsTable,
    MonteCarloResult,
    ReconstructionResult,
    born_probabilities,
    measurement_settings,
    monte_carlo_uncertainty,
    reconstruct_mle,
    simulate_counts,
)
from .validation import ConfigError, ConvergenceError, ValidationError

__all__ = [
    "__version__",
    "ConfigError",
    "ConvergenceError",
    "CountsTable",
    "DipScan",
    "GaussianFit",
    "GENERATED_KINDS",
    "GENUINE_OVERLAP_THRESHOLD",
    "GHZ_CLASS_THRESHOLD",
    "IntensityTable",
    "Interferometer",
    "InternalState",
    "InputConfiguration",
    "MonteCarloResult",
    "PostSelectionResult",
    "Recipe",
    "ReconstructionResult",
    "StateKind",
    "ValidationError",
    "W_FIDELITY_THRESHOLD",
    "WitnessReport",
    "apply_local_unitary",
    "born_probabilities",
    "canonical_state",
    "dominant_eigenvector",
    "fidelity",
    "fit_gaussian",
    "fourier_unitary",
    "hom_scan",
    "insertion_loss_db",
    "interferometer_from_magnitudes",
    "local_transform",
    "matrix_from_pairs",
    "matrix_to_pairs",
    "measurement_settings",
    "monte_carlo_uncertainty",
    "output_distribution",
    "pair_coincidence_probability",
    "permanent",
    "phase_normalized",
    "postselect_coincidence",
    "purity",
    "recipe",
    "reconstruct_mle",
    "simulate_counts",
    "sinkhorn_magnitudes",
    "spectral_vectors_from_gram",
    "state_overlap",
    "visibility",
    "witness_report",
]
