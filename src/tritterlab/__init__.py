"""Post-selected multipartite entanglement at multiport beam splitters.

Simulation of independent photons interfering at a balanced multiport
splitter, recipes for the tripartite entangled states reachable by
post-selecting one photon per output port, and the accompanying analysis
chain: splitter calibration, coincidence-dip visibilities, state tomography
with Monte-Carlo error bars, and entanglement witnesses.
"""

__version__ = "0.36.0"

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
    fidelity,
    local_transform,
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
