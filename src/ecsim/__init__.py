"""ecsim: exact simulation of entangled-coherent-state qubit channels."""

from .coherent_states import (
    CoherentOperator,
    CoherentSuperposition,
    FockVector,
    beam_split,
    consolidate,
    dyad_from_pure,
    inner,
    norm,
    normalized,
    operator_trace,
    phase_shift,
    photon_distribution,
    project_modes,
    tensor,
    to_fock,
)
from .decoherence import (
    ChannelCoefficients,
    DecayClock,
    channel_rho4,
    closed_form_vst,
    decohere,
)
from .entanglement_metrics import (
    characteristic_time,
    closed_form_e,
    closed_form_f,
    closed_form_s,
    linear_entropy,
    mixedness_peak,
    negativity_e,
    optimal_fidelity,
    singlet_fraction,
    vn_entropy,
)
from .errors import (
    CutoffError,
    DegenerateBasisError,
    DensityError,
    ModeMismatchError,
    SpanError,
    ZeroNormError,
)
from .protocols import (
    BellLabel,
    BellOutcome,
    ConcentrationResult,
    average_fidelity,
    bell_measure_distribution,
    concentrate_exact,
    concentrate_ideal,
    concentration_success_closed_form,
    cv_fidelity,
    cv_max,
    misid_probability_closed,
    teleport_average_mc,
)
from .qubit_encoding import (
    LogicalBasis,
    PauliDecomposition,
    TwoQubitDensity,
    bell_state,
    make_basis,
    pauli_decompose,
    project_to_density,
)

__version__ = "0.1.0"
