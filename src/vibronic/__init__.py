"""Two trapped ions, two shared vibrational modes: dispersive Bell-state
pulse protocols and displaced-population motional-state tomography.

Subpackages
-----------
fockspace   truncated two-mode Fock space, coupling amplitudes, states
dynamics    drive Hamiltonians, propagators, closed-form pulse evolutions
bellgen     Bell-state pulse sequences and thermal robustness scans
tomography  displaced-population signals, NNLS inversion, Wigner values
cli         config-driven command line entry point
"""

from .fockspace import (
    ELEC_LABELS,
    STRETCH_FREQ_RATIO,
    STRETCH_LD_RATIO,
    HilbertConfig,
    JointState,
    ModeParams,
    StateSpec,
    TruncationWarning,
    VibDensity,
    basis_state,
    coupling_f,
    coupling_f_grid,
    displacement,
    fidelity,
    laguerre,
    laguerre_seq,
    make_vib_state,
    make_vib_vector,
    reduce_electronic,
    reduce_vibrational,
    thermal_weights,
    truncation_guard,
)

from .dynamics import (
    AdiabaticityWarning,
    BichromaticAction,
    BichromaticParams,
    CarrierParams,
    FactoredPropagator,
    HermitianPropagator,
    RotatingWaveWarning,
    build_bichromatic_H,
    build_carrier_H,
    build_effective_H,
    carrier_factors,
    closed_form_carrier,
    closed_form_dispersive,
    effective_factors,
    omega_k_scale,
    propagate_bichromatic,
    propagate_timedep,
    rabi_effective,
    rabi_spectrum,
    resonance_guard,
)

from .bellgen import (
    BellTarget,
    Pulse,
    PulseSequence,
    carrier_phase_for,
    make_phi,
    make_psi,
    phi_target_for,
    run_sequence,
    thermal_bell_scan,
)

from .tomography import (
    WIGNER_BOUND,
    ConditionReport,
    DegeneracyError,
    PopulationEstimate,
    ProtocolPoint,
    SignalRecord,
    WignerPoint,
    condition_report,
    default_tau_grid,
    design_matrix,
    displace_vib,
    displaced_populations,
    invert_populations,
    protocol_run,
    synth_signal,
    wigner_direct,
    wigner_from_populations,
)

__version__ = "0.1.0"
