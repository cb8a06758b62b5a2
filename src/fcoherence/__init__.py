"""Coherence measures from operator convex divergences, with self-verification."""

from .channels import (
    GioChannel,
    KrausChannel,
    MeasurementOutcome,
    PetzRecoveryMap,
    SaturationReport,
    dephasing_channel,
    depolarizing_extension,
    diagonal_unitary_mixture,
    erasure_extension,
    gio_saturation_check,
    is_sio,
    petz_recovery,
    random_channel,
    random_gio,
    random_unital_channel,
)
from .coherence import (
    CoherenceResult,
    PowerCoherence,
    coherence_f,
    coherence_f_hat,
    coherence_table,
    dephase,
    dephasing_distance,
    max_coherent_state,
    power_coherence,
    relative_entropy_coherence,
)
from .divergence import (
    divergence_table,
    entropy_table,
    f_entropy,
    f_entropy_hat,
    f_weighted_sum,
    oracle_divergence_table,
    oracle_quasi_relative_entropy,
    quasi_relative_entropy,
)
from .generators import GeneratorFunction, lookup, neg_log, power, tsallis
from .io import (
    builtin_channel,
    channel_to_json,
    load_channel,
    load_channel_or_builtin,
    load_state,
    save_channel,
    save_state,
    state_to_json,
)
from .states import (
    DensityMatrix,
    PureState,
    SpectralDecomposition,
    random_density,
    random_pure,
    random_unitary,
    spectral_decompose,
    trace_norm,
    validate_density,
)
from .verify import (
    SioCounterexampleReport,
    TrialConfig,
    VerificationReport,
    ensemble_coherence,
    run_all,
    sio_counterexample_report,
    suite_divergence_oracle,
    suite_entropy_bounds,
    suite_faithfulness_and_bounds,
    suite_gio_monotonicity,
    suite_sio_counterexample,
    suite_strong_monotonicity,
)

__version__ = "0.1.0"
