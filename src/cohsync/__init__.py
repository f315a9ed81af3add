"""Adaptive two-tone ranging and wireless frequency synchronization toolkit.

Desk-scale simulator and analysis library for phase/frequency
coordination of distributed RF transceivers: spectrally sparse ranging
waveforms, a cooperative round-trip channel, a matched-filter range
estimator with ambiguity resolution, self-mixing frequency transfer, an
adaptive PI bandwidth loop, and coherent-gain Monte-Carlo analysis.
"""

from .channel import (
    CarrierPlan,
    ChannelState,
    apply_round_trip_response,
    post_snr_from_sample_snr,
    residual_baseband_frequency,
    sample_snr_for_post_snr,
)
from .coherence import (
    TWO_NODE_SIGMA_OVER_LAMBDA,
    ArrayScenario,
    coherent_gain,
    max_coherent_frequency,
    probability_curve,
    threshold_crossings,
)
from .config import (
    ConfigError,
    LoopConfig,
    RunConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from .control import (
    OscillationReport,
    PiControllerState,
    find_ultimate_gain,
    pi_step,
    ziegler_nichols_gains,
)
from .freqlock import (
    SelfMixInput,
    path_phase,
    self_mix,
    wrap_phase,
)
from .ranging import (
    RangeEstimate,
    RangeWindowStats,
    disambiguate_and_refine,
    effective_window_length,
    matched_filter,
    window_stats,
)
from .scenario import (
    EnvironmentRecord,
    ProcessingIntervalLog,
    TraceSegment,
    ranging_sigma_plant,
    read_run_log_csv,
    read_trace_csv,
    run_adaptive,
    run_fixed_bandwidth,
    simulate_window,
    summarize_run,
    synthesize_trace,
    write_run_log_csv,
    write_trace_csv,
)
from .waveform import (
    SPEED_OF_LIGHT,
    ComplexBasebandSignal,
    TwoToneSpec,
    WaveformConfig,
    crlb_sigma_r,
    generate_disambiguation,
    generate_two_tone,
    mean_squared_bandwidth,
)

__version__ = "0.1.0"
