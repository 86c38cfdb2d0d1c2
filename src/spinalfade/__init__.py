"""Spinal codes over fading channels: encoder, exact ML decoder,
closed-form frame-error bounds, and Monte Carlo verification."""

from .bounds import (
    BoundResult,
    ThetaGrid,
    exp_moment,
    fading_integral_oracle,
    kernel,
    kernel_grid_sum,
    pairwise_error_mc,
    pe_bound,
    q_craig,
    tail_symbols,
    uniform_theta_grid,
)
from .channel import (
    ChannelRealization,
    FadingModel,
    pdf,
    sample_gains,
    snr_to_sigma,
    symbol_energy,
    transmit,
)
from .codec import (
    CodeParams,
    ConfigurationError,
    Message,
    codebook_levels,
    encode,
    random_message,
)
from .decoder import (
    CandidateTable,
    CapacityError,
    DecodeResult,
    brute_force_decode,
    candidate_cost,
    ml_decode,
)
from .mixing import CounterStream, mix64
from .sim import (
    FerEstimate,
    SweepRow,
    codebook_seed,
    count_errors,
    estimate_fer,
    run_trial,
    sweep,
    trial_stream,
)

__version__ = "0.1.0"
