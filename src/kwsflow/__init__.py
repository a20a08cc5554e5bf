"""Bit-accurate MFCC front end, deterministic design-space exploration,
and a staged feedback loop around external EDA tools."""

from .corpus import CORPUS_VERSION, corpus_digest, corpus_signals
from .dse import (
    DesignMetrics,
    DesignPoint,
    DseReport,
    cost_model,
    evaluate_point,
    run_dse,
    select_alpha,
    select_bandwidth,
    select_bitwidth,
    select_fft_size,
    select_mel_shape,
    select_window_policy,
)
from .fixedpoint import QFormat
from .flow import (
    FlowResult,
    FlowState,
    Proposal,
    RemoteReasoner,
    ScriptedReasoner,
    Verdict,
    resume_flow,
    run_flow,
)
from .frontend import PipelineConfig, mfcc_pipeline, spectrogram_distance
from .signal import SignalBuffer, gen_signal, read_wav, write_wav
from .toolchain import (
    MockAdapter,
    ToolReport,
    run_simulation,
    run_sta,
    run_synthesis,
)

__version__ = "0.1.0"
