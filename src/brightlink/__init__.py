"""Software modem and channel simulator for screen-brightness covert channels."""

from .analysis import (
    BerModel,
    SweepResult,
    SweepRow,
    distance_sweep,
    fit_loglog_slope,
    monte_carlo_ber,
    q_function,
    theoretical_ber,
)
from .bfrs import BfrsFormatError, read_bfrs, write_bfrs
from .channel import (
    ChannelGeometry,
    ChannelParams,
    SamplingRateError,
    geometric_gain,
    normalized_gain,
    transmit,
)
from .core import (
    Color,
    ModulationParams,
    SymbolSeries,
    as_bits,
    bits_to_symbols,
    level_table,
    symbols_to_bits,
)
from .decoder import (
    DecodeReport,
    DegenerateLevelsError,
    FramingError,
    SyncError,
    decode_frames,
    extract_signal,
    synchronize,
)
from .encoder import (
    CarrierTooShortError,
    encode_stream,
    frame_payload,
    frames_needed,
    make_carrier,
)

__version__ = "0.1.0"
