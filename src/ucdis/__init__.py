"""Universal compression of distributed identical sources.

Three coding strategies over parametric sources with an unknown parameter
vector: strictly lossless universal coding (ucomp), coding with a memory
sequence shared by encoder and decoder (ucompm), and almost-lossless
distributed coding where only the decoder holds the memory (ducompm).
Alongside the codecs: a closed-form redundancy-bounds engine, a Monte Carlo
experiment harness, and a CLI.
"""

from . import bounds, codec, ducompm, harness, numerics, sources
from .bounds import (
    RedundancyBreakdown,
    delta_d,
    figure_preset,
    penalty_approx,
    penalty_exact,
    redundancy_ducompm,
    redundancy_ucomp,
    redundancy_ucompm,
)
from .codec import BitStream, decode_ucompm, encode_ucompm
from .ducompm import DucompmConfig, decode_ducompm, encode_ducompm
from .harness import CoverageReport, ExperimentConfig, SummaryRow, run_coverage, run_experiment
from .sources import SourceFamily, markov1, memoryless

__version__ = "0.1.0"
