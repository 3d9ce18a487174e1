"""Universal compression of distributed identical sources.

Three coding strategies over parametric sources with an unknown parameter
vector: strictly lossless universal coding (ucomp), coding with a memory
sequence shared by encoder and decoder (ucompm), and almost-lossless
distributed coding where only the decoder holds the memory (ducompm).
Alongside the codecs: a closed-form redundancy-bounds engine, a Monte Carlo
experiment harness, and a CLI.

Importing the package imports no submodule: each submodule, and each name
re-exported below, is imported on first access, so a process loads only the
modules it uses (a lossless ``ucdis encode`` never loads ducompm, the
harness or the bounds engine).
"""

import importlib

__version__ = "0.1.0"

# name -> the submodule that defines it; a submodule names itself
_LAZY = {
    **{m: m for m in ("bounds", "cli", "codec", "ducompm", "harness", "numerics", "rng",
                      "sources")},
    **dict.fromkeys(("RedundancyBreakdown", "delta_d", "figure_preset", "penalty_approx",
                     "penalty_exact", "redundancy_ducompm", "redundancy_ucomp",
                     "redundancy_ucompm"), "bounds"),
    **dict.fromkeys(("BitStream", "decode_ucompm", "encode_ucompm"), "codec"),
    **dict.fromkeys(("DucompmConfig", "decode_ducompm", "encode_ducompm"), "ducompm"),
    **dict.fromkeys(("CoverageReport", "ExperimentConfig", "SummaryRow", "run_coverage",
                     "run_experiment"), "harness"),
    **dict.fromkeys(("SourceFamily", "markov1", "memoryless"), "sources"),
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
