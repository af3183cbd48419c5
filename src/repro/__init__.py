"""FTSPM: a fault-tolerant scratchpad memory - full reproduction.

Reproduces Monazzah et al., *FTSPM: A Fault-Tolerant ScratchPad Memory*
(DSN 2013): a hybrid STT-RAM / SEC-DED SRAM / parity SRAM scratchpad plus
the multi-priority, reliability-aware Mapping Determiner Algorithm (MDA),
evaluated on a trace-driven ARM-like simulator with analytic technology
models.

Typical use::

    from repro import assemble, ftspm_config
    from repro.core import MappingDeterminer
    from repro.profile import profile_program

    program = assemble(source)
    profile = profile_program(program)  # on the pure-SRAM platform
    plan = MappingDeterminer(ftspm_config()).map(profile).plan

See ``examples/quickstart.py`` for the end-to-end flow.
"""

from .config import (
    CacheConfig,
    MemoryTechnology,
    OffChipConfig,
    Protection,
    RegionConfig,
    SpmConfig,
    SystemConfig,
    baseline_sram_config,
    baseline_sttram_config,
    ftspm_config,
    preset,
    sram_region,
    sttram_region,
)
from .errors import (
    AssemblyError,
    ConfigurationError,
    MappingError,
    MemoryAccessError,
    ProfileError,
    ReproError,
    SimulationError,
)
from .isa import Program, assemble, disassemble
from .sim import Machine, RunResult, TransferAction, TransferSchedule

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "MemoryTechnology",
    "OffChipConfig",
    "Protection",
    "RegionConfig",
    "SpmConfig",
    "SystemConfig",
    "baseline_sram_config",
    "baseline_sttram_config",
    "ftspm_config",
    "preset",
    "sram_region",
    "sttram_region",
    "AssemblyError",
    "ConfigurationError",
    "MappingError",
    "MemoryAccessError",
    "ProfileError",
    "ReproError",
    "SimulationError",
    "Program",
    "assemble",
    "disassemble",
    "Machine",
    "RunResult",
    "TransferAction",
    "TransferSchedule",
    "__version__",
]
