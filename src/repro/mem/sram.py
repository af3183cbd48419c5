"""SRAM device, optionally carrying a protection scheme tag.

The protection scheme does not change functional behaviour here — strikes
are classified in closed form by :mod:`repro.faults.classify`, never
written into device bytes — but it determines the latency (Table IV:
parity overlaps the access, SEC-DED costs an extra cycle) and the
redundancy energy added by the technology model.
"""

from __future__ import annotations

from ..config import Protection
from .device import MemoryDevice


class SramDevice(MemoryDevice):
    """Volatile SRAM storage, vulnerable to radiation-induced bit flips."""

    technology_tag = "sram"

    def __init__(self, name, base, size, read_latency=1, write_latency=1,
                 energy_model=None, protection=Protection.NONE):
        super().__init__(name, base, size, read_latency, write_latency,
                         energy_model)
        self.protection = protection

    @property
    def is_soft_error_immune(self):
        return False
