"""Cycle-approximate in-order core and machine wiring (FaCSim substitute).

:class:`Cpu` interprets the ARM-like ISA; :class:`Machine` wires a
:class:`~repro.isa.program.Program`, a
:class:`~repro.mem.hierarchy.MemorySystem`, a DMA engine, and an optional
transfer schedule (the online mapping phase) into a runnable platform;
:class:`FastEngine` is the predecoded basic-block engine that every
:meth:`Machine.run` executes on.
"""

from .cpu import Cpu, CpuState, ExecStats
from .fastpath import FastEngine
from .machine import EXIT_ADDRESS, Machine, RunResult, TransferAction, TransferSchedule

__all__ = [
    "Cpu",
    "CpuState",
    "ExecStats",
    "EXIT_ADDRESS",
    "FastEngine",
    "Machine",
    "RunResult",
    "TransferAction",
    "TransferSchedule",
]
