"""Per-node technology constants for the analytic array model.

The 40 nm SRAM/STT-RAM entries are calibrated so the Table IV platform
reproduces the paper's reported SPM static powers exactly:

* pure SEC-DED SRAM SPM (two 16 KB arrays): 15.8 mW,
* pure STT-RAM SPM (two 16 KB arrays): 3.0 mW,
* FTSPM (16 KB STT + 12 KB STT + 2 KB parity SRAM + 2 KB SEC-DED SRAM):
  7.1 mW.

The decomposition follows NVSim's structure: a fixed peripheral-circuit
leakage per array (decoders, sense amplifiers — similar CMOS for both
technologies) plus a per-kilobyte cell-array leakage (large for SRAM,
near zero for the non-volatile STT-RAM cells).  Dynamic energies follow a
square-root capacity law (bitline/wordline lengths grow with the array
side), anchored at a 16 KB reference array.

Other nodes scale from 40 nm with standard factors (leakage grows as
features shrink; dynamic energy shrinks roughly with node^2 for CMOS).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MemoryTechnology, Protection
from ..errors import ConfigurationError
from ..units import milliwatts, picojoules


@dataclass(frozen=True)
class CellParams:
    """Constants for one memory technology at one node."""

    peripheral_leakage: float  # watts per array instance
    cell_leakage_per_kb: float  # watts per kilobyte of cells
    read_energy_16kb: float  # joules per access at the 16 KB anchor
    write_energy_16kb: float  # joules per access at the 16 KB anchor
    cell_area_f2: float  # cell area in F^2 (per bit)


@dataclass(frozen=True)
class NodeParams:
    """All technologies at a given feature size."""

    node_nm: int
    sram: CellParams
    stt_ram: CellParams
    dram: CellParams
    gate_energy: float  # joules per logic-gate switch (ECC circuits)
    gate_delay: float  # seconds per gate (ECC circuit critical paths)
    #: probability of 1, 2, 3, >3 bit flips per particle strike
    #: (Dixit & Wood, IRPS'11 — the distribution the paper cites)
    mbu_distribution: tuple = (0.62, 0.25, 0.06, 0.07)


def _node_40nm():
    return NodeParams(
        node_nm=40,
        sram=CellParams(
            peripheral_leakage=milliwatts(1.3),
            cell_leakage_per_kb=milliwatts(0.36694),
            read_energy_16kb=picojoules(30.0),
            write_energy_16kb=picojoules(30.0),
            cell_area_f2=146.0,
        ),
        stt_ram=CellParams(
            peripheral_leakage=milliwatts(1.18),
            cell_leakage_per_kb=milliwatts(0.02),
            read_energy_16kb=picojoules(10.0),
            write_energy_16kb=picojoules(300.0),
            cell_area_f2=40.0,
        ),
        dram=CellParams(
            peripheral_leakage=milliwatts(0.0),
            cell_leakage_per_kb=milliwatts(0.0),
            # Off-chip random word access (pin + array); fixed per access,
            # not capacity-scaled (see nvsim_lite).
            read_energy_16kb=picojoules(2000.0),
            write_energy_16kb=picojoules(2000.0),
            cell_area_f2=8.0,
        ),
        gate_energy=picojoules(0.002),
        gate_delay=25e-12,
    )


def _scaled_node(node_nm, dynamic_scale, leakage_scale, mbu_distribution):
    base = _node_40nm()

    def scale(cell):
        return CellParams(
            peripheral_leakage=cell.peripheral_leakage * leakage_scale,
            cell_leakage_per_kb=cell.cell_leakage_per_kb * leakage_scale,
            read_energy_16kb=cell.read_energy_16kb * dynamic_scale,
            write_energy_16kb=cell.write_energy_16kb * dynamic_scale,
            cell_area_f2=cell.cell_area_f2,
        )

    return NodeParams(
        node_nm=node_nm,
        sram=scale(base.sram),
        stt_ram=scale(base.stt_ram),
        dram=scale(base.dram),
        gate_energy=base.gate_energy * dynamic_scale,
        gate_delay=base.gate_delay * (node_nm / 40.0),
        mbu_distribution=mbu_distribution,
    )


#: Multiple-bit-upset multiplicity per node (Dixit & Wood trend: newer
#: nodes shift from single-bit to multi-bit upsets).
TECHNOLOGY_NODES = {
    40: _node_40nm(),
    65: _scaled_node(65, dynamic_scale=2.2, leakage_scale=0.45,
                     mbu_distribution=(0.88, 0.09, 0.02, 0.01)),
    45: _scaled_node(45, dynamic_scale=1.25, leakage_scale=0.8,
                     mbu_distribution=(0.70, 0.21, 0.05, 0.04)),
    32: _scaled_node(32, dynamic_scale=0.72, leakage_scale=1.35,
                     mbu_distribution=(0.55, 0.28, 0.08, 0.09)),
    22: _scaled_node(22, dynamic_scale=0.48, leakage_scale=1.8,
                     mbu_distribution=(0.45, 0.30, 0.11, 0.14)),
}


def node_params(node_nm):
    """Look up :class:`NodeParams` for a feature size in nanometres."""
    try:
        return TECHNOLOGY_NODES[node_nm]
    except KeyError:
        raise ConfigurationError(
            "no technology parameters for %d nm (available: %s)"
            % (node_nm, ", ".join(str(n) for n in sorted(TECHNOLOGY_NODES)))
        ) from None


def cell_params(node, technology):
    """Return the :class:`CellParams` of ``technology`` at ``node``."""
    if technology is MemoryTechnology.SRAM:
        return node.sram
    if technology is MemoryTechnology.STT_RAM:
        return node.stt_ram
    if technology is MemoryTechnology.DRAM:
        return node.dram
    raise ConfigurationError("unknown technology %r" % technology)


#: data bits per SEC-DED codeword: Hamming(72,64)
SECDED_DATA_BITS = 64


def redundancy_factor(protection):
    """Extra storage fraction required by a protection scheme.

    Parity: 1 check bit per 32-bit word.  SEC-DED: Hamming(72,64) — 8
    check bits per :data:`SECDED_DATA_BITS` data bits.
    """
    if protection is Protection.PARITY:
        return 1.0 + 1.0 / 32.0
    if protection is Protection.SECDED:
        return 1.0 + 8.0 / SECDED_DATA_BITS
    return 1.0
