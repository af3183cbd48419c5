"""Soft-error model: MBU statistics, AVF equations, and fault injection.

Implements the paper's reliability methodology:

* the **analytic AVF model** (equations (1)–(7)): per-region SDC/DUE
  probabilities from the multiplicity distribution of particle-strike
  bit flips (Dixit & Wood's 62/25/6/7 % at 40 nm), weighted by each
  block's ACE time and area share,
* a **Monte-Carlo injection campaign** that samples strikes, flips real
  bits in real codewords, runs the actual parity / SEC-DED decoders from
  :mod:`repro.ecc`, and classifies outcomes — cross-checking the
  analytic numbers with measured codec behaviour,
* the **error-vector kernel** every NumPy path shares: the clustered
  strike draw (:func:`~repro.faults.mbu.draw_clusters`) and the
  closed-form codec outcomes of an accumulated error vector
  (:mod:`~repro.faults.classify`), which the campaign shards, the
  interleaving ablation and :class:`AccumulationCampaign` classify with.
"""

from .mbu import MbuDistribution, StrikePattern
from .avf import (
    RegionErrorProbabilities,
    VulnerabilityBreakdown,
    region_error_probabilities,
    region_surface_vulnerability,
    vulnerability_of_placement,
)
from .injector import CampaignResult, InjectionCampaign, Target
from .scrubbing import AccumulationCampaign, AccumulationResult

__all__ = [
    "MbuDistribution",
    "StrikePattern",
    "RegionErrorProbabilities",
    "VulnerabilityBreakdown",
    "region_error_probabilities",
    "region_surface_vulnerability",
    "vulnerability_of_placement",
    "CampaignResult",
    "InjectionCampaign",
    "Target",
    "AccumulationCampaign",
    "AccumulationResult",
]
