"""Soft-error model: MBU statistics, AVF equations, and fault injection.

Implements the paper's reliability methodology:

* the **analytic AVF model** (equations (1)–(7)): per-region SDC/DUE
  probabilities from the multiplicity distribution of particle-strike
  bit flips (Dixit & Wood's 62/25/6/7 % at 40 nm), weighted by each
  data-SPM region's area share and ACE-weighted utilization (Fig. 5),
* the **error-vector kernel** every Monte-Carlo path shares: the
  clustered strike draw (:func:`~repro.faults.mbu.draw_clusters`) and
  the closed-form codec outcomes of an accumulated error vector
  (:mod:`~repro.faults.classify`), which the campaign shards, the
  interleaving ablation and :class:`AccumulationCampaign` classify with,
* the campaign vocabulary (:class:`Target`, :class:`CampaignResult`)
  that :mod:`repro.campaign` shards, merges and checkpoints; its trial
  evaluator cross-checks the closed-form outcomes against the real
  parity / SEC-DED decoders of :mod:`repro.ecc`.
"""

from .mbu import MbuDistribution
from .avf import (
    RegionErrorProbabilities,
    VulnerabilityBreakdown,
    region_error_probabilities,
    region_surface_vulnerability,
)
from .injector import CampaignResult, Target
from .scrubbing import AccumulationCampaign, AccumulationResult

__all__ = [
    "MbuDistribution",
    "RegionErrorProbabilities",
    "VulnerabilityBreakdown",
    "region_error_probabilities",
    "region_surface_vulnerability",
    "CampaignResult",
    "Target",
    "AccumulationCampaign",
    "AccumulationResult",
]
