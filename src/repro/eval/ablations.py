"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation: each isolates one design
decision of FTSPM and measures what it buys.

* **reliability awareness** — MDA vs the Hu-style write-aware hybrid
  mapper (identical structure, no susceptibility logic).
* **region sizing** — sweep the parity/SEC-DED/STT split of the 16 KB
  data SPM.
* **priority modes** — the four optimisation modes of the multi-priority
  algorithm.
* **MBU sensitivity** — the vulnerability gap across technology nodes
  (older nodes are SEU-dominated, eroding FTSPM's MBU advantage).
"""

from __future__ import annotations

import math

from ..config import ftspm_config
from ..core.baselines import hybrid_write_aware_plan
from ..core.costs import ScenarioCostModel
from ..core.priorities import OptimizationMode, thresholds_for_mode
from ..faults.avf import region_surface_vulnerability
from ..faults.mbu import MbuDistribution
from ..pipeline import get_context
from ..tech.params import TECHNOLOGY_NODES
from ..workloads.synthetic import mibench_names
from .experiments import EXPERIMENTS, ExperimentResult

#: independent strikes per word over one mission, for the scrubbing
#: ablation's accumulation campaigns
SCRUB_STRIKE_RATE = 1.5


def _geomean(values):
    finite = [v for v in values if 0 < v != float("inf")]
    if not finite:
        return float("inf")
    return math.exp(sum(math.log(v) for v in finite) / len(finite))


def _suite_profiles():
    context = get_context()
    return [(name, context.synthetic_profile(name))
            for name in mibench_names()]


def _swapped_placement_vulnerability(profile, plan, config):
    """Rebuild the plan with the ECC and parity assignments exchanged.

    Same blocks in SRAM (same eviction decisions), but every block the
    MDA protected with SEC-DED now sits behind plain parity and vice
    versa — the adversarial counterfactual of step 6.  Blocks whose swap
    target lacks space keep their original region.
    """
    from ..core.plan import MappingPlan
    variant = MappingPlan.empty(config)
    ecc = next(s.name for s in plan.slots.values()
               if s.protection.name == "SECDED")
    parity = next(s.name for s in plan.slots.values()
                  if s.protection.name == "PARITY")
    swap = {ecc: parity, parity: ecc}
    moves = []
    for assignment in plan.mapped_blocks():
        stats = profile.get(assignment.block_name)
        if assignment.region_name in swap:
            moves.append((stats, swap[assignment.region_name],
                          assignment.region_name))
        else:
            variant.assign(stats, assignment.region_name)
    for stats, target, original in sorted(moves,
                                          key=lambda m: -m[0].size):
        if variant.slots[target].fits(stats.size):
            variant.assign(stats, target)
        elif variant.slots[original].fits(stats.size):
            variant.assign(stats, original)
        else:
            variant.leave_unmapped(stats)
    return variant


def experiment_ablation_reliability_awareness():
    """Step 6's susceptibility-aware ECC/parity split vs its inverse,
    plus the endurance view against the reliability-blind Hu mapper."""
    headers = ["Benchmark", "MDA vuln", "Swap vuln", "MDA cycles",
               "Swap cycles", "MDA dominated?", "Write-aware STT rate"]
    rows = []
    dominated = 0
    rate_pairs = []
    for name, profile in _suite_profiles():
        evaluation = get_context().evaluation(profile, "ftspm")
        config = evaluation.config
        swap_plan = _swapped_placement_vulnerability(
            profile, evaluation.plan, config)
        mda_vuln = evaluation.vulnerability
        swap_vuln = region_surface_vulnerability(
            swap_plan, profile).vulnerability
        mda_cycles = evaluation.cycles
        swap_cycles = ScenarioCostModel(profile, config).cost_of(
            swap_plan).total_cycles
        # MDA is Pareto-dominated only if the swap is strictly better on
        # BOTH reliability and performance.
        is_dominated = (swap_vuln < mda_vuln * 0.999
                        and swap_cycles < mda_cycles * 0.999)
        dominated += is_dominated
        blind_plan = hybrid_write_aware_plan(profile, config)
        blind_rate = _stt_rate(profile, blind_plan, config)
        rate_pairs.append((evaluation.max_cell_write_rate, blind_rate))
        rows.append([name, mda_vuln, swap_vuln, mda_cycles, swap_cycles,
                     "yes" if is_dominated else "no", blind_rate])
    data = {
        "pareto_dominated_count": dominated,
        "mda_endurance_wins": sum(
            1 for mda_rate, blind_rate in rate_pairs
            if mda_rate <= blind_rate * 1.001),
    }
    return ExperimentResult(
        name="ablation-reliability-awareness",
        title="Ablation: the MDA's ECC/parity placement vs its swap "
              "(reliability-performance trade)",
        headers=headers, rows=rows, data=data,
        notes="Step 6 trades: parity is the 1-cycle/cheap region, SEC-DED "
              "the safe one.  A swap that is better on BOTH axes exposes "
              "a misranking by the paper's susceptibility proxy "
              "(references x life-time) relative to ACE-weighted "
              "vulnerability - observed on a small minority of the suite "
              "(a reproduction finding, recorded in EXPERIMENTS.md).  "
              "The write-aware-only mapper comparison shows the "
              "endurance side: MDA's STT write rates are never higher.")


def experiment_ablation_region_sizes():
    """Sweep the parity/SEC-DED/STT split of the 16 KB data SPM."""
    splits = [(1, 1, 14), (2, 2, 12), (4, 4, 8), (2, 6, 8), (6, 2, 8)]
    headers = ["Split (P/E/S KB)", "Geomean vuln", "Mean dyn energy (uJ)",
               "Mean leakage (mW)", "Geomean endurance rate (wr/s)"]
    rows = []
    data = {"splits": {}}
    for parity_kb, secded_kb, stt_kb in splits:
        config = ftspm_config(parity_kb, secded_kb, stt_kb)
        vulns, energies, rates = [], [], []
        leakage = None
        for name, profile in _suite_profiles():
            evaluation = get_context().evaluation(profile, "ftspm",
                                                  config=config)
            vulns.append(max(evaluation.vulnerability, 1e-9))
            energies.append(evaluation.dynamic_energy)
            leakage = evaluation.leakage_power
            rates.append(max(evaluation.max_cell_write_rate, 1e-9))
        label = "%d/%d/%d" % (parity_kb, secded_kb, stt_kb)
        row = [label, _geomean(vulns),
               sum(energies) / len(energies) * 1e6,
               leakage * 1e3, _geomean(rates)]
        rows.append(row)
        data["splits"][label] = {
            "vulnerability": row[1],
            "dynamic_energy": row[2],
            "leakage_mw": row[3],
        }
    return ExperimentResult(
        name="ablation-region-sizes",
        title="Ablation: data-SPM region split sweep "
              "(paper geometry is 2/2/12)",
        headers=headers, rows=rows, data=data,
        notes="Larger SRAM shares raise both leakage and the vulnerable "
              "surface; smaller ones push write-heavy blocks back into "
              "STT-RAM.")


def experiment_ablation_priorities():
    """The four multi-priority optimisation modes on the whole suite."""
    headers = ["Mode", "Geomean vuln", "Mean perf ovh", "Mean energy ovh",
               "Geomean STT write rate (wr/s)"]
    rows = []
    data = {}
    for mode in OptimizationMode:
        vulns, perf, energy, rates = [], [], [], []
        for name, profile in _suite_profiles():
            evaluation = get_context().evaluation(
                profile, "ftspm", thresholds=thresholds_for_mode(mode))
            vulns.append(max(evaluation.vulnerability, 1e-9))
            perf.append(evaluation.mda_result.perf_overhead)
            energy.append(evaluation.mda_result.energy_overhead)
            rates.append(max(evaluation.max_cell_write_rate, 1e-9))
        row = [mode.value, _geomean(vulns),
               sum(perf) / len(perf), sum(energy) / len(energy),
               _geomean(rates)]
        rows.append(row)
        data[mode.value] = {
            "vulnerability": row[1],
            "perf_overhead": row[2],
            "energy_overhead": row[3],
            "stt_write_rate": row[4],
        }
    return ExperimentResult(
        name="ablation-priorities",
        title="Ablation: multi-priority modes "
              "(reliability / performance / power / endurance)",
        headers=headers, rows=rows, data=data,
        notes="Reliability mode keeps all data in soft-error-immune "
              "STT-RAM at the worst energy/endurance point; endurance "
              "mode empties the STT-RAM region of writers.")


def _stt_rate(profile, plan, config):
    from .structures import _max_cell_write_rate
    cost = ScenarioCostModel(profile, config).cost_of(plan)
    runtime = cost.total_cycles * config.cycle_time
    return _max_cell_write_rate(profile, plan, config, runtime)


def experiment_ablation_mbu():
    """Vulnerability advantage across technology nodes."""
    headers = ["Node (nm)", "P(1 bit)", "SRAM baseline vuln",
               "FTSPM geomean vuln", "Ratio"]
    rows = []
    data = {}
    for node_nm in sorted(TECHNOLOGY_NODES, reverse=True):
        mbu = MbuDistribution.for_node(node_nm)
        sram_vuln = mbu.p_at_least(2)  # uniform SEC-DED surface constant
        ftspm_vulns = []
        for name, profile in _suite_profiles():
            plan = get_context().evaluation(profile, "ftspm").plan
            ftspm_vulns.append(max(region_surface_vulnerability(
                plan, profile, mbu=mbu).vulnerability, 1e-9))
        geomean = _geomean(ftspm_vulns)
        ratio = sram_vuln / geomean
        rows.append([node_nm, mbu.p1, sram_vuln, geomean, ratio])
        data[node_nm] = {"sram": sram_vuln, "ftspm": geomean,
                         "ratio": ratio}
    return ExperimentResult(
        name="ablation-mbu",
        title="Ablation: MBU-multiplicity sensitivity across nodes",
        headers=headers, rows=rows, data=data,
        notes="As MBUs grow with scaling, SEC-DED's residual "
              "vulnerability rises while STT-RAM stays immune - the gap "
              "widens at newer nodes, the paper's motivating trend.")


def experiment_ablation_interleaving(trials=25_000, seed=0x1EAF):
    """Interleaved SEC-DED SRAM vs FTSPM: the industrial alternative.

    Monte-Carlo strikes (clustered MBU patterns) against a SEC-DED SRAM
    word at interleaving degrees 1/2/4/8, versus FTSPM's structural
    answer.  Each trial draws one cluster over the ``72 * ways``-bit
    physical row from the campaigns' PCG64 cluster stream and
    classifies it per codeword in closed form (equal to the real
    codecs trial-for-trial in the tests).  Interleaving converts
    clusters into correctable per-codeword singles, approaching
    STT-RAM-grade immunity — but every doubling widens the physical
    row and raises per-access energy, while FTSPM gets immunity *and*
    lower energy from the STT-RAM cells.
    """
    import numpy as np

    from ..ecc import InterleavedCodec, SecDedCodec
    from ..faults.classify import CLASS_DUE, CLASS_SDC, classify_interleaved
    from ..faults.mbu import draw_clusters

    context = get_context()
    mbu = MbuDistribution.for_node(40)
    headers = ["Scheme", "Harmful fraction", "SDC fraction",
               "Relative access energy"]
    rows = []
    data = {}
    for ways in (1, 2, 4, 8):
        codec = InterleavedCodec(SecDedCodec(64), ways=ways)

        def strike_campaign(ways=ways, codec=codec):
            generator = np.random.Generator(np.random.PCG64(seed + ways))
            multiplicity, positions = draw_clusters(
                generator, trials, codec.codeword_bits, mbu)
            classes = classify_interleaved(multiplicity, positions, ways)
            return {"harmful": int(np.count_nonzero(classes >= CLASS_DUE)),
                    "sdc": int(np.count_nonzero(classes == CLASS_SDC))}

        counts = context.artifact("interleave-mc", (ways, trials, seed),
                                  strike_campaign)
        label = "SEC-DED x%d interleave" % ways
        row = [label, counts["harmful"] / trials, counts["sdc"] / trials,
               codec.energy_factor()]
        rows.append(row)
        data[ways] = {"harmful": row[1], "sdc": row[2],
                      "energy_factor": row[3]}
    # FTSPM reference: suite geomean vulnerability and its energy ratio
    ftspm_vulns = []
    for name, profile in _suite_profiles():
        ftspm_vulns.append(max(
            context.evaluation(profile, "ftspm").vulnerability, 1e-9))
    rows.append(["FTSPM (structural)", _geomean(ftspm_vulns), "-", "<1"])
    data["ftspm"] = {"harmful": _geomean(ftspm_vulns)}
    return ExperimentResult(
        name="ablation-interleaving",
        title="Ablation: bit-interleaved SEC-DED vs FTSPM's hybrid "
              "structure (Monte-Carlo, closed-form codec outcomes)",
        headers=headers, rows=rows, data=data,
        notes="Interleaving buys MBU tolerance with wider, hungrier "
              "rows; FTSPM reaches a similar vulnerability while "
              "*reducing* energy, which is the paper's core trade.")


def experiment_ablation_scrubbing(words=8_000):
    """Scrubbing frequency vs accumulated-error vulnerability.

    Beyond the paper: independent strikes accumulate between reads, so
    even SEC-DED's single-strike guarantees erode over long missions.
    Sweeping the scrub-epoch count shows the harmful fraction falling
    toward the single-strike floor — context for why FTSPM's immune
    STT-RAM needs no scrub traffic at all.
    """
    from ..config import Protection
    from ..faults.scrubbing import AccumulationCampaign

    headers = ["Scheme", "Scrub epochs", "Harmful fraction",
               "SDC fraction", "Scrub reads/word"]
    rows = []
    data = {}
    context = get_context()
    for protection, label in ((Protection.SECDED, "SEC-DED"),
                              (Protection.PARITY, "parity")):
        data[label] = {}
        for epochs in (1, 2, 4, 16, 64):
            seed = 0x5C12B + epochs

            def accumulate(protection=protection, epochs=epochs,
                           seed=seed):
                campaign = AccumulationCampaign(
                    protection=protection, strike_rate=SCRUB_STRIKE_RATE,
                    scrub_epochs=epochs, seed=seed)
                result = campaign.run(words=words)
                return {
                    "harmful_fraction": result.harmful_fraction,
                    "sdc_fraction": result.sdc_fraction,
                    "scrub_reads_per_word":
                        result.scrub_reads / result.words,
                }

            outcome = context.artifact(
                "scrub-mc",
                (protection.value, words, SCRUB_STRIKE_RATE, epochs, seed),
                accumulate)
            rows.append([label, epochs, outcome["harmful_fraction"],
                         outcome["sdc_fraction"],
                         outcome["scrub_reads_per_word"]])
            data[label][epochs] = {
                "harmful": outcome["harmful_fraction"],
                "sdc": outcome["sdc_fraction"],
            }
    rows.append(["STT-RAM (immune)", "-", 0.0, 0.0, 0.0])
    return ExperimentResult(
        name="ablation-scrubbing",
        title="Ablation: error accumulation vs scrub frequency "
              "(strike rate %.1f strikes/word/mission)" % SCRUB_STRIKE_RATE,
        headers=headers, rows=rows, data=data,
        notes="Scrubbing trades read energy for cleaning accumulated "
              "singles before they pair into DUEs/SDCs; the immune "
              "STT-RAM regions of FTSPM need none.")


EXPERIMENTS.update({
    "ablation-scrubbing": experiment_ablation_scrubbing,
    "ablation-reliability-awareness":
        experiment_ablation_reliability_awareness,
    "ablation-region-sizes": experiment_ablation_region_sizes,
    "ablation-priorities": experiment_ablation_priorities,
    "ablation-mbu": experiment_ablation_mbu,
    "ablation-interleaving": experiment_ablation_interleaving,
})
