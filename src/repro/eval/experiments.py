"""Per-table / per-figure regeneration harness.

Every table and figure of the paper has one experiment here; the
``benchmarks/`` tree exposes one pytest-benchmark target per experiment.
Each experiment returns an :class:`ExperimentResult` carrying structured
rows, a rendered text block, and a ``data`` dict with the headline
numbers that tests and EXPERIMENTS.md reference.

Suite experiments (Figs. 4–8) run the analytic pipeline over the
MiBench-like models; case-study experiments (Tables I–III, Fig. 2, the
Section IV scalars) execute the real program on the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import (
    baseline_sram_config,
    baseline_sttram_config,
    ftspm_config,
)
from ..errors import ConfigurationError
from ..pipeline import get_context
from ..profile.report import format_profile_table
from ..tech.nvsim_lite import ArrayModel
from ..units import PICOJOULE, format_lifetime
from ..workloads.synthetic import mibench_names
from .distribution import region_distribution
from .endurance import endurance_analysis
from .structures import STRUCTURES
from .tables import render_table


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    name: str
    title: str
    headers: list
    rows: list
    data: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def text(self):
        body = render_table(self.headers, self.rows, title=self.title)
        if self.notes:
            body += "\n\n" + self.notes
        return body


# --- shared pipelines -------------------------------------------------------
#
# Every experiment draws its artifacts (profiles, plans, evaluations,
# simulation scalars) from the process-wide EvaluationContext, so a full
# report assembles, simulates, and profiles each unique workload exactly
# once — and replays from disk when the context carries an ArtifactStore.
# The thin wrappers below keep the historic private entry points alive.


def _suite_evaluations():
    """{benchmark: {structure: StructureEvaluation}} over the suite."""
    return get_context().suite_evaluations()


def _case_study_profile(array_words, outer_iterations):
    return get_context().case_study(array_words, outer_iterations)


def _case_study_runs(array_words, outer_iterations):
    """Full-simulation scalars of the case study on all three structures."""
    return get_context().case_runs(array_words, outer_iterations)


# --- Table I -----------------------------------------------------------------

def experiment_table1(array_words=256, outer_iterations=4):
    """Table I: profiling of the case-study program."""
    _, profile = _case_study_profile(array_words, outer_iterations)
    headers = ["Block", "Reads", "Writes", "Avg R/Ref", "Avg W/Ref",
               "Stack Calls", "Max Stack (B)", "Life-Time (Cycles)"]
    rows = []
    for name in ("Main", "Mul", "Add", "Array1", "Array2", "Array3",
                 "Array4", "Stack"):
        stats = profile.get(name)
        rows.append([
            name, stats.reads, stats.writes,
            round(stats.avg_reads_per_reference),
            round(stats.avg_writes_per_reference),
            stats.stack_calls, stats.max_stack_bytes, stats.life_time,
        ])
    data = {
        "mul_reads": profile.get("Mul").reads,
        "main_stack_calls": profile.get("Main").stack_calls,
        "array2_writes": profile.get("Array2").writes,
        "array1_writes": profile.get("Array1").writes,
        "total_cycles": profile.total_cycles,
    }
    return ExperimentResult(
        name="table1",
        title="Table I: case-study profiling "
              "(%d-word arrays, %d outer iterations)"
              % (array_words, outer_iterations),
        headers=headers, rows=rows, data=data,
        notes=format_profile_table(profile),
    )


# --- Table II -----------------------------------------------------------------

def experiment_table2(array_words=256, outer_iterations=4):
    """Table II: MDA output for the case study."""
    _, profile = _case_study_profile(array_words, outer_iterations)
    _, _, result = get_context().plan(profile, "ftspm")
    headers = ["Block", "Mapped to SPM", "Region"]
    rows = [list(row) for row in result.plan.table_rows(profile)]
    placement = {row[0]: row[2] for row in rows}
    data = {
        "placement": placement,
        "evicted": sorted(result.evicted),
        "write_threshold": result.write_threshold,
    }
    return ExperimentResult(
        name="table2",
        title="Table II: Mapping Determiner output (case study)",
        headers=headers, rows=rows, data=data,
        notes="\n".join(
            "step%d %-8s %-16s %s" % (d.step, d.block, d.action, d.detail)
            for d in result.decisions),
    )


# --- Table III -----------------------------------------------------------------

def experiment_table3(array_words=256, outer_iterations=4):
    """Table III: endurance of pure STT-RAM SPM vs FTSPM (case study)."""
    _, profile = _case_study_profile(array_words, outer_iterations)
    evaluations = {
        structure: get_context().evaluation(profile, structure)
        for structure in ("baseline-sttram", "ftspm")
    }
    analysis = endurance_analysis(evaluations)
    headers = ["Write Threshold", "Pure STT-RAM SPM", "FTSPM"]
    rows = analysis.table_rows()
    data = {
        "improvement": analysis.improvement(),
        "stt_rate": analysis.write_rates["baseline-sttram"],
        "ftspm_rate": analysis.write_rates["ftspm"],
    }
    return ExperimentResult(
        name="table3",
        title="Table III: endurance (time to hottest-cell wear-out)",
        headers=headers, rows=rows, data=data,
        notes="lifetime improvement: %.0fx" % data["improvement"],
    )


# --- Table IV -----------------------------------------------------------------

def experiment_table4():
    """Table IV: configuration parameters of the three structures."""
    headers = ["Structure", "Memory", "Type", "Size",
               "Read Latency", "Write Latency"]
    rows = []
    labels = {
        "baseline-sram": baseline_sram_config(),
        "baseline-sttram": baseline_sttram_config(),
        "ftspm": ftspm_config(),
    }
    for structure, config in labels.items():
        rows.append([structure, "cache", "unprotected SRAM",
                     "%d KB" % (config.cache.size // 1024),
                     "%d clock" % config.cache.latency,
                     "%d clock" % config.cache.latency])
        for spm in (config.instruction_spm, config.data_spm):
            for region in spm.regions:
                rows.append([
                    structure, spm.name,
                    "%s (%s)" % (region.technology.value,
                                 region.protection.value),
                    "%d KB" % (region.size // 1024),
                    "%d clock" % region.read_latency,
                    "%d clock" % region.write_latency,
                ])
    data = {"structures": list(labels)}
    return ExperimentResult(
        name="table4",
        title="Table IV: configuration parameters (FaCSim substitute)",
        headers=headers, rows=rows, data=data)


# --- Fig. 2 -------------------------------------------------------------------

def experiment_fig2(array_words=256, outer_iterations=4):
    """Fig. 2: case-study read/write distribution over FTSPM."""
    _, profile = _case_study_profile(array_words, outer_iterations)
    config, plan, _ = get_context().plan(profile, "ftspm")
    dist = region_distribution(profile, plan, config)
    headers = ["Bucket", "Read %", "Write %"]
    rows = []
    for bucket, label in (("ispm-stt", "I-SPM (STT-RAM)"),
                          ("dstt", "D-SPM STT-RAM"),
                          ("ecc", "ECC SRAM (of SRAM traffic)"),
                          ("parity", "Parity SRAM (of SRAM traffic)"),
                          ("unmapped", "Unmapped (cache)")):
        if bucket in ("ecc", "parity"):
            read_pct = 100 * dist.sram_fraction("read", bucket)
            write_pct = 100 * dist.sram_fraction("write", bucket)
        else:
            read_pct = 100 * dist.fraction("read", bucket)
            write_pct = 100 * dist.fraction("write", bucket)
        rows.append([label, read_pct, write_pct])
    data = {
        "stt_write_fraction": dist.fraction("write", "dstt"),
        "sram_write_fraction": (dist.fraction("write", "ecc")
                                + dist.fraction("write", "parity")),
    }
    return ExperimentResult(
        name="fig2",
        title="Fig. 2: case-study access distribution over FTSPM",
        headers=headers, rows=rows, data=data)


# --- Fig. 3 -------------------------------------------------------------------

def experiment_fig3(node_nm=40):
    """Fig. 3: dynamic energy per access of every region type."""
    model = ArrayModel(node_nm)
    from ..config import MemoryTechnology, Protection
    regions = [
        ("parity SRAM 2KB", MemoryTechnology.SRAM, 2048, Protection.PARITY),
        ("SEC-DED SRAM 2KB", MemoryTechnology.SRAM, 2048, Protection.SECDED),
        ("STT-RAM 12KB", MemoryTechnology.STT_RAM, 12288, Protection.NONE),
        ("STT-RAM 16KB (I-SPM)", MemoryTechnology.STT_RAM, 16384,
         Protection.NONE),
        ("SEC-DED SRAM 16KB (baseline)", MemoryTechnology.SRAM, 16384,
         Protection.SECDED),
    ]
    headers = ["Region", "Read (pJ)", "Write (pJ)"]
    rows = []
    estimates = {}
    for label, technology, size, protection in regions:
        estimate = model.estimate(label, technology, size, protection)
        estimates[label] = estimate
        rows.append([label,
                     estimate.read_energy / PICOJOULE,
                     estimate.write_energy / PICOJOULE])
    stt = estimates["STT-RAM 12KB"]
    parity = estimates["parity SRAM 2KB"]
    secded16 = estimates["SEC-DED SRAM 16KB (baseline)"]
    data = {
        "stt_write_over_sram_write":
            stt.write_energy / secded16.write_energy,
        "stt_read_under_sram_read":
            stt.read_energy < secded16.read_energy,
        "parity_cheapest_write":
            parity.write_energy <= min(
                e.write_energy for e in estimates.values()),
    }
    return ExperimentResult(
        name="fig3",
        title="Fig. 3: dynamic energy per access (nvsim-lite, %d nm)"
              % node_nm,
        headers=headers, rows=rows, data=data)


# --- Fig. 4 -------------------------------------------------------------------

def experiment_fig4():
    """Fig. 4: per-benchmark read/write distribution over FTSPM."""
    headers = ["Benchmark", "I-SPM R%", "D-STT R%", "D-STT W%",
               "ECC R% (SRAM)", "ECC W% (SRAM)", "Parity R% (SRAM)",
               "Parity W% (SRAM)", "Unmapped %"]
    rows = []
    data = {"stt_write_fraction": {}, "sram_write_share": {}}
    context = get_context()
    for name in mibench_names():
        profile = context.synthetic_profile(name)
        config, plan, _ = context.plan(profile, "ftspm")
        dist = region_distribution(profile, plan, config)
        rows.append([
            name,
            100 * dist.fraction("read", "ispm-stt"),
            100 * dist.fraction("read", "dstt"),
            100 * dist.fraction("write", "dstt"),
            100 * dist.sram_fraction("read", "ecc"),
            100 * dist.sram_fraction("write", "ecc"),
            100 * dist.sram_fraction("read", "parity"),
            100 * dist.sram_fraction("write", "parity"),
            100 * (dist.fraction("read", "unmapped")
                   + dist.fraction("write", "unmapped")) / 2,
        ])
        data["stt_write_fraction"][name] = dist.fraction("write", "dstt")
    return ExperimentResult(
        name="fig4",
        title="Fig. 4: access distribution over FTSPM (MiBench-like suite)",
        headers=headers, rows=rows, data=data,
        notes="The MDA deports write-intensive blocks: the D-SPM STT-RAM "
              "write share stays small across the suite.")


# --- measured-campaign hook (Fig. 5 / Section IV validation) -----------------

def _measured_vulnerability(profile, structure, trials, jobs, seed):
    """95% Wilson CI of a measured campaign on one (workload, structure).

    Uses the region-surface reading of Fig. 5, so the interval is
    directly comparable to the analytic value in the same row.  The
    interval is a pipeline artifact: deterministic in (profile,
    structure, trials, seed), so a disk-backed context replays it.
    The sampler-discipline tag salts the key: it changes when the
    canonical strike stream changes, orphaning intervals measured under
    the old discipline.
    """
    context = get_context()

    def compute():
        from ..campaign import CampaignRunner, CampaignSpec

        spec = CampaignSpec.from_structure(
            profile, structure, trials=trials, seed=seed)
        summary = CampaignRunner(spec, jobs=jobs).run()
        return summary.interval("harmful")

    from ..campaign.seeding import SAMPLING_DISCIPLINE

    return context.artifact(
        "measured-vulnerability",
        (context.profile_key(profile), structure, trials, seed,
         SAMPLING_DISCIPLINE),
        compute)


# --- Fig. 5 -------------------------------------------------------------------

def experiment_fig5(measured_trials=0, measured_jobs=1,
                    measured_seed=0xF7F7):
    """Fig. 5: vulnerability of FTSPM vs the pure SRAM baseline.

    With ``measured_trials > 0`` every FTSPM value is cross-checked by a
    Monte-Carlo campaign (:mod:`repro.campaign`) through the real codecs:
    two extra columns carry the measured rate with its 95% Wilson CI,
    and ``data["measured"]`` records whether each CI brackets the
    analytic value.
    """
    headers = ["Benchmark", "FTSPM", "Pure SRAM", "Ratio (SRAM/FTSPM)"]
    if measured_trials:
        headers += ["Measured (MC)", "95% CI"]
    rows = []
    ratios = []
    measured = {}
    evaluations = _suite_evaluations()
    for name in mibench_names():
        ftspm = evaluations[name]["ftspm"]
        sram = evaluations[name]["baseline-sram"]
        ratio = sram.vulnerability / max(ftspm.vulnerability, 1e-12)
        ratios.append(ratio)
        row = [name, ftspm.vulnerability, sram.vulnerability, ratio]
        if measured_trials:
            interval = _measured_vulnerability(
                get_context().synthetic_profile(name), "ftspm",
                measured_trials, measured_jobs, measured_seed)
            measured[name] = {
                "vulnerability": interval.point,
                "low": interval.low,
                "high": interval.high,
                "brackets_analytic": interval.brackets(
                    ftspm.vulnerability),
            }
            row += [interval.point,
                    "[%.5f, %.5f]" % (interval.low, interval.high)]
        rows.append(row)
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    data = {
        "mean_ratio": sum(ratios) / len(ratios),
        "geomean_ratio": geomean,
        "min_ratio": min(ratios),
        "sram_values": [row[2] for row in rows],
    }
    if measured_trials:
        data["measured"] = measured
    from .charts import render_bar_chart
    chart = render_bar_chart(
        [row[0] for row in rows],
        {"FTSPM": [row[1] for row in rows],
         "pure SRAM": [row[2] for row in rows]},
        value_format="%.4f")
    rows.append(["geomean", "-", "-", geomean]
                + (["-", "-"] if measured_trials else []))
    return ExperimentResult(
        name="fig5",
        title="Fig. 5: SPM vulnerability (paper: ~7x lower for FTSPM)",
        headers=headers, rows=rows, data=data,
        notes=chart + "\n\nPure STT-RAM SPM is immune (vulnerability 0), "
              "as in the paper it is omitted from the figure.")


# --- Fig. 6 -------------------------------------------------------------------

def experiment_fig6():
    """Fig. 6: static energy per benchmark, all three structures."""
    headers = ["Benchmark", "FTSPM (uJ)", "SRAM (uJ)", "STT (uJ)",
               "FTSPM/SRAM", "STT/SRAM"]
    rows = []
    ftspm_ratios, stt_ratios = [], []
    for name, evals in _suite_evaluations().items():
        ftspm = evals["ftspm"].static_energy
        sram = evals["baseline-sram"].static_energy
        stt = evals["baseline-sttram"].static_energy
        ftspm_ratios.append(ftspm / sram)
        stt_ratios.append(stt / sram)
        rows.append([name, ftspm * 1e6, sram * 1e6, stt * 1e6,
                     ftspm / sram, stt / sram])
    data = {
        "ftspm_over_sram": sum(ftspm_ratios) / len(ftspm_ratios),
        "stt_over_sram": sum(stt_ratios) / len(stt_ratios),
    }
    from .charts import render_bar_chart
    chart = render_bar_chart(
        [row[0] for row in rows],
        {"FTSPM": [row[1] for row in rows],
         "SRAM": [row[2] for row in rows],
         "STT": [row[3] for row in rows]},
        value_format="%.1f uJ")
    return ExperimentResult(
        name="fig6",
        title="Fig. 6: static energy (leakage x runtime)",
        headers=headers, rows=rows, data=data,
        notes=chart + "\n\nPaper: FTSPM ~45%% below pure SRAM; measured "
              "mean ratio %.2f (STT ratio %.2f)."
              % (data["ftspm_over_sram"], data["stt_over_sram"]))


# --- Fig. 7 -------------------------------------------------------------------

def experiment_fig7():
    """Fig. 7: dynamic energy per benchmark, all three structures."""
    headers = ["Benchmark", "FTSPM (uJ)", "SRAM (uJ)", "STT (uJ)",
               "FTSPM/SRAM", "FTSPM/STT"]
    rows = []
    over_sram, over_stt = [], []
    for name, evals in _suite_evaluations().items():
        ftspm = evals["ftspm"].dynamic_energy
        sram = evals["baseline-sram"].dynamic_energy
        stt = evals["baseline-sttram"].dynamic_energy
        over_sram.append(ftspm / sram)
        over_stt.append(ftspm / stt)
        rows.append([name, ftspm * 1e6, sram * 1e6, stt * 1e6,
                     ftspm / sram, ftspm / stt])
    data = {
        "ftspm_over_sram": sum(over_sram) / len(over_sram),
        "ftspm_over_stt": sum(over_stt) / len(over_stt),
    }
    from .charts import render_bar_chart
    chart = render_bar_chart(
        [row[0] for row in rows],
        {"FTSPM": [row[1] for row in rows],
         "SRAM": [row[2] for row in rows],
         "STT": [row[3] for row in rows]},
        value_format="%.1f uJ")
    return ExperimentResult(
        name="fig7",
        title="Fig. 7: dynamic energy",
        headers=headers, rows=rows, data=data,
        notes=chart + "\n\nPaper: FTSPM dynamic energy 47%% below pure "
              "SRAM and 77%% below pure STT-RAM; measured mean ratios "
              "%.2f / %.2f." % (data["ftspm_over_sram"],
                                data["ftspm_over_stt"]))


# --- Fig. 8 -------------------------------------------------------------------

def experiment_fig8():
    """Fig. 8: endurance per benchmark (FTSPM vs pure STT-RAM)."""
    headers = ["Benchmark", "STT hottest (wr/s)", "FTSPM hottest (wr/s)",
               "Improvement", "Lifetime @1e12 (STT)", "Lifetime @1e12 (FTSPM)"]
    rows = []
    improvements = []
    for name, evals in _suite_evaluations().items():
        analysis = endurance_analysis(evals)
        improvement = analysis.improvement()
        improvements.append(improvement)
        rows.append([
            name,
            analysis.write_rates["baseline-sttram"],
            analysis.write_rates["ftspm"],
            improvement,
            format_lifetime(analysis.lifetime_seconds(
                "baseline-sttram", 1e12)),
            "inf" if analysis.lifetime_seconds("ftspm", 1e12) == float("inf")
            else format_lifetime(analysis.lifetime_seconds("ftspm", 1e12)),
        ])
    finite = [i for i in improvements if i != float("inf")]
    data = {
        "improvements": improvements,
        "geomean_improvement": (
            math.exp(sum(math.log(i) for i in finite) / len(finite))
            if finite else float("inf")),
    }
    from .charts import render_bar_chart
    chart = render_bar_chart(
        [row[0] for row in rows],
        {"improvement": [
            0 if value == float("inf") else value
            for value in improvements]},
        log_scale=True, value_format="%.3gx")
    return ExperimentResult(
        name="fig8",
        title="Fig. 8: STT-RAM endurance (paper: ~3 orders of magnitude)",
        headers=headers, rows=rows, data=data,
        notes=chart + "\n(bar length is log-scaled)")


# --- Section IV / V scalars -------------------------------------------------------

def experiment_case_scalars(array_words=256, outer_iterations=4,
                            measured_trials=0, measured_jobs=1,
                            measured_seed=0xF7F7):
    """Section IV scalars: reliability, energy deltas, full simulation.

    With ``measured_trials > 0`` the analytic vulnerability row gains a
    Monte-Carlo counterpart: a measured campaign per structure with its
    95% Wilson CI (``data["measured_vulnerability"]``).
    """
    _, profile, runs = _case_study_runs(array_words, outer_iterations)
    ftspm, sram, stt = (runs["ftspm"], runs["baseline-sram"],
                        runs["baseline-sttram"])
    headers = ["Metric", "FTSPM", "Pure SRAM", "Pure STT-RAM"]
    rows = [
        ["cycles", ftspm["cycles"], sram["cycles"], stt["cycles"]],
        ["dynamic energy (uJ)", ftspm["dynamic_energy"] * 1e6,
         sram["dynamic_energy"] * 1e6, stt["dynamic_energy"] * 1e6],
        ["static energy (uJ)", ftspm["static_energy"] * 1e6,
         sram["static_energy"] * 1e6, stt["static_energy"] * 1e6],
        ["vulnerability", ftspm["vulnerability"], sram["vulnerability"],
         stt["vulnerability"]],
        ["reliability", ftspm["reliability"], sram["reliability"],
         stt["reliability"]],
    ]
    measured = {}
    if measured_trials:
        for structure in ("ftspm", "baseline-sram"):
            interval = _measured_vulnerability(
                profile, structure, measured_trials, measured_jobs,
                measured_seed)
            measured[structure] = {
                "vulnerability": interval.point,
                "low": interval.low,
                "high": interval.high,
                "brackets_analytic": interval.brackets(
                    runs[structure]["vulnerability"]),
            }
        rows.append([
            "measured vulnerability (MC)",
            "%.5f [%.5f, %.5f]" % (
                measured["ftspm"]["vulnerability"],
                measured["ftspm"]["low"], measured["ftspm"]["high"]),
            "%.5f [%.5f, %.5f]" % (
                measured["baseline-sram"]["vulnerability"],
                measured["baseline-sram"]["low"],
                measured["baseline-sram"]["high"]),
            "0 (immune)",
        ])
    data = {
        "reliability_ftspm": ftspm["reliability"],
        "reliability_sram": sram["reliability"],
        "dynamic_reduction_vs_sram":
            1 - ftspm["dynamic_energy"] / sram["dynamic_energy"],
        "static_reduction_vs_sram":
            1 - ftspm["static_energy"] / sram["static_energy"],
        "perf_overhead_vs_sram":
            ftspm["cycles"] / sram["cycles"] - 1,
        "vulnerability_ratio":
            sram["vulnerability"] / max(ftspm["vulnerability"], 1e-12),
    }
    if measured:
        data["measured_vulnerability"] = measured
    return ExperimentResult(
        name="case-scalars",
        title="Section IV scalars (full simulation of the case study)",
        headers=headers, rows=rows, data=data,
        notes="Paper: reliability 86%% vs 62%%; dynamic -44%%, "
              "static -56%% vs the SRAM baseline.")


def experiment_perf_overhead():
    """Section V scalar: FTSPM performance overhead vs pure SRAM (<1%)."""
    headers = ["Benchmark", "FTSPM cycles", "SRAM cycles", "Overhead %"]
    rows = []
    overheads = []
    for name, evals in _suite_evaluations().items():
        ftspm = evals["ftspm"].cycles
        sram = evals["baseline-sram"].cycles
        overhead = 100 * (ftspm / sram - 1)
        overheads.append(overhead)
        rows.append([name, ftspm, sram, overhead])
    data = {
        "mean_overhead_percent": sum(overheads) / len(overheads),
        "max_overhead_percent": max(overheads),
    }
    return ExperimentResult(
        name="perf-overhead",
        title="Performance overhead of FTSPM vs pure SRAM SPM "
              "(paper: negligible, <1%)",
        headers=headers, rows=rows, data=data)


def experiment_kernels_sweep(kernels=None):
    """Full-simulation validation sweep: every real kernel on every
    structure, with golden-result verification under remapping.

    This is the measured (not modelled) counterpart of Figs. 5-7: cycles,
    dynamic and static energy come from actually executing the kernels
    through the routed memory hierarchy, and every run's outputs are
    checked against the Python golden results.
    """
    from ..workloads.kernels import kernel_names

    headers = ["Kernel", "Structure", "Cycles", "Dyn energy (nJ)",
               "Static energy (nJ)", "Max STT word writes", "Golden"]
    rows = []
    data = {"ftspm_dyn_over_sram": {}, "verified": 0, "runs": 0}
    context = get_context()
    for name in kernels or kernel_names():
        per_structure = {}
        for structure in STRUCTURES:
            outcome = context.kernel_run(name, structure)
            per_structure[structure] = outcome["dynamic_energy"]
            data["runs"] += 1
            data["verified"] += outcome["verified"]
            rows.append([
                name, structure, outcome["cycles"],
                outcome["dynamic_energy"] * 1e9,
                outcome["static_energy"] * 1e9,
                outcome["stt_writes"],
                "ok" if outcome["verified"] else "FAIL",
            ])
        data["ftspm_dyn_over_sram"][name] = (
            per_structure["ftspm"] / per_structure["baseline-sram"])
    return ExperimentResult(
        name="kernels-sweep",
        title="Full-simulation sweep: real kernels x structures "
              "(golden-verified)",
        headers=headers, rows=rows, data=data)


def experiment_static_power():
    """Section V scalar: SPM static power (7.1 / 15.8 / 3.0 mW)."""
    from ..tech.nvsim_lite import energy_models_for
    headers = ["Structure", "SPM leakage (mW)", "Paper (mW)"]
    paper = {"ftspm": 7.1, "baseline-sram": 15.8, "baseline-sttram": 3.0}
    configs = {"ftspm": ftspm_config(),
               "baseline-sram": baseline_sram_config(),
               "baseline-sttram": baseline_sttram_config()}
    rows = []
    data = {}
    for structure, config in configs.items():
        models = energy_models_for(config)
        leakage = sum(
            models[region.name].leakage_power
            for spm in (config.instruction_spm, config.data_spm)
            for region in spm.regions)
        rows.append([structure, leakage * 1e3, paper[structure]])
        data[structure] = leakage * 1e3
    return ExperimentResult(
        name="static-power",
        title="SPM static power (calibration check)",
        headers=headers, rows=rows, data=data)


# --- registry ----------------------------------------------------------------------

EXPERIMENTS = {
    "table1": experiment_table1,
    "table2": experiment_table2,
    "table3": experiment_table3,
    "table4": experiment_table4,
    "fig2": experiment_fig2,
    "fig3": experiment_fig3,
    "fig4": experiment_fig4,
    "fig5": experiment_fig5,
    "fig6": experiment_fig6,
    "fig7": experiment_fig7,
    "fig8": experiment_fig8,
    "case-scalars": experiment_case_scalars,
    "perf-overhead": experiment_perf_overhead,
    "static-power": experiment_static_power,
    "kernels-sweep": experiment_kernels_sweep,
}


def experiment_names():
    return sorted(EXPERIMENTS)


def run_experiment(name, **params):
    """Run one named experiment; returns its :class:`ExperimentResult`."""
    try:
        factory = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown experiment %r (available: %s)"
            % (name, ", ".join(experiment_names()))) from None
    return factory(**params)
