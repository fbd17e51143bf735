"""Scenario-fuzzing harness: mine policy inversions at scale.

The paper's thesis — sharing behaviour should steer LLC replacement — holds
over a *region* of scenario space, not everywhere. This module mass-samples
that space and mines it for **policy inversions**: cells where the policy
ordering contradicts the campaign-wide reference frontier, or where the
sharing oracle's gain spikes past a threshold. The pipeline:

1. :func:`sample_scenario` draws scenarios from a seeded generator space —
   randomized sharing-kernel mixes (:mod:`repro.workloads.fuzzmix`),
   f10-style multiprogram combinations, geometry grids, and externally
   ingested ChampSim/Pin traces (:mod:`repro.trace.ingest`);
2. :func:`run_fuzz_scenario` records each scenario's LLC stream and replays
   the policy grid under **set-sampled fidelity** — the sampled substream
   is extracted once (:func:`repro.sim.sampling.sampled_substream`) and
   replayed through the tiered fast paths, so a cell costs a fraction of a
   full study; scenarios fan out as ``fuzz`` cells through the
   fault-tolerant parallel engine with per-cell telemetry;
3. :func:`detect_inversions` ranks policies by campaign-mean miss ratio
   (the reference frontier) and flags ordering flips and oracle-gain
   spikes;
4. interesting cells are re-run **at full fidelity** with probes attached
   (:func:`replay_scenario_full`), cross-checking the sampled counts
   bit-identically against the reference sampled simulator and the
   ``--no-fastpath`` scalar model.

Everything is reproducible from ``(seed, scenario_id)`` alone: scenario
sampling, trace generation, the sampled-set slice, and every policy seed
derive from the campaign seed via :func:`repro.common.rng.derive_seed`.

The machine-readable campaign output (``inversions.json``) is a *corpus*
dict — see :func:`run_fuzz_campaign` — consumed by ``repro-sim fuzz
triage`` and ``repro-sim fuzz replay-cell``.
"""

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import CacheGeometry, MachineConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng, derive_seed
from repro.sim import telemetry
from repro.sim.parallel import ExperimentCell, run_cells
from repro.sim.results import CellFailure
from repro.sim.sampling import (
    SampledLlcSimulator,
    sampled_geometry,
    sampled_substream,
)
from repro.trace.trace import Trace, TraceBuilder

CORPUS_FORMAT_VERSION = 1
"""Bump when the ``inversions.json`` corpus shape changes."""

DEFAULT_POLICIES = ("lru", "lip", "srrip", "drrip", "ship")
"""Policy grid replayed per scenario (spans recency / insertion / RRIP /
dueling / PC-signature families, one per replay tier)."""

DEFAULT_PROBES = ("sharing", "evictions")
"""Probe evidence attached to full-fidelity re-runs of interesting cells."""

_L1 = CacheGeometry(1024, 4)
_L2 = CacheGeometry(4096, 8)
_LLC_OPTIONS = ((32, 4), (32, 8), (64, 4), (64, 8), (128, 4), (128, 8))
"""(sets, ways) LLC grid; inclusion (LLC >= cores * L2) filters per core
count at sample time."""

_CORE_OPTIONS = (2, 4)

_MIX_POOL = ("blackscholes", "swaptions", "fft", "radix", "streamcluster",
             "canneal")
"""Registered models the f10-style multiprogram sampler combines."""

_PAPER_LLC_BYTES = 4 * 1024 * 1024
"""Footprint-scaling anchor: registered models size footprints for the
paper's 4MB machine; fuzz machines divide by their LLC ratio to it."""


@dataclass(frozen=True)
class FuzzConfig:
    """Seeded definition of one fuzzing campaign.

    A campaign is a pure function of this record: serialising it into the
    corpus (``as_dict``) and rebuilding it (``from_dict``) is what lets
    ``fuzz replay-cell`` reproduce any cell bit-identically later.
    """

    seed: int = 42
    scenarios: int = 100
    policies: Tuple[str, ...] = DEFAULT_POLICIES
    base: str = "lru"
    accesses: int = 6000
    sample_ratio: int = 4
    flip_margin: float = 0.02
    spike_threshold: float = 0.08
    mix_fraction: float = 0.25
    max_full: int = 16
    trace_files: Tuple[Tuple[str, str], ...] = ()
    fastpath: Optional[bool] = field(default=None, compare=False)

    def __post_init__(self):
        if self.scenarios < 0:
            raise ConfigError(f"scenarios must be >= 0, got {self.scenarios}")
        if self.sample_ratio < 1:
            raise ConfigError(
                f"sample_ratio must be >= 1, got {self.sample_ratio}"
            )
        if len(self.policies) < 2:
            raise ConfigError("a fuzz campaign needs >= 2 policies to order")
        if not 0.0 <= self.mix_fraction <= 1.0:
            raise ConfigError(
                f"mix_fraction must be in [0, 1], got {self.mix_fraction}"
            )

    @property
    def total_scenarios(self) -> int:
        """Synthetic scenarios plus one per ingested trace file."""
        return self.scenarios + len(self.trace_files)

    def as_dict(self) -> Dict:
        """JSON-friendly view (embedded in every corpus)."""
        return {
            "seed": self.seed,
            "scenarios": self.scenarios,
            "policies": list(self.policies),
            "base": self.base,
            "accesses": self.accesses,
            "sample_ratio": self.sample_ratio,
            "flip_margin": self.flip_margin,
            "spike_threshold": self.spike_threshold,
            "mix_fraction": self.mix_fraction,
            "max_full": self.max_full,
            "trace_files": [list(pair) for pair in self.trace_files],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FuzzConfig":
        """Rebuild a config from :meth:`as_dict` output (extras ignored)."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        if "policies" in kwargs:
            kwargs["policies"] = tuple(kwargs["policies"])
        if "trace_files" in kwargs:
            kwargs["trace_files"] = tuple(
                tuple(pair) for pair in kwargs["trace_files"]
            )
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Scenario sampling
# ----------------------------------------------------------------------

def sample_scenario(config: FuzzConfig, index: int) -> Dict:
    """Deterministically draw scenario ``index`` of the campaign.

    Indices ``[0, config.scenarios)`` are synthetic (kernel mixes and
    multiprogram combinations by ``mix_fraction``); indices past that map
    onto ``config.trace_files`` in order. The returned dict is JSON-able
    and, with the config, fully determines the cell.
    """
    if not 0 <= index < config.total_scenarios:
        raise ConfigError(
            f"scenario index {index} outside [0, {config.total_scenarios})"
        )
    if index >= config.scenarios:
        path, fmt = config.trace_files[index - config.scenarios]
        rng = DeterministicRng(derive_seed(config.seed, "scenario", index))
        cores, llc_sets, llc_ways = _sample_machine(rng)
        return {
            "id": f"s{index:05d}",
            "index": index,
            "kind": "trace",
            "cores": cores,
            "llc_sets": llc_sets,
            "llc_ways": llc_ways,
            "trace_path": str(path),
            "trace_format": fmt,
        }
    rng = DeterministicRng(derive_seed(config.seed, "scenario", index))
    cores, llc_sets, llc_ways = _sample_machine(rng)
    scenario = {
        "id": f"s{index:05d}",
        "index": index,
        "cores": cores,
        "llc_sets": llc_sets,
        "llc_ways": llc_ways,
    }
    if rng.random() < config.mix_fraction:
        scenario["kind"] = "mix"
        scenario["components"] = rng.sample(_MIX_POOL, 2)
    else:
        from repro.workloads.fuzzmix import sample_kernel_mix

        scenario["kind"] = "kernelmix"
        scenario["spec"] = sample_kernel_mix(
            rng.spawn("mixspec"), llc_blocks=llc_sets * llc_ways,
            num_threads=cores,
        )
    return scenario


def _sample_machine(rng: DeterministicRng) -> Tuple[int, int, int]:
    """Draw (cores, llc_sets, llc_ways) honouring the inclusion floor."""
    cores = rng.choice(_CORE_OPTIONS)
    floor = cores * _L2.size_bytes
    options = [
        (sets, ways) for sets, ways in _LLC_OPTIONS
        if sets * ways * _L2.block_bytes >= floor
    ]
    sets, ways = rng.choice(options)
    return cores, sets, ways


def scenario_machine(scenario: Dict) -> MachineConfig:
    """The CMP configuration a scenario runs on."""
    llc = CacheGeometry(
        scenario["llc_sets"] * scenario["llc_ways"] * _L2.block_bytes,
        scenario["llc_ways"],
    )
    return MachineConfig(
        name=f"fuzz-c{scenario['cores']}"
             f"-s{scenario['llc_sets']}x{scenario['llc_ways']}",
        num_cores=scenario["cores"],
        l1=_L1, l2=_L2, llc=llc,
        scale=max(1, _PAPER_LLC_BYTES // llc.size_bytes),
    )


def _fold_trace_threads(trace: Trace, num_cores: int) -> Trace:
    """Fold external-trace thread ids onto the scenario's core count."""
    if trace.num_threads <= num_cores:
        return trace
    builder = TraceBuilder(name=trace.name)
    tids, pcs, addrs, writes = trace.columns()
    for i in range(len(tids)):
        builder.append(tids[i] % num_cores, pcs[i], addrs[i], writes[i] != 0)
    return builder.build()


def scenario_trace(config: FuzzConfig, scenario: Dict) -> Trace:
    """Generate (or ingest) the scenario's interleaved access trace."""
    machine = scenario_machine(scenario)
    seed = derive_seed(config.seed, "trace", scenario["id"])
    kind = scenario["kind"]
    if kind == "kernelmix":
        from repro.workloads.fuzzmix import FuzzKernelMixModel

        model = FuzzKernelMixModel(
            scenario["spec"], name=f"fuzzmix-{scenario['id']}"
        )
        # Spec footprints are already sized against the scenario LLC.
        return model.generate(
            num_threads=machine.num_cores, scale=1,
            target_accesses=config.accesses, seed=seed,
        )
    if kind == "mix":
        from repro.workloads.multiprogram import MultiprogramMix

        mix = MultiprogramMix(scenario["components"])
        return mix.generate(
            num_threads=machine.num_cores, scale=machine.scale,
            target_accesses=config.accesses, seed=seed,
        )
    if kind == "trace":
        from repro.trace.ingest import read_external_trace

        trace = read_external_trace(
            scenario["trace_path"], fmt=scenario["trace_format"],
            limit=config.accesses,
        )
        return _fold_trace_threads(trace, machine.num_cores)
    raise ConfigError(f"unknown scenario kind {kind!r}")


def scenario_stream(config: FuzzConfig, scenario: Dict):
    """Record the scenario's LLC demand stream: ``(stream, machine)``."""
    from repro.sim.multipass import record_llc_stream

    machine = scenario_machine(scenario)
    trace = scenario_trace(config, scenario)
    stream, _stats = record_llc_stream(trace, machine, seed=config.seed)
    return stream, machine


# ----------------------------------------------------------------------
# Sampled-fidelity cell execution
# ----------------------------------------------------------------------

def run_fuzz_scenario(config: FuzzConfig, scenario: Dict) -> Dict:
    """Run one scenario at sampled fidelity; returns its JSON-able record.

    The sampled substream is extracted once and replayed through the tiered
    engine per policy (bit-identical to
    :class:`~repro.sim.sampling.SampledLlcSimulator` on the full stream —
    the full-fidelity pass re-verifies exactly that), then the sharing
    oracle measures its gain over ``config.base`` on the same substream.
    """
    from repro.oracle.runner import run_oracle_study, shared_fill_fraction
    from repro.sim.multipass import run_policy_on_stream

    with telemetry.span("fuzz_scenario", scenario=scenario["id"],
                        kind=scenario["kind"]) as info:
        stream, machine = scenario_stream(config, scenario)
        offset = SampledLlcSimulator.offset_from_seed(
            config.seed, config.sample_ratio, scenario["id"]
        )
        sub = sampled_substream(
            stream, machine.llc, config.sample_ratio, offset
        )
        record = dict(scenario)
        record["sample_ratio"] = config.sample_ratio
        record["sample_offset"] = offset
        record["llc_accesses"] = len(stream)
        record["sampled_accesses"] = len(sub)
        info["llc_accesses"] = len(stream)
        info["sampled_accesses"] = len(sub)
        if not len(sub):
            record["empty"] = True
            return record
        small = sampled_geometry(machine.llc, config.sample_ratio)
        record["policies"] = {
            policy: run_policy_on_stream(
                sub, small, policy, seed=config.seed,
                fastpath=config.fastpath,
            ).as_dict()
            for policy in config.policies
        }
        study = run_oracle_study(
            sub, small, base=config.base, seed=config.seed,
            fastpath=config.fastpath,
        )
        record["oracle_gain"] = study.miss_reduction
        record["shared_fill_fraction"] = shared_fill_fraction(
            sub, small, config.base, config.seed, config.fastpath,
        )
        info["oracle_gain"] = record["oracle_gain"]
    return record


# ----------------------------------------------------------------------
# Inversion detection
# ----------------------------------------------------------------------

def detect_inversions(
    config: FuzzConfig, records: Sequence[Dict]
) -> Tuple[List[str], Dict[str, float]]:
    """Annotate ``records`` in place with flips/spikes; return the frontier.

    The reference frontier is the policy list ordered by campaign-mean miss
    ratio (best first). A record gets a ``flips`` entry for every policy
    pair whose cell-local ordering contradicts the frontier by at least
    ``config.flip_margin`` of miss ratio, and ``oracle_spike`` when the
    sampled oracle gain reaches ``config.spike_threshold``. Returns
    ``(frontier, mean miss ratio by policy)``.
    """
    usable = [r for r in records if r.get("policies")]
    if not usable:
        return list(config.policies), {}
    means = {
        policy: sum(r["policies"][policy]["miss_ratio"] for r in usable)
        / len(usable)
        for policy in config.policies
    }
    frontier = sorted(config.policies, key=lambda p: (means[p], p))
    for record in records:
        cells = record.get("policies")
        if not cells:
            continue
        flips = []
        for i, better in enumerate(frontier):
            for worse in frontier[i + 1:]:
                delta = (cells[better]["miss_ratio"]
                         - cells[worse]["miss_ratio"])
                if delta >= config.flip_margin:
                    flips.append({
                        "expected_better": better,
                        "expected_worse": worse,
                        "delta": delta,
                    })
        record["flips"] = flips
        record["oracle_spike"] = (
            record.get("oracle_gain", 0.0) >= config.spike_threshold
        )
        record["interesting"] = bool(flips) or record["oracle_spike"]
    return frontier, means


# ----------------------------------------------------------------------
# Full-fidelity replay of interesting cells
# ----------------------------------------------------------------------

def replay_scenario_full(
    config: FuzzConfig,
    scenario: Dict,
    campaign_policies: Optional[Dict] = None,
    probes: Sequence[str] = DEFAULT_PROBES,
) -> Dict:
    """Re-run one scenario at full fidelity with differential cross-checks.

    Four verdicts ride on the returned record:

    * ``sampled_match`` — the sampled-fidelity counts recomputed now are
      bit-identical to the campaign's (``campaign_policies``, when given);
    * ``sampled_reference_match`` — the extracted-substream replay agrees
      bit-for-bit with the reference :class:`SampledLlcSimulator` walking
      the full stream;
    * ``fastpath_match`` — the full-fidelity tiered replay agrees
      bit-for-bit with the ``--no-fastpath`` scalar model, per policy;
    * probe evidence (``probe_report``, without its wall-time
      ``profile``) and the full oracle study attach to the base policy's
      full replay.
    """
    from repro.oracle.runner import run_oracle_study, shared_fill_fraction
    from repro.policies.registry import make_policy
    from repro.sim.multipass import run_policy_on_stream
    from repro.sim.probes import run_probed_replay

    stream, machine = scenario_stream(config, scenario)
    offset = SampledLlcSimulator.offset_from_seed(
        config.seed, config.sample_ratio, scenario["id"]
    )
    sub = sampled_substream(stream, machine.llc, config.sample_ratio, offset)
    small = sampled_geometry(machine.llc, config.sample_ratio)
    record: Dict = {
        "id": scenario["id"],
        "sample_offset": offset,
        "llc_accesses": len(stream),
        "sampled_accesses": len(sub),
        "sampled": {},
        "full": {},
        "sampled_match": True,
        "sampled_reference_match": True,
        "fastpath_match": True,
    }
    for policy in config.policies:
        sampled = run_policy_on_stream(
            sub, small, policy, seed=config.seed, fastpath=config.fastpath
        )
        reference = SampledLlcSimulator(
            machine.llc,
            make_policy(policy, seed=derive_seed(config.seed, "replay", policy)),
            sample_ratio=config.sample_ratio, offset=offset,
        ).run(stream)
        reference_ok = (
            sampled.accesses == reference.sampled_accesses
            and sampled.hits == reference.sampled_hits
            and sampled.misses == reference.sampled_misses
        )
        campaign_ok = True
        if campaign_policies is not None:
            prior = campaign_policies.get(policy)
            campaign_ok = bool(prior) and all(
                prior[key] == getattr(sampled, key)
                for key in ("accesses", "hits", "misses")
            )
        fast = run_policy_on_stream(
            stream, machine.llc, policy, seed=config.seed, fastpath=None
        )
        scalar = run_policy_on_stream(
            stream, machine.llc, policy, seed=config.seed, fastpath=False
        )
        tier_ok = (fast.accesses, fast.hits, fast.misses) == (
            scalar.accesses, scalar.hits, scalar.misses
        )
        record["sampled"][policy] = {
            **sampled.as_dict(),
            "reference_match": reference_ok,
            "campaign_match": campaign_ok,
        }
        record["full"][policy] = {
            **fast.as_dict(),
            "scalar_tier": scalar.tier,
            "scalar_backend": scalar.backend,
            "fastpath_match": tier_ok,
        }
        record["sampled_reference_match"] &= reference_ok
        record["sampled_match"] &= campaign_ok
        record["fastpath_match"] &= tier_ok
    study = run_oracle_study(
        stream, machine.llc, base=config.base, seed=config.seed,
        fastpath=config.fastpath,
    )
    record["oracle_gain_full"] = study.miss_reduction
    record["shared_fill_fraction_full"] = shared_fill_fraction(
        stream, machine.llc, config.base, config.seed, config.fastpath,
    )
    if probes:
        report = run_probed_replay(
            stream, machine.llc, config.base, probes=list(probes),
            seed=config.seed, fastpath=config.fastpath,
        )
        # The corpus is a committed artifact: it keeps the report's
        # counts and leaves out its wall-time profile.
        record["probe_report"] = {
            key: value for key, value in report.as_dict().items()
            if key != "profile"
        }
    return record


# ----------------------------------------------------------------------
# Parallel-engine cell adapters (dispatched by repro.sim.parallel)
# ----------------------------------------------------------------------

def execute_fuzz_cell(context, cell: ExperimentCell) -> Dict:
    """Worker entry for a ``fuzz`` cell: sampled-fidelity scenario run."""
    config_json, scenario_json = cell.params
    config = FuzzConfig.from_dict(json.loads(config_json))
    if context is not None and context.fastpath is not None:
        config = replace(config, fastpath=context.fastpath)
    return run_fuzz_scenario(config, json.loads(scenario_json))


def execute_fuzz_full_cell(context, cell: ExperimentCell) -> Dict:
    """Worker entry for a ``fuzz_full`` cell: full-fidelity re-run."""
    config_json, scenario_json, campaign_json = cell.params
    config = FuzzConfig.from_dict(json.loads(config_json))
    if context is not None and context.fastpath is not None:
        config = replace(config, fastpath=context.fastpath)
    campaign = json.loads(campaign_json) if campaign_json else None
    return replay_scenario_full(
        config, json.loads(scenario_json), campaign_policies=campaign
    )


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

def _campaign_context(config: FuzzConfig):
    """A minimal ExperimentContext carrying engine plumbing for fuzz cells.

    Fuzz cells build their own scenario machines and never touch the
    context's artifact cache (``workloads=[]`` guarantees it), but the
    parallel engine still needs a context to mirror into workers.
    """
    from repro.common.config import profile
    from repro.sim.experiment import ExperimentContext

    return ExperimentContext(
        profile("scaled-4mb"), target_accesses=config.accesses,
        seed=config.seed, workloads=[], cache_dir=None,
        fastpath=config.fastpath,
    )


def run_fuzz_campaign(
    config: FuzzConfig,
    jobs: int = 1,
    fail_fast: bool = False,
    retries: int = 1,
    timeout: Optional[float] = None,
) -> Dict:
    """Run a whole campaign; returns the ``inversions.json`` corpus dict.

    Phases: sample every scenario, fan them out as ``fuzz`` cells through
    :func:`repro.sim.parallel.run_cells` (fault-tolerant: a crashing
    scenario becomes a ``failures`` entry, not a lost campaign), detect
    inversions against the campaign frontier, then re-run up to
    ``config.max_full`` interesting cells at full fidelity with probes as
    ``fuzz_full`` cells. Any sampled-vs-full mismatch lands in
    ``corpus["mismatches"]`` — consumers (CI) must fail loudly on it.
    """
    context = _campaign_context(config)
    config_json = json.dumps(config.as_dict(), sort_keys=True)
    scenarios = [
        sample_scenario(config, index)
        for index in range(config.total_scenarios)
    ]
    telemetry.emit("fuzz_campaign_start", scenarios=len(scenarios),
                   seed=config.seed, sample_ratio=config.sample_ratio)
    cells = [
        ExperimentCell(
            "fuzz", scenario["id"],
            (config_json, json.dumps(scenario, sort_keys=True)),
        )
        for scenario in scenarios
    ]
    results = run_cells(
        context, cells, jobs=jobs, fail_fast=fail_fast, retries=retries,
        timeout=timeout,
    )
    records = [r for r in results if not isinstance(r, CellFailure)]
    failures = [r for r in results if isinstance(r, CellFailure)]
    frontier, means = detect_inversions(config, records)
    interesting = [r for r in records if r.get("interesting")]
    full_targets = interesting[: config.max_full]
    truncated = len(interesting) - len(full_targets)
    by_id = {scenario["id"]: scenario for scenario in scenarios}
    full_cells = [
        ExperimentCell(
            "fuzz_full", record["id"],
            (
                config_json,
                json.dumps(by_id[record["id"]], sort_keys=True),
                json.dumps(record["policies"], sort_keys=True),
            ),
        )
        for record in full_targets
    ]
    full_results = run_cells(
        context, full_cells, jobs=jobs, fail_fast=fail_fast,
        retries=retries, timeout=timeout,
    ) if full_cells else []
    full_records = {}
    for cell, result in zip(full_cells, full_results):
        if isinstance(result, CellFailure):
            failures.append(result)
        else:
            full_records[cell.workload] = result
    mismatches = [
        {
            "id": record["id"],
            "sampled_match": record["sampled_match"],
            "sampled_reference_match": record["sampled_reference_match"],
            "fastpath_match": record["fastpath_match"],
        }
        for record in full_records.values()
        if not (record["sampled_match"]
                and record["sampled_reference_match"]
                and record["fastpath_match"])
    ]
    telemetry.emit(
        "fuzz_campaign_done", scenarios=len(records),
        failed=len(failures), interesting=len(interesting),
        mismatches=len(mismatches),
    )
    return {
        "format_version": CORPUS_FORMAT_VERSION,
        "config": config.as_dict(),
        "frontier": list(frontier),
        "policy_mean_miss_ratio": means,
        "scenarios": records,
        "interesting": [record["id"] for record in interesting],
        "full_truncated": truncated,
        "full": full_records,
        "mismatches": mismatches,
        "failures": [failure.as_dict() for failure in failures],
    }


# ----------------------------------------------------------------------
# Corpus helpers (triage / replay-cell)
# ----------------------------------------------------------------------

def load_corpus(path) -> Dict:
    """Read and shape-check an ``inversions.json`` corpus."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            corpus = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read corpus {path}: {error}")
    except ValueError as error:
        raise ConfigError(f"{path}: not a JSON corpus ({error})")
    version = corpus.get("format_version")
    if version != CORPUS_FORMAT_VERSION:
        raise ConfigError(
            f"{path}: corpus format {version!r}, expected "
            f"{CORPUS_FORMAT_VERSION}"
        )
    return corpus


def corpus_scenario(corpus: Dict, scenario_id: str) -> Dict:
    """The campaign record of one scenario id in a corpus."""
    for record in corpus.get("scenarios", ()):
        if record["id"] == scenario_id:
            return record
    raise ConfigError(
        f"scenario {scenario_id!r} is not in this corpus "
        f"({len(corpus.get('scenarios', ()))} scenarios)"
    )


def replay_corpus_cell(corpus: Dict, scenario_id: str,
                       probes: Sequence[str] = DEFAULT_PROBES) -> Dict:
    """Reproduce one corpus cell at full fidelity from its id alone.

    Rebuilds the campaign config, re-samples the scenario from
    ``(seed, index)``, re-runs it at full fidelity, and cross-checks the
    sampled counts against what the corpus recorded. The scenario stored
    in the corpus record and the re-sampled one must agree — a mismatch
    means the corpus was produced by different code and the reproduction
    claim would be vacuous.
    """
    config = FuzzConfig.from_dict(corpus["config"])
    record = corpus_scenario(corpus, scenario_id)
    scenario = sample_scenario(config, record["index"])
    for key, value in scenario.items():
        if record.get(key) != value:
            raise ConfigError(
                f"scenario {scenario_id} re-sampled differently for field "
                f"{key!r}: corpus has {record.get(key)!r}, sampler gives "
                f"{value!r} (corpus from different code or seed?)"
            )
    return replay_scenario_full(
        config, scenario, campaign_policies=record.get("policies"),
        probes=probes,
    )
