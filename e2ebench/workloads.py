"""The benchmark's three workloads and the layer boundaries its traced run wraps.

Each workload is a batch job: a trace generated from the workload seed is
replayed as fast as it goes, serially in one process (``parallelism=1``,
``sweep_parallelism=1``, no pool).  ``setup`` is seeded trace generation
plus columnarizing into a fresh :class:`~repro.trace.store.TraceStore`; it
runs again before every evaluation, so no evaluation sees a store, a
``Trace.long_running`` memo or any other cache filled by an earlier one.
``evaluate`` is one whole evaluation (train -> predict -> plan ->
place/release -> replay meter -> aggregate) and returns an :class:`Outcome`:
the simulated metrics, a fingerprint that must repeat exactly for a seed,
and any broken invariant.

Why each workload exists is recorded in ``Workload.why`` and, with the
layer each one stresses, in this directory's README.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core import cluster_manager
from repro.core.cluster_manager import build_prediction_model
from repro.core.policy import NO_OVERSUBSCRIPTION_POLICY, STANDARD_POLICIES
from repro.core.scheduler import ClusterLedger, ClusterScheduler
from repro.prediction.features import FeatureEncoder, HistoryIndex
from repro.prediction.forest import RandomForestRegressor
from repro.prediction.tree import DecisionTreeRegressor
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    NoOversubscriptionModel,
)
from repro.scenarios import runner as scenario_runner
from repro.scenarios.axes import FailurePlan, skewed_fleet
from repro.scenarios.registry import Scenario, get_scenario
from repro.simulator import sweep
from repro.simulator.engine import ClusterSimulation, SimulationConfig, evaluate_policies
from repro.simulator.metrics import PolicyEvaluation, ViolationStats
from repro.simulator.replay import VectorizedViolationMeter
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.hardware import default_clusters
from repro.trace.store import TraceStore
from repro.trace.trace import Trace

#: Serial replay: one cluster and one policy at a time, no worker pool.
#: Pinned rather than left to the defaults, so a change of default does
#: not silently turn the benchmark parallel.
SERIAL = dict(parallelism=1, sweep_parallelism=1)


@dataclass
class Outcome:
    """What one evaluation produced, reduced to checkable values."""

    #: Simulated metrics: deterministic for a seed.
    sim: Dict[str, float]
    #: JSON-able record whose SHA-256 is the run's ``outcome_sha256``.
    fingerprint: Dict[str, object]
    #: Broken invariants, one message each; empty when all held.
    failures: List[str] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        text = json.dumps(self.fingerprint, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Seed used while the benchmark was tuned, and a second seed kept out
    #: of tuning for confirming a claimed gain.
    dev_seed: int
    heldout_seed: int
    #: Size parameters: ``full`` for measurement, ``tiny`` for the self-test.
    sizes: Dict[str, Dict[str, int]]
    #: ``(seed, size) -> (store-backed trace, context)``.
    setup: Callable[[int, Dict[str, int]], Tuple[Trace, object]]
    #: ``(trace, context) -> Outcome``: one whole evaluation.
    evaluate: Callable[[Trace, object], Outcome]


#: Share of a workload's VMs that are long-running (over a day) and arrive
#: in the trace's first half; for ``coach-vs-none`` exactly the training set.
#: The generator's defaults give about this share.
LONG_FIRST_HALF_SHARE = 0.25


def stratified_trace(generate: Callable[[int], Trace], n_vms: int) -> Trace:
    """A store-backed trace of exactly *n_vms* generated VMs, a fixed share
    of them long-running first-half arrivals.

    Across seeds, the number of such VMs in a generated trace varies by
    about a tenth at these sizes, and with it the training set and most of
    an evaluation's cost.  So the trace is over-generated and the first VMs
    of each stratum are kept: the seed changes what the trace holds, not
    how much work it is.  A stratum that runs short regenerates the trace
    at twice the size, which is as deterministic for a seed.
    """
    long_quota = round(n_vms * LONG_FIRST_HALF_SHARE)
    quotas = {True: long_quota, False: n_vms - long_quota}
    n_generated = n_vms + n_vms // 4
    while True:
        raw = generate(n_generated)
        half = raw.n_slots // 2
        taken = {True: 0, False: 0}
        keep = set()
        for vm in raw.vms:
            stratum = vm.is_long_running() and vm.start_slot < half
            if taken[stratum] < quotas[stratum]:
                taken[stratum] += 1
                keep.add(vm.vm_id)
        if taken == quotas:
            return refresh(raw.filter(lambda vm: vm.vm_id in keep))
        n_generated *= 2


def refresh(trace: Trace) -> Trace:
    """*trace* columnarized into a new store: no cache of an earlier
    evaluation (store id index, ``long_running`` memo) carries over."""
    return TraceStore.from_trace(trace).as_trace()


# ---------------------------------------------------------------------- #
# Checks shared by the policy workloads
# ---------------------------------------------------------------------- #
def _violation_failures(label: str, stats: ViolationStats) -> List[str]:
    failures = []
    for kind, slots in (("cpu", stats.cpu_violation_slots),
                        ("memory", stats.memory_violation_slots)):
        if not 0 <= slots <= stats.observed_server_slots:
            failures.append(f"{label}: {kind} violation slots ({slots}) "
                            f"outside [0, observed "
                            f"{stats.observed_server_slots}]")
    return failures


def _evaluation_failures(name: str, evaluation: PolicyEvaluation,
                         trace: Trace) -> List[str]:
    failures = []
    if evaluation.requested_vms != (evaluation.accepted_vms
                                    + evaluation.rejected_vms):
        failures.append(f"{name}: requested ({evaluation.requested_vms}) != "
                        f"accepted ({evaluation.accepted_vms}) + rejected "
                        f"({evaluation.rejected_vms})")
    # Placement starts at slot 0, so every VM of the trace is requested.
    if evaluation.requested_vms != len(trace):
        failures.append(f"{name}: requested {evaluation.requested_vms} of "
                        f"{len(trace)} VMs")
    if not (0 <= evaluation.servers_in_use <= evaluation.servers_total
            == trace.fleet.total_servers()):
        failures.append(f"{name}: {evaluation.servers_in_use} servers in use "
                        f"of {evaluation.servers_total}")
    return failures + _violation_failures(name, evaluation.violations)


def _policy_outcome(trace: Trace, results: Dict[str, PolicyEvaluation],
                    headline: str) -> Outcome:
    failures: List[str] = []
    for name, evaluation in results.items():
        failures += _evaluation_failures(name, evaluation, trace)
    main = results[headline]
    sim = {
        "cpu_violation_pct": main.violations.cpu_violation_pct,
        "mem_violation_pct": main.violations.memory_violation_pct,
        "rejected_pct": 100.0 * main.rejected_vms / max(1, main.requested_vms),
        "accepted": float(sum(e.accepted_vms for e in results.values())),
        "requested": float(sum(e.requested_vms for e in results.values())),
    }
    if headline != "none":
        sim["extra_capacity_pct"] = main.additional_capacity_pct
    fingerprint = {name: evaluation.to_dict()
                   for name, evaluation in results.items()}
    return Outcome(sim, fingerprint, failures)


# ---------------------------------------------------------------------- #
# coach-vs-none: the prediction layer (Figure 20)
# ---------------------------------------------------------------------- #
def _coach_setup(seed: int, size: Dict[str, int]) -> Tuple[Trace, None]:
    return stratified_trace(
        lambda n_vms: TraceGenerator(TraceGeneratorConfig(
            n_vms=n_vms, n_days=14, seed=seed,
            servers_per_cluster=size["servers_per_cluster"])).generate(),
        size["n_vms"]), None


def _coach_evaluate(trace: Trace, _context: None) -> Outcome:
    policies = {name: STANDARD_POLICIES[name] for name in ("none", "coach")}
    results = evaluate_policies(trace, policies, SimulationConfig(**SERIAL))
    outcome = _policy_outcome(trace, results, headline="coach")
    if results["none"].additional_capacity_pct != 0.0:
        outcome.failures.append("none: extra capacity relative to itself "
                                "is not 0")
    return outcome


# ---------------------------------------------------------------------- #
# large-fleet: the scheduler's best-fit search over a large fleet
# ---------------------------------------------------------------------- #
def _large_setup(seed: int, size: Dict[str, int]) -> Tuple[Trace, None]:
    clusters = default_clusters(size["servers_per_cluster"])[:2]
    return stratified_trace(
        lambda n_vms: TraceGenerator(TraceGeneratorConfig(
            n_vms=n_vms, n_days=7, seed=seed, clusters=clusters)).generate(),
        size["n_vms"]), None


def _large_evaluate(trace: Trace, _context: None) -> Outcome:
    results = evaluate_policies(trace, {"none": STANDARD_POLICIES["none"]},
                                SimulationConfig(**SERIAL))
    return _policy_outcome(trace, results, headline="none")


# ---------------------------------------------------------------------- #
# spot-churn: class-aware admission with releases, drains and crashes
# ---------------------------------------------------------------------- #
def _churn_setup(seed: int,
                 size: Dict[str, int]) -> Tuple[Trace, Tuple[Scenario, SimulationConfig]]:
    scenario = dataclasses.replace(
        get_scenario("spot-churn-with-crashes"), seed=seed,
        fleet=tuple(skewed_fleet(size["servers"])),
        failures=FailurePlan(n_drains=size["drains"],
                             n_crashes=size["crashes"], start_slot=288))
    trace = stratified_trace(
        lambda n_vms: TraceGenerator(dataclasses.replace(
            scenario, n_vms=n_vms).generator_config()).generate(),
        size["n_vms"])
    return trace, (scenario, scenario.simulation_config())


def _churn_evaluate(trace: Trace,
                    context: Tuple[Scenario, SimulationConfig]) -> Outcome:
    """The scenario runner's replay, over a trace generated in setup."""
    scenario, config = context
    policy = NO_OVERSUBSCRIPTION_POLICY
    model = build_prediction_model(policy, [])
    simulations: List[ClusterSimulation] = []
    parts: List[ViolationStats] = []
    for cluster_id in sorted(trace.cluster_ids()):
        sim = ClusterSimulation(trace, cluster_id, policy, model, config)
        parts.append(sim.run().violations)
        simulations.append(sim)
    violations = ViolationStats.merge(parts)

    def total(attr: str) -> int:
        return sum(getattr(sim.manager.stats, attr) for sim in simulations)

    failures = [f"{name}: {message}"
                for name in scenario.expected_invariants
                if (message := scenario_runner.INVARIANTS[name](
                    scenario, config, simulations)) is not None]
    requested, accepted, rejected = (total("requests"), total("accepted"),
                                     total("rejected"))
    evacuated = sum(sim.evacuated for sim in simulations)
    if requested != accepted + rejected:
        failures.append(f"requested ({requested}) != accepted ({accepted}) "
                        f"+ rejected ({rejected})")
    # Every trace VM arrives once; each drained evacuee is re-requested.
    if requested != len(trace) + evacuated:
        failures.append(f"requested {requested} != {len(trace)} arrivals + "
                        f"{evacuated} evacuees")
    failures += _violation_failures("none", violations)
    fingerprint = {
        "requested": requested, "accepted": accepted, "rejected": rejected,
        "preempted": total("preempted"), "evacuated": evacuated,
        "crashed_vms": sum(sim.crashed_vms for sim in simulations),
        "failure_events": len(config.failure_events),
        "observed_server_slots": violations.observed_server_slots,
        "cpu_violation_slots": violations.cpu_violation_slots,
        "memory_violation_slots": violations.memory_violation_slots,
        "decision_ring_sha256": scenario_runner._decision_ring_hash(
            simulations),
    }
    sim = {
        "cpu_violation_pct": violations.cpu_violation_pct,
        "mem_violation_pct": violations.memory_violation_pct,
        "rejected_pct": 100.0 * rejected / max(1, requested),
        "accepted": float(accepted),
        "requested": float(requested),
    }
    return Outcome(sim, fingerprint, failures)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="coach-vs-none",
        why="Figure 20 on a 14-day trace over a tight C1-C10 fleet: forest "
            "training and per-VM prediction dominate",
        dev_seed=11, heldout_seed=12,
        sizes={"full": {"n_vms": 400, "servers_per_cluster": 1},
               "tiny": {"n_vms": 120, "servers_per_cluster": 1}},
        setup=_coach_setup, evaluate=_coach_evaluate),
    Workload(
        name="large-fleet",
        why="none policy on 2 clusters x 10000 servers: arrival batches "
            "through place_batch and the tiered best-fit index",
        dev_seed=21, heldout_seed=22,
        sizes={"full": {"n_vms": 3000, "servers_per_cluster": 10000},
               "tiny": {"n_vms": 150, "servers_per_cluster": 200}},
        setup=_large_setup, evaluate=_large_evaluate),
    Workload(
        name="spot-churn",
        why="spot-churn-with-crashes scaled up: class-aware sequential "
            "place, preemptions, releases, drains and crashes",
        dev_seed=31, heldout_seed=32,
        sizes={"full": {"n_vms": 3000, "servers": 24, "drains": 15,
                        "crashes": 8},
               "tiny": {"n_vms": 200, "servers": 6, "drains": 2,
                        "crashes": 1}},
        setup=_churn_setup, evaluate=_churn_evaluate),
)}


# ---------------------------------------------------------------------- #
# Layer boundaries of the traced run
# ---------------------------------------------------------------------- #
def _decision_counts(args: tuple, result) -> Dict[str, float]:
    decisions = result if isinstance(result, list) else [result]
    accepted = sum(1 for decision in decisions if decision.accepted)
    return {"core.accepted": accepted,
            "core.rejected": len(decisions) - accepted,
            "core.preempted": sum(len(d.preempted) for d in decisions)}


def install_spans(recorder) -> None:
    """Wrap each layer's public entry points in *recorder* spans.

    ``simulate_policy`` is wrapped where the policy sweep looks it up, and
    ``plan_vm`` where the cluster manager does, because both modules bind
    the name at import.
    """
    wrap = recorder.wrap
    wrap(TraceGenerator, "generate", "trace.generate")
    wrap(TraceStore, "from_trace", "trace.columnarize",
         lambda args, store: {"trace.vms": len(store),
                              "trace.samples": int(store.row_length.sum())})
    wrap(TraceStore, "as_trace", "trace.columnarize")
    wrap(LongTermUtilizationModel, "fit", "prediction.fit",
         lambda args, model: {
             "prediction.training_rows": model.report.n_training_rows})
    wrap(HistoryIndex, "build", "prediction.history_index")
    wrap(FeatureEncoder, "encode_all_windows", "prediction.encode")
    wrap(RandomForestRegressor, "fit", "prediction.forest_fit")
    wrap(LongTermUtilizationModel, "predict", "prediction.predict")
    wrap(NoOversubscriptionModel, "predict", "prediction.predict")
    wrap(DecisionTreeRegressor, "predict", "prediction.tree_predict")
    wrap(cluster_manager, "plan_vm", "core.plan")
    wrap(ClusterScheduler, "__init__", "core.build")
    wrap(ClusterScheduler, "place", "core.place", _decision_counts)
    wrap(ClusterScheduler, "place_batch", "core.place_batch", _decision_counts)
    wrap(ClusterLedger, "best_fit_row", "core.best_fit")
    wrap(ClusterScheduler, "deallocate", "core.release")
    wrap(ClusterScheduler, "disable_server", "core.disable_server")
    wrap(VectorizedViolationMeter, "measure", "simulator.meter",
         lambda args, stats: {
             "simulator.server_slots": stats.observed_server_slots})
    wrap(sweep, "simulate_policy", "simulator.engine")
    wrap(ClusterSimulation, "run", "simulator.engine",
         lambda args, result: {"simulator.evacuated": args[0].evacuated,
                               "simulator.crashed_vms": args[0].crashed_vms})
