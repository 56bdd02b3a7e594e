"""Differential tests for the scheduler's row caches and best-fit paths.

These contracts are pinned here:

* the :class:`ClusterLedger` caches (``demand_peak`` / ``va_peak`` /
  ``score_base`` / ``row_used``) stay *bitwise* equal to a fresh
  full-matrix recompute after thousands of interleaved commit/release
  cycles -- the float-drift regression for the summation-order contract;
* :class:`ClusterScheduler` placement (``place`` and
  :meth:`ClusterScheduler.place_batch`) produces decision sequences
  identical to a dense-only driver over
  :meth:`ClusterLedger.best_fit_row_dense` and to sequential
  :meth:`place`, including rejection ordering on saturated clusters;
* the over-release accounting fixes: :meth:`ClusterLedger.release_row`
  raises on genuinely negative residues (double release, never-committed
  plans) instead of clamping, and
  :func:`bulk_cpu_capacity_and_memory_backing` returns empty vectors for
  empty account sequences (zero-server clusters);
* the tiered candidate index: decisions at 100k servers (the band-descent
  regime) stay bitwise equal to sequential ``place`` and the dense
  reference, a scan that gives up (``_TIERED_UNDECIDED``) falls back to
  the dense decision, rejection ordering survives batch saturation, and
  an index rebuilt from scratch is indistinguishable -- structurally and
  behaviourally -- from one maintained incrementally through
  commit/release churn.
"""

import numpy as np
import pytest

from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import (
    _TIERED_MIN_SERVERS,
    _TIERED_UNDECIDED,
    SCORE_TOLERANCE,
    ClusterLedger,
    ClusterScheduler,
    PlacementDecision,
    ServerAccount,
    bulk_cpu_capacity_and_memory_backing,
    plan_demand_matrix,
    _plan_screen_stats,
)
from repro.simulator.synthetic import build_scaled_bench_cluster
from repro.core.windows import plan_vm
from repro.prediction.utilization_model import WindowUtilizationPrediction
from repro.trace.hardware import HARDWARE_GENERATIONS, ClusterConfig
from repro.trace.timeseries import TimeWindowConfig

WINDOWS = TimeWindowConfig(4)

SMALL_CLUSTER = ClusterConfig(
    "INC", "test",
    (("gen4-intel", 6), ("gen5-intel", 5), ("gen6-amd", 5), ("gen7-amd", 4)))

#: A cluster tiny enough that a long plan stream saturates it, so the
#: batch-vs-sequential comparison exercises rejection ordering too.
TINY_CLUSTER = ClusterConfig("TINY", "test", (("gen4-intel", 3),))


def _random_plan(rng, vm_id, *, windows=WINDOWS):
    n = windows.windows_per_day
    maximum = {r: rng.uniform(0.1, 1.0, n) for r in ALL_RESOURCES}
    percentile = {r: np.minimum(maximum[r], rng.uniform(0.05, 0.9, n))
                  for r in ALL_RESOURCES}
    prediction = WindowUtilizationPrediction(
        windows=windows, percentile=percentile, maximum=maximum)
    cores = float(rng.choice([1, 2, 2, 4, 8]))
    allocation = {Resource.CPU: cores,
                  Resource.MEMORY: cores * float(rng.choice([2, 4, 8])),
                  Resource.NETWORK: min(0.5 * cores, 16.0),
                  Resource.SSD: 32.0 * cores}
    return plan_vm(vm_id, allocation, prediction,
                   oversubscribe=bool(rng.random() < 0.8))


class DenseTwin:
    """Dense-only oracle: :meth:`ClusterLedger.best_fit_row_dense` plus
    :class:`ServerAccount` commit/release, with the scheduler's server ids."""

    def __init__(self, cluster: ClusterConfig, windows: TimeWindowConfig):
        configs = cluster.server_configs()
        self.ledger = ClusterLedger(configs, windows)
        self.accounts = [
            ServerAccount(f"{cluster.cluster_id}-s{index:03d}", config,
                          windows, ledger=self.ledger, row=index)
            for index, config in enumerate(configs)]
        self._placements = {}

    def place(self, plan) -> PlacementDecision:
        memory_plan = plan.plans[Resource.MEMORY]
        row = self.ledger.best_fit_row_dense(
            plan_demand_matrix(plan), memory_plan.guaranteed,
            memory_plan.window_oversubscribed, True)
        if row < 0:
            return PlacementDecision(plan.vm_id, False, None, "no server fits")
        account = self.accounts[row]
        account.commit(plan)
        self._placements[plan.vm_id] = account
        return PlacementDecision(plan.vm_id, True, account.server_id)

    def deallocate(self, vm_id: str) -> None:
        self._placements.pop(vm_id).release(vm_id)


def _assert_caches_fresh(ledger: ClusterLedger) -> None:
    """Every cache must equal a from-scratch reduction, bitwise."""
    demand_sum = ledger.demand.sum(axis=2)
    assert np.array_equal(ledger.demand_peak, ledger.demand.max(axis=2))
    assert np.array_equal(ledger.va_peak, ledger.va_demand.max(axis=1))
    fresh_base = np.array([
        (demand_sum[:, s] / ledger.n_windows)
        @ ledger._inv_capacity[:, s]
        for s in range(ledger.n_servers)])
    assert np.array_equal(ledger.score_base, fresh_base)
    for s in range(ledger.n_servers):
        used = bool(ledger.demand[:, s].any() or ledger.pa_memory[s]
                    or ledger.va_demand[s].any())
        assert bool(ledger.row_used[s]) == used


class TestIncrementalCacheChurn:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_thousands_of_commit_release_cycles_leave_caches_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        scheduler = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        dense = DenseTwin(SMALL_CLUSTER, WINDOWS)
        placed: list = []
        for i in range(3000):
            plan = _random_plan(rng, f"vm-{i}")
            decision = scheduler.place(plan)
            assert dense.place(plan) == decision
            if decision.accepted:
                placed.append(plan.vm_id)
            # ~40% deallocation churn keeps commit and release interleaved.
            if placed and rng.random() < 0.4:
                victim = placed.pop(int(rng.integers(len(placed))))
                scheduler.deallocate(victim)
                dense.deallocate(victim)
        _assert_caches_fresh(scheduler.ledger)
        # The churned scores must equal a fresh full mean(axis=2) pass.
        assert np.array_equal(scheduler.ledger.packing_scores(),
                              dense.ledger.packing_scores())
        assert np.array_equal(scheduler.ledger.demand, dense.ledger.demand)

    def test_screen_scores_match_dense_for_arbitrary_plans(self):
        rng = np.random.default_rng(11)
        scheduler = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        for i in range(200):
            scheduler.place(_random_plan(rng, f"vm-{i}"))
        ledger = scheduler.ledger
        plan = _random_plan(rng, "probe")
        probe = plan_demand_matrix(plan)
        memory_plan = plan.plans[Resource.MEMORY]
        stats = _plan_screen_stats(probe, memory_plan.window_oversubscribed)
        _, _, approx = ledger._screen_rows(
            np.arange(ledger.n_servers), memory_plan.guaranteed, True, stats)
        exact = ledger.packing_scores(probe)
        # The approximation drives the tiered screen only; it must stay
        # within the tolerance band the gathered exact re-score relies on.
        assert np.all(np.abs(approx - exact) < SCORE_TOLERANCE)


class TestBatchedPlacement:
    @pytest.mark.parametrize("cluster", [SMALL_CLUSTER, TINY_CLUSTER],
                             ids=["small", "saturating"])
    def test_place_batch_equals_sequential_place(self, cluster):
        rng = np.random.default_rng(3)
        plans = [_random_plan(rng, f"vm-{i}") for i in range(400)]
        sequential = ClusterScheduler(cluster, WINDOWS)
        batched = ClusterScheduler(cluster, WINDOWS)
        expected = [sequential.place(plan) for plan in plans]
        actual = batched.place_batch(plans)
        assert actual == expected
        if cluster is TINY_CLUSTER:
            # The saturating stream must genuinely exercise rejections.
            assert any(not d.accepted for d in expected)
        assert batched.accepted_count() == sequential.accepted_count()
        assert batched.rejected_count() == sequential.rejected_count()
        assert np.array_equal(batched.ledger.demand, sequential.ledger.demand)

    def test_place_batch_equals_dense_reference(self):
        rng = np.random.default_rng(5)
        plans = [_random_plan(rng, f"vm-{i}") for i in range(300)]
        dense = DenseTwin(SMALL_CLUSTER, WINDOWS)
        batched = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        assert batched.place_batch(plans) == [dense.place(p) for p in plans]

    def test_empty_batch_is_a_noop(self):
        scheduler = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        assert scheduler.place_batch([]) == []
        assert scheduler.accepted_count() == 0

    def test_window_mismatch_fails_batch_before_any_commit(self):
        scheduler = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        rng = np.random.default_rng(9)
        good = _random_plan(rng, "good")
        bad = _random_plan(rng, "bad", windows=TimeWindowConfig(8))
        with pytest.raises(ValueError, match="different time window"):
            scheduler.place_batch([good, bad])
        # Fail-fast validation: the good predecessor was not committed.
        assert scheduler.accepted_count() == 0
        assert scheduler.servers_in_use() == 0


class TestTieredIndexDifferential:
    """Band-descent candidate index above ``_TIERED_MIN_SERVERS``."""

    def test_100k_server_batch_matches_sequential_and_dense(self):
        # Smoke-scale version of the benchmark acceptance criterion: at
        # 100k servers every placement flows through the tiered index
        # (batch and sequential alike).  The batch, the sequential loop and
        # the dense-only twin must agree bitwise -- vm ids, accept/reject
        # order, chosen rows -- and leave bitwise-identical ledgers.
        cluster = build_scaled_bench_cluster(100_000)
        rng = np.random.default_rng(17)
        plans = [_random_plan(rng, f"vm-{i}") for i in range(60)]

        batched = ClusterScheduler(cluster, WINDOWS)
        assert batched.ledger.n_servers >= _TIERED_MIN_SERVERS
        sequential = ClusterScheduler(cluster, WINDOWS)
        dense = DenseTwin(cluster, WINDOWS)

        expected = [sequential.place(plan) for plan in plans]
        assert batched.place_batch(plans) == expected
        assert [dense.place(plan) for plan in plans] == expected
        assert all(decision.accepted for decision in expected), \
            "a 100k-server fleet must absorb a 60-plan stream"
        assert np.array_equal(batched.ledger.demand, sequential.ledger.demand)
        assert np.array_equal(batched.ledger.score_base,
                              sequential.ledger.score_base)
        assert np.array_equal(batched.ledger.score_base,
                              dense.ledger.score_base)

    def test_undecided_scan_falls_back_to_dense(self):
        # Crowd one score band with more than n_servers // 8 used rows of
        # one capacity kind (identical residents give identical score
        # bases), so the descent's first chunk overruns the tiered budget
        # and the scan gives up.  best_fit_row must then return exactly
        # the dense decision.
        cluster = build_scaled_bench_cluster(_TIERED_MIN_SERVERS)
        ledger = ClusterLedger(cluster.server_configs(), WINDOWS)
        assert ledger.n_servers >= _TIERED_MIN_SERVERS
        rng = np.random.default_rng(41)
        resident = _random_plan(rng, "resident")
        crowd = ledger.n_servers // 8 + 64
        rows = np.flatnonzero(ledger._capacity_kind == ledger._capacity_kind[0])
        assert rows.size >= crowd
        for row in rows[:crowd]:
            ledger.commit_row(int(row), resident)
        assert max(map(len, ledger._band_members.values())) \
            > ledger.n_servers // 8
        for i in range(20):
            plan = _random_plan(rng, f"probe-{i}")
            memory_plan = plan.plans[Resource.MEMORY]
            args = (plan_demand_matrix(plan), memory_plan.guaranteed,
                    memory_plan.window_oversubscribed, True)
            assert ledger._best_fit_row_tiered(*args) == _TIERED_UNDECIDED
            row = ledger.best_fit_row(*args)
            assert row == ledger.best_fit_row_dense(*args)
            assert row >= 0
            ledger.commit_row(row, plan)

    def test_saturated_batch_preserves_rejection_ordering(self):
        # Pre-saturate the tiny cluster sequentially on both twins, then
        # feed a batch that is mostly rejections: batched admission must
        # reproduce the exact interleaving of residual accepts and
        # rejects, not just the accept set.
        rng = np.random.default_rng(23)
        warm = [_random_plan(rng, f"warm-{i}") for i in range(20)]
        batch = [_random_plan(rng, f"late-{i}") for i in range(120)]
        sequential = ClusterScheduler(TINY_CLUSTER, WINDOWS)
        batched = ClusterScheduler(TINY_CLUSTER, WINDOWS)
        for plan in warm:
            assert batched.place(plan) == sequential.place(plan)

        expected = [sequential.place(plan) for plan in batch]
        actual = batched.place_batch(batch)
        assert actual == expected
        rejected = [d.vm_id for d in expected if not d.accepted]
        assert len(rejected) >= 60, "the batch must be rejection-dominated"
        assert any(d.accepted for d in expected), \
            "residual accepts must interleave with the rejections"
        assert [d.vm_id for d in actual if not d.accepted] == rejected
        assert np.array_equal(batched.ledger.demand, sequential.ledger.demand)

    def test_rebuilt_index_matches_incrementally_maintained_twin(self):
        # Churn commits and releases through a fleet large enough for the
        # band-descent path, then rebuild one twin's index from scratch.
        # The rebuilt structures must match what incremental maintenance
        # produced, and subsequent decisions must stay bitwise equal to
        # the never-rebuilt twin.  A dense-only twin mirrors the churn, so
        # the tiered path is also pinned to the dense decisions under
        # releases.
        cluster = build_scaled_bench_cluster(10_000)
        rng = np.random.default_rng(31)
        churned = ClusterScheduler(cluster, WINDOWS)
        twin = ClusterScheduler(cluster, WINDOWS)
        dense = DenseTwin(cluster, WINDOWS)
        assert churned.ledger.n_servers >= _TIERED_MIN_SERVERS
        placed: list = []
        for i in range(400):
            plan = _random_plan(rng, f"vm-{i}")
            decision = churned.place(plan)
            assert twin.place(plan) == decision
            assert dense.place(plan) == decision
            if decision.accepted:
                placed.append(plan.vm_id)
            if placed and rng.random() < 0.4:
                victim = placed.pop(int(rng.integers(len(placed))))
                churned.deallocate(victim)
                twin.deallocate(victim)
                dense.deallocate(victim)

        ledger = churned.ledger
        maintained_row_band = ledger._row_band.copy()
        maintained_bands = {band: set(members)
                            for band, members in ledger._band_members.items()}
        maintained_heaps = [list(heap) for heap in ledger._empty_heaps]

        ledger.rebuild_candidate_index()

        # Band structures are reproduced exactly by the from-scratch pass.
        assert np.array_equal(ledger._row_band, maintained_row_band)
        assert {band: set(members)
                for band, members in ledger._band_members.items()} \
            == maintained_bands
        # Heaps only guarantee coverage: a maintained heap may carry stale
        # entries for rows that became used again, but every currently
        # empty row must be present, and the eagerly-cleaned top must be
        # the globally lowest-index empty row of its kind -- the only
        # empty row that can win a tie.
        for kind, rebuilt in enumerate(ledger._empty_heaps):
            kind_rows = np.flatnonzero(ledger._capacity_kind == kind)
            empty_rows = {int(r) for r in kind_rows if not ledger.row_used[r]}
            maintained = maintained_heaps[kind]
            live = {row for row in maintained if not ledger.row_used[row]}
            assert live == empty_rows == set(rebuilt)
            if empty_rows:
                assert maintained[0] == rebuilt[0] == min(empty_rows)

        # Behavioural equality: the rebuilt index drives the same
        # decisions as the incrementally maintained one, bitwise.
        followup = [_random_plan(rng, f"post-{i}") for i in range(120)]
        assert churned.place_batch(followup) \
            == [twin.place(plan) for plan in followup]
        assert np.array_equal(churned.ledger.score_base,
                              twin.ledger.score_base)
        _assert_caches_fresh(twin.ledger)


class TestOverReleaseAccounting:
    def _account(self):
        return ServerAccount("s0", HARDWARE_GENERATIONS["gen4-intel"], WINDOWS)

    def test_double_release_raises_instead_of_clamping(self):
        account = self._account()
        rng = np.random.default_rng(1)
        keep = _random_plan(rng, "keep")
        victim = _random_plan(rng, "victim")
        account.commit(keep)
        account.commit(victim)
        released = account.release("victim")
        snapshot = account._ledger.demand.copy()
        pa_snapshot = account._ledger.pa_memory.copy()
        va_snapshot = account._ledger.va_demand.copy()
        with pytest.raises(ValueError, match="already released"):
            account._ledger.release_row(account._row, released)
        # The failed release validated before mutating: the survivor's
        # accounting is untouched, bitwise.
        assert np.array_equal(account._ledger.demand, snapshot)
        assert np.array_equal(account._ledger.pa_memory, pa_snapshot)
        assert np.array_equal(account._ledger.va_demand, va_snapshot)

    def test_releasing_never_committed_plan_raises(self):
        account = self._account()
        rng = np.random.default_rng(2)
        account.commit(_random_plan(rng, "resident"))
        stranger = _random_plan(rng, "stranger")
        with pytest.raises(ValueError, match="not committed"):
            account._ledger.release_row(account._row, stranger)

    def test_failed_release_leaves_caches_in_sync(self):
        account = self._account()
        rng = np.random.default_rng(4)
        account.commit(_random_plan(rng, "resident"))
        with pytest.raises(ValueError):
            account._ledger.release_row(account._row, _random_plan(rng, "x"))
        _assert_caches_fresh(account._ledger)

    def test_legitimate_float_drift_still_snaps_to_zero(self):
        account = self._account()
        rng = np.random.default_rng(6)
        plans = [_random_plan(rng, f"vm-{i}") for i in range(20)]
        for plan in plans:
            account.commit(plan)
        for plan in plans:
            account.release(plan.vm_id)
        assert account.is_empty()
        assert not account._ledger.row_used[account._row]


class TestBulkEmptyAccounts:
    def test_empty_sequence_returns_empty_vectors(self):
        capacity, backing = bulk_cpu_capacity_and_memory_backing([])
        assert capacity.shape == (0,)
        assert backing.shape == (0,)
        assert capacity.dtype.kind == "f" and backing.dtype.kind == "f"

    def test_zero_server_cluster_schedules_without_crashing(self):
        cluster = ClusterConfig("EMPTY", "test", ())
        scheduler = ClusterScheduler(cluster, WINDOWS)
        capacity, backing = bulk_cpu_capacity_and_memory_backing(
            scheduler._accounts)
        assert capacity.shape == (0,) and backing.shape == (0,)
        rng = np.random.default_rng(8)
        decision = scheduler.place(_random_plan(rng, "vm-0"))
        assert not decision.accepted
        assert scheduler.place_batch([_random_plan(rng, "vm-1")]) \
            == [scheduler.decisions[-1]]
