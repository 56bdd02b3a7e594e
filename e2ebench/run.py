"""End-to-end benchmark of the Coach reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload coach-vs-none --seed 11 --seconds 30 --trace 0

One run repeats a set-up (seeded trace generation + columnarizing) and
evaluations of the named workload until ``--seconds`` are spent, at least
:data:`MIN_REPS` times, and reports medians.  Every set-up and evaluation
is bracketed by a host-speed probe (``probe.py``), and the end-to-end times
are normalized by it: about the seconds on a host of the reference speed,
so the shared host's drifting speed moves them less.  With ``--trace 0`` it
prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer metrics
from the traced ones (wall times), plus the tracing overhead (traced minus
untraced median normalized ``eval_s``).  Traced spans are written to
``e2ebench/out/``.

Every evaluation is checked: it fails if it raises, breaks an invariant,
or its outcome fingerprint differs from the run's first one (the same seed
must give the same simulated outcome).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from probe import HostProbe

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Fewest repetitions a run makes, however long each takes.
MIN_REPS = 3
#: An untraced repetition evaluates until its evaluations took this many
#: times its set-up.
EVAL_TO_SETUP = 2.0

#: Per-layer self times reported by a traced run (span name -> metric).
LAYER_TIMES = (
    "trace.generate", "trace.columnarize",
    "prediction.fit", "prediction.forest_fit", "prediction.history_index",
    "prediction.encode", "prediction.predict", "prediction.tree_predict",
    "core.build", "core.plan", "core.place_batch", "core.best_fit",
    "core.place", "core.release", "simulator.meter", "simulator.engine",
)
#: Call counts reported by a traced run (span name -> metric).
LAYER_CALLS = {
    "prediction.predict": "prediction.predict_calls",
    "prediction.tree_predict": "prediction.tree_predict_calls",
    "core.plan": "core.plans",
    "core.place_batch": "core.place_batch_calls",
    "core.best_fit": "core.best_fit_calls",
    "core.place": "core.place_calls",
    "core.release": "core.releases",
    "core.disable_server": "core.disabled_servers",
}
#: Counters recorded at span boundaries by ``workloads.install_spans``.
LAYER_COUNTS = (
    "trace.vms", "trace.samples", "prediction.training_rows",
    "core.accepted", "core.rejected", "core.preempted",
    "simulator.server_slots", "simulator.evacuated", "simulator.crashed_vms",
)
#: Simulated outcomes, reported by every run (``simulator.`` + key).
SIM_METRICS = ("extra_capacity_pct", "cpu_violation_pct",
               "mem_violation_pct", "rejected_pct")


class Rep:
    """One repetition: a set-up, then evaluations of it, each checked.

    An untraced repetition keeps evaluating, each time on a freshly
    columnarized store, until its evaluations took :data:`EVAL_TO_SETUP`
    times as long as its set-up, so the slow set-up of a large trace still
    leaves most of a run to evaluations.  A traced repetition evaluates
    once.
    """

    def __init__(self, workload, seed: int, size: Dict[str, int],
                 traced: bool, probe: HostProbe):
        from spans import SpanRecorder
        from workloads import install_spans, refresh

        self.traced = traced
        self.recorder: Optional[SpanRecorder] = None
        #: Wall and normalized seconds of the set-up.
        self.setup_s: Optional[float] = None
        self.setup_norm_s: Optional[float] = None
        #: ``(wall seconds, normalized seconds, Outcome)`` per evaluation.
        self.evals: List[tuple] = []
        #: The process's high-water RSS after the first evaluation, before
        #: re-columnarizing for the next one holds two stores at once.
        self.first_eval_rss_mb: Optional[float] = None
        self.error: Optional[str] = None
        gc.collect()
        try:
            if traced:
                with SpanRecorder() as recorder:
                    self.recorder = recorder
                    install_spans(recorder)

                    def setup():
                        with recorder.span("setup"):
                            return workload.setup(seed, size)

                    def evaluate():
                        with recorder.span("eval"):
                            return workload.evaluate(trace, context)

                    ((trace, context), self.setup_s,
                     self.setup_norm_s) = probe.timed(setup)
                    outcome, wall, norm = probe.timed(evaluate)
                self.evals.append((wall, norm, outcome))
                return
            ((trace, context), self.setup_s,
             self.setup_norm_s) = probe.timed(
                lambda: workload.setup(seed, size))
            while True:
                outcome, wall, norm = probe.timed(
                    lambda: workload.evaluate(trace, context))
                self.evals.append((wall, norm, outcome))
                if self.first_eval_rss_mb is None:
                    self.first_eval_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if (sum(wall for wall, _norm, _o in self.evals)
                        >= EVAL_TO_SETUP * self.setup_s):
                    break
                trace = refresh(trace)
                gc.collect()
        except Exception:  # noqa: BLE001 -- a failed rep is counted, not fatal
            self.error = traceback.format_exc()


def _current_rss_mb() -> float:
    """The process's resident set now, in MB (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool,
            size_name: str = "full") -> Dict[str, object]:
    """Run repetitions for *seconds* and reduce them to metrics + checks.

    Every evaluation is one attempt; a set-up or evaluation that raises is
    one failed attempt more.
    """
    size = workload.sizes[size_name]
    rss_before = _current_rss_mb()
    probe = HostProbe()
    probe_rss_mb = _current_rss_mb() - rss_before
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(Rep(workload, seed, size,
                        traced=trace and len(reps) % 2 == 1, probe=probe))
        elapsed = time.perf_counter() - start
        if (len(reps) >= MIN_REPS
                and elapsed + elapsed / len(reps) > seconds):
            break

    failures: List[str] = []
    reference = next((outcome.sha256 for rep in reps
                      for _wall, _norm, outcome in rep.evals), None)
    attempted = 0
    #: Good evaluations: ``(rep, wall seconds, normalized seconds, outcome)``.
    good: List[tuple] = []
    for index, rep in enumerate(reps):
        attempted += len(rep.evals)
        if rep.error is not None:
            attempted += 1
            failures.append(f"rep {index} raised:\n{rep.error}")
        for wall, norm, outcome in rep.evals:
            if outcome.failures:
                failures += [f"rep {index}: {message}"
                             for message in outcome.failures]
            elif outcome.sha256 != reference:
                failures.append(f"rep {index}: outcome {outcome.sha256} != "
                                f"{reference} from the same seed")
            else:
                good.append((rep, wall, norm, outcome))

    metrics: Dict[str, tuple] = {}
    if trace:
        failures += _layer_metrics(good, metrics)
    else:
        metrics["setup_s"] = (_median([rep.setup_norm_s for rep in reps
                                       if rep.setup_norm_s is not None]), "s")
        metrics["eval_s"] = (_median([norm for _r, _w, norm, _o in good]),
                             "s")
        # The first repetition is untraced, so this is one set-up plus one
        # evaluation: the pipeline's own peak, without the probe's heap.
        metrics["peak_rss_mb"] = (next(
            (rep.first_eval_rss_mb - probe_rss_mb for rep in reps
             if rep.first_eval_rss_mb is not None), 0.0), "MB")
    return {
        "reps": reps, "good": good, "attempted": attempted,
        "failed": attempted - len(good), "failures": failures,
        "metrics": metrics, "sim": good[0][3].sim if good else {},
        "outcome_sha256": reference if good else None,
    }


def _layer_metrics(good: List[tuple], metrics: Dict[str, tuple]) -> List[str]:
    """Per-layer metrics from the traced evaluations; returns failures."""
    traced = [entry for entry in good if entry[0].traced]
    plain = [entry for entry in good if not entry[0].traced]
    if not traced or not plain:
        return ["a traced run needs at least one good traced and one good "
                "untraced evaluation"]
    recorders = [rep.recorder for rep, _w, _n, _o in traced]

    for name in LAYER_TIMES:
        metric = ("simulator.engine_self_s" if name == "simulator.engine"
                  else f"{name}_s")
        metrics[metric] = (
            _median([recorder.self_seconds(name) for recorder in recorders]),
            "s")
    failures: List[str] = []
    last = recorders[-1]
    counts = dict(last.counts)
    if any(dict(recorder.calls) != dict(last.calls)
           or dict(recorder.counts) != counts for recorder in recorders):
        failures.append("layer counts differ between traced evaluations "
                        "of one seed")
    for span, metric in LAYER_CALLS.items():
        metrics[metric] = (float(last.calls.get(span, 0)), "count")
    for name in LAYER_COUNTS:
        metrics[name] = (float(counts.get(name, 0.0)), "count")
    accepted = counts.get("core.accepted", 0.0)
    decided = accepted + counts.get("core.rejected", 0.0)
    metrics["core.accept_ratio"] = (accepted / decided if decided else 0.0,
                                    "ratio")
    sim = traced[-1][3].sim
    if accepted != sim["accepted"] or decided != sim["requested"]:
        failures.append(f"spans saw {decided:g} decisions, {accepted:g} "
                        f"accepted; the evaluation reports "
                        f"{sim['requested']:g} requested, "
                        f"{sim['accepted']:g} accepted")

    eval_traced = _median([wall for _rep, wall, _n, _o in traced])
    setup_traced = _median([rep.setup_s for rep, _w, _n, _o in traced])

    def share(prefix: str) -> float:
        return sum(value for name, (value, unit) in metrics.items()
                   if name.startswith(prefix) and unit == "s")

    metrics["prediction.eval_pct"] = (
        100.0 * share("prediction.") / eval_traced, "%")
    metrics["core.eval_pct"] = (100.0 * share("core.") / eval_traced, "%")
    metrics["simulator.eval_pct"] = (
        100.0 * share("simulator.") / eval_traced, "%")
    metrics["trace.setup_pct"] = (100.0 * share("trace.") / setup_traced, "%")
    metrics["bench.eval_traced_s"] = (eval_traced, "s")
    metrics["bench.eval_wall_s"] = (
        _median([wall for _rep, wall, _n, _o in plain]), "s")
    metrics["bench.tracing_overhead_s"] = (
        _median([norm for _rep, _w, norm, _o in traced])
        - _median([norm for _rep, _w, norm, _o in plain]), "s")
    return failures


def _report(workload_name: str, seed: int, trace: bool,
            result: Dict[str, object]) -> List[str]:
    good = result["good"]
    setups = sum(1 for rep in result["reps"]
                 if rep.setup_s is not None and rep.traced == trace)
    lines = [f"e2ebench {workload_name} seed={seed} trace={int(trace)}: "
             f"{result['attempted']} evaluations attempted, "
             f"{result['failed']} failed; medians over {setups} set-ups, "
             f"{sum(1 for entry in good if not entry[0].traced)} untraced "
             f"and {sum(1 for entry in good if entry[0].traced)} traced "
             f"evaluations"]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:32s} {value:14.6f} {unit}")
    evals = [norm for rep, _w, norm, _o in good if not rep.traced]
    if not trace:
        walls = [wall for rep, wall, _n, _o in good if not rep.traced]
        setups = [rep.setup_s for rep in result["reps"]
                  if rep.setup_s is not None and not rep.traced]
        lines.append(f"  {'setup wall':32s} {_median(setups):14.6f} s")
        lines.append(f"  {'eval wall':32s} {_median(walls):14.6f} s")
    if not trace and len(evals) >= 20:
        # The highest whole percentile with at least ten samples above it.
        pct = 100 * (len(evals) - 10) // len(evals)
        value = statistics.quantiles(evals, n=100)[pct - 1]
        lines.append(f"  {'eval_s p' + str(pct):32s} {value:14.6f} s")
    for key in SIM_METRICS:
        if key in result["sim"]:
            lines.append(f"  sim {key:28s} {result['sim'][key]:14.6f} %")
    lines.append(f"outcome_sha256 {result['outcome_sha256']}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"e2ebench: no repro package under {SRC_DIR}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r} (known: "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    for failure in result["failures"]:
        print(f"e2ebench: FAILED {failure}", file=sys.stderr)
    if trace:
        last = next((rep for rep, _w, _n, _o in reversed(result["good"])
                     if rep.traced), None)
        if last is not None:
            last.recorder.write(
                BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.json")
    for line in _report(args.workload, args.seed, trace, result):
        print(line)
    print(json.dumps(final_line(result, trace)))
    return 0


def final_line(result: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The result object printed as the last line of a run."""
    metrics = dict(result["metrics"])
    if trace:
        for key in SIM_METRICS:
            metrics[f"simulator.{key}"] = (result["sim"].get(key, 0.0), "%")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
