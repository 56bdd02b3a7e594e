"""Self-test of the end-to-end benchmark: a tiny-size pass of each workload.

Run from the repository root::

    python3 e2ebench/selftest.py

For every workload it runs the untraced and the traced measurement at the
``tiny`` sizes and checks that

* every metric ``BENCHMARK.json`` names is printed, with its unit, and no
  other;
* every repetition passed its correctness checks;
* the traced run's outcome fingerprint equals the untraced one, so tracing
  does not perturb behaviour;
* self times are non-negative and sum to at most the traced ``eval_s``;
* no wrapped attribute is left installed after a run.

Exits with 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, install_spans  # noqa: E402

#: Root spans the benchmark opens around set-up and evaluation.
ROOTS = ("setup", "eval")


def _check_self_times(workload: str, recorder: SpanRecorder,
                      eval_s: float) -> List[str]:
    problems = [f"{workload}: negative self time for {name}"
                for name, ns in recorder.self_ns.items() if ns < 0]
    in_eval = sum(ns for name, ns in recorder.self_ns.items()
                  if name not in ROOTS and not name.startswith("trace."))
    if in_eval / 1e9 > eval_s:
        problems.append(f"{workload}: self times under eval sum to "
                        f"{in_eval / 1e9:.6f} s > eval_s {eval_s:.6f} s")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: List[str] = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"{list(WORKLOADS)}")

    probe = SpanRecorder()
    install_spans(probe)
    targets = list(probe.installed)
    probe.uninstall()

    for name, workload in WORKLOADS.items():
        fingerprints = {}
        for trace in (False, True):
            result = run.measure(workload, workload.dev_seed, 0.0, trace,
                                 size_name="tiny")
            line = run.final_line(result, trace)
            label = f"{name} trace={int(trace)}"
            print(label)
            for metric, value in line["metrics"].items():
                print(f"  {metric:32s} {value['unit']}")
            if not line["correct"] or line["failed"]:
                problems += [f"{label}: {failure}"
                             for failure in result["failures"]]
            got = {metric: value["unit"]
                   for metric, value in line["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {sorted(got.items())} != "
                                f"{sorted(expected[trace].items())}")
            fingerprints[trace] = result["outcome_sha256"]
            for rep, eval_s, _norm, _outcome in result["good"]:
                if rep.traced:
                    problems += _check_self_times(name, rep.recorder, eval_s)
            for owner, attr, original in targets:
                if owner.__dict__[attr] is not original:
                    problems.append(f"{label}: {attr} left wrapped")
        if fingerprints[False] != fingerprints[True]:
            problems.append(f"{name}: traced fingerprint "
                            f"{fingerprints[True]} != untraced "
                            f"{fingerprints[False]}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
