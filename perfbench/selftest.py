#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  * the tracer wraps every binding of each target and restores every original,
    and reports a missing target as absent instead of failing;
  * every workload finishes one pass, traced and untraced, with no failed item;
  * the metric names and units printed match BENCHMARK.json, and so do the
    workload names and reasons.
Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bindings():
    """Every attribute of every coarselab module, and of Window, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "coarselab" or name.startswith("coarselab."):
            for key, value in vars(module).items():
                out[(name, key)] = value
    from coarselab.spaces import Window
    for key, value in vars(Window).items():
        out[("Window", key)] = value
    return out


def check_tracer(problems):
    import layers
    from tracer import Tracer
    import coarselab
    from coarselab import _accel, cyclic, ufchain
    from coarselab.spaces import Window

    before = _bindings()
    tr = layers.make_tracer()
    with tr.installed():
        if tr.absent:
            problems.append(f"tracer: targets absent at this commit: {tr.absent}")
        wrapped = [(_accel, "coalesce"), (cyclic, "coalesce"), (ufchain, "coalesce"),
                   (cyclic, "boundary_arrays"), (coarselab, "make_window")]
        for holder, key in wrapped:
            if getattr(getattr(holder, key), "__wrapped__", None) is None:
                problems.append(f"tracer: {holder.__name__}.{key} not wrapped")
        if getattr(Window.dist, "__wrapped__", None) is None:
            problems.append("tracer: Window.dist not wrapped")
        cyclic.coalesce(*ufchain.UfChain(coarselab.make_window("zd", 2, 0, dim=1),
                                         0, {(0,): 1}).arrays())
        if tr.stats("accel.coalesce")[0] != 1:
            problems.append("tracer: a call through cyclic.coalesce was not counted")
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or set(after) != set(before):
        problems.append(f"tracer: bindings not restored: {changed}")

    ghost = Tracer([("spaces", "no_such_function"), ("nomodule", "f")])
    with ghost.installed():
        pass
    if ghost.absent != ["spaces.no_such_function", "nomodule.f"]:
        problems.append(f"tracer: absent targets reported as {ghost.absent}")


def check_runs(problems):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    defined = {name: w.why for name, w in WORKLOADS.items()}
    if listed != defined:
        problems.append(f"BENCHMARK.json workloads {listed} != workloads.py {defined}")
    if tuple(WORKLOADS) != run.WORKLOAD_NAMES:
        problems.append(f"run.WORKLOAD_NAMES {run.WORKLOAD_NAMES} != {tuple(WORKLOADS)}")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    import layers
    for m in spec["per_layer"]:
        unit, better, _ = layers.PER_LAYER.get(m["name"], (None, None, None))
        if (unit, better) != (m["unit"], m["better"]):
            problems.append(f"per_layer {m['name']}: BENCHMARK.json says "
                            f"{m['unit']}/{m['better']}, layers.py {unit}/{better}")
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--trace", str(trace), "--passes", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{name} trace={trace}"
            known = len(problems)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} "
                                f"items failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{tag}: printed metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed) ^ set(expected[trace]))}")
            status = "ok" if len(problems) == known else "FAIL"
            print(f"{status:4s} {tag}: {result['attempted']} items", flush=True)


def main() -> int:
    run.cap_threads()
    run.import_program()
    problems: list[str] = []
    check_tracer(problems)
    check_runs(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
