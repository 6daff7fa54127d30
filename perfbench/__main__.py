"""Command line for sets of benchmark runs.

    python -m perfbench run [--workloads A,B] [--seeds 1-10] [--out FILE]
    python -m perfbench trace [--workloads A,B] [--seed N] [--name NAME]
    python -m perfbench pairs PARENT_ROOT CHANGE_ROOT --out DIR [--pairs 10]
    python -m perfbench compare PARENT.json CHANGE.json
        [--claim METRIC@WORKLOAD ...]

Run from the repository root.  ``run`` and ``pairs`` invoke each
checkout's ``perfbench/run.py`` exactly as ``BENCHMARK.json`` names it,
for its ``run_seconds``, one process per run, and print each metric's
median and quartiles.  ``pairs`` always runs every workload, so that
``compare`` can apply the regression rule to all of them.
``trace`` makes one traced run per workload and writes its spans and
per-layer self-time tables under ``perfbench/results/<name>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Dict, List

from perfbench.compare import UNSCALED, compare, passes, quartiles, spread
from perfbench.layers import LAYER_METRICS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
#: one run.py invocation must finish in this long (its own limit is 180 s)
INVOKE_TIMEOUT_S = 900


def spec_of(root: pathlib.Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def invoke(root: pathlib.Path, workload: str, seed: int, seconds: int,
           trace: bool = False, run_name: str = "local") -> dict:
    """One ``perfbench/run.py`` run in ``root``: result, detail, timing."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--run-name", run_name]
    started = time.time()
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True, timeout=INVOKE_TIMEOUT_S, check=True)
    *_, detail, result = done.stdout.strip().splitlines()
    return {"seed": seed, "started": started,
            "elapsed_s": time.time() - started,
            "result": json.loads(result),
            "detail": json.loads(detail)["detail"]}


def fingerprint(root: pathlib.Path) -> dict:
    """Host and commit identity for a set of runs."""
    cpu = platform.processor()
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"host": {"nproc": os.cpu_count(), "cpu": cpu,
                     "python": platform.python_version(),
                     "platform": platform.platform()},
            "commit": {"git_head": commit,
                       "src_sha256": source.hexdigest()}}


def _names(text: str, spec: dict) -> List[str]:
    known = [w["name"] for w in spec["workloads"]]
    if not text:
        return known
    names = text.split(",")
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    return names


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _write(path: pathlib.Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def format_set(runs: Dict[str, List[dict]], spec: dict) -> str:
    """Each metric's median, quartiles and spread per workload, with
    the unscaled readings of the scaled metrics beside them."""
    lines = [f"{'workload':<14} {'metric':<23} {'median':>12} "
             f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  runs"]
    for workload, group in runs.items():
        failed = sum(run["result"]["failed"] for run in group)
        for metric in spec["end_to_end"]:
            readings = [(metric["name"],
                         [run["result"]["metrics"][metric["name"]]["value"]
                          for run in group])]
            wall_key = UNSCALED.get(metric["name"])
            if wall_key and all(wall_key in run["detail"] for run in group):
                readings.append((f"{metric['name']} (wall)",
                                 [run["detail"][wall_key] for run in group]))
            for label, values in readings:
                q1, median, q3 = quartiles(values)
                lines.append(
                    f"{workload:<14} {label:<23} {median:>12.6g} "
                    f"{q1:>12.6g} {q3:>12.6g} {spread(values):>7.2%} "
                    f"{metric['bound']:>6.0%}  {len(values)} "
                    f"({metric['unit']}, {metric['better']} is better"
                    f"{'' if not failed else f'; {failed} FAILED outputs'})")
    return "\n".join(lines)


def cmd_run(args) -> int:
    spec = spec_of(ROOT)
    seconds = spec["run_seconds"]
    runs: Dict[str, List[dict]] = {}
    for workload in _names(args.workloads, spec):
        for seed in _seeds(args.seeds):
            run = invoke(ROOT, workload, seed, seconds)
            runs.setdefault(workload, []).append(run)
            print(f"{workload} seed {seed}: {json.dumps(run['result'])}",
                  flush=True)
    print(format_set(runs, spec))
    if args.out:
        _write(args.out, {"fingerprint": fingerprint(ROOT),
                          "seconds": seconds, "runs": runs})
    return 0 if all(run["result"]["correct"]
                    for group in runs.values() for run in group) else 1


def self_time_table(summary: dict, setup: dict) -> List[str]:
    lines = [f"  {'layer':<16} {'run self s':>11} {'share':>7} "
             f"{'setup self s':>13}"]
    layers = sorted(set(summary["self_s_by_layer"])
                    | set(setup["self_s_by_layer"]),
                    key=lambda name: -summary["self_s_by_layer"].get(name, 0))
    for layer in layers:
        seconds = summary["self_s_by_layer"].get(layer, 0.0)
        lines.append(f"  {layer:<16} {seconds:>11.3f} "
                     f"{seconds / summary['wall_s']:>7.1%} "
                     f"{setup['self_s_by_layer'].get(layer, 0.0):>13.3f}")
    lines.append(f"  {'wall':<16} {summary['wall_s']:>11.3f} "
                 f"{'':>7} {setup['wall_s']:>13.3f}   "
                 f"coverage {summary['coverage']:.1%}")
    return lines


def cmd_trace(args) -> int:
    spec = spec_of(ROOT)
    workloads: Dict[str, dict] = {}
    ok = True
    for workload in _names(args.workloads, spec):
        run = invoke(ROOT, workload, args.seed, spec["run_seconds"],
                     trace=True, run_name=args.name)
        ok &= run["result"]["correct"]
        traced = run["detail"]["traced"]
        workloads[workload] = {
            "result": run["result"],
            "self_time": {"setup": traced["trace"]["setup"],
                          "run": traced["trace"]["run"]},
            "walls_s": {kind: (run["detail"][kind] or {}).get("wall_s")
                        for kind in ("traced", "serial", "parallel")},
            "trace": f"{workload}/trace.json",
        }
        print(f"{workload} (seed {args.seed}):")
        print("\n".join(self_time_table(traced["trace"]["run"],
                                        traced["trace"]["setup"])))
    _write(RESULTS / args.name / "trace-summary.json",
           {"fingerprint": fingerprint(ROOT), "seed": args.seed,
            "layer_metrics": {m.name: {"unit": m.unit, "moves": m.moves,
                                       "on": list(m.on)}
                              for m in LAYER_METRICS},
            "workloads": workloads})
    return 0 if ok else 1


def cmd_pairs(args) -> int:
    spec = spec_of(ROOT)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sets: Dict[str, Dict[str, List[dict]]] = {"parent": {}, "change": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else (
                "change", "parent")
            for side in order:
                run = invoke(roots[side], workload, index + 1,
                             spec["run_seconds"])
                sets[side].setdefault(workload, []).append(run)
                print(f"{workload} pair {index + 1} {side}: "
                      f"{json.dumps(run['result'])}", flush=True)
    for side, runs in sets.items():
        _write(args.out / f"{side}.json",
               {"fingerprint": fingerprint(roots[side]),
                "seconds": spec["run_seconds"], "runs": runs})
    return 0


def _claim(text: str, spec: dict) -> tuple:
    metric, _, workload = text.partition("@")
    if (metric not in {m["name"] for m in spec["end_to_end"]}
            or workload not in {w["name"] for w in spec["workloads"]}):
        raise SystemExit(f"--claim {text}: no such METRIC@WORKLOAD")
    return metric, workload


def _wall_note(cell: dict) -> str:
    wall = cell.get("wall")
    if wall is None or wall["agrees"]:
        return ""
    return f" [wall-clock reading: {wall['verdict']}, DISAGREES]"


def cmd_compare(args) -> int:
    spec = spec_of(ROOT)
    parent_set = json.loads(args.parent.read_text())
    change_set = json.loads(args.change.read_text())
    if parent_set["seconds"] != change_set["seconds"]:
        print(f"perfbench: the sets ran for different lengths "
              f"({parent_set['seconds']} s and {change_set['seconds']} s); "
              "they cannot be compared", file=sys.stderr)
        return 2
    claims = [_claim(text, spec) for text in args.claim]
    rows = compare(parent_set["runs"], change_set["runs"], spec, claims)
    for row in rows:
        if "missing" in row:
            print(f"{row['workload']:<14} missing: not measured in the "
                  f"{' and '.join(row['missing'])} set")
            continue
        cells = []
        for name, cell in row["metrics"].items():
            cells.append(f"{name} {cell['verdict']} "
                         f"({cell['worse_by']:+.1%} worse, bound "
                         f"{cell['bound']:.0%}){_wall_note(cell)}")
        for name, claim in row["claims"].items():
            cells.append(f"claim {name}: {claim['verdict']} "
                         f"({claim['reason']}){_wall_note(claim)}")
        print(f"{row['workload']:<14} " + "; ".join(cells))
    return 0 if passes(rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="end-to-end runs over a seed range")
    run.add_argument("--workloads", default="")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--out", type=pathlib.Path)
    run.set_defaults(fn=cmd_run)
    trace = sub.add_parser("trace", help="one traced run per workload")
    trace.add_argument("--workloads", default="")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--name", default="local")
    trace.set_defaults(fn=cmd_trace)
    pairs = sub.add_parser("pairs", help="alternate runs of two checkouts")
    pairs.add_argument("parent", type=pathlib.Path)
    pairs.add_argument("change", type=pathlib.Path)
    pairs.add_argument("--out", type=pathlib.Path, required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.set_defaults(fn=cmd_pairs)
    comp = sub.add_parser("compare", help="apply the regression and "
                          "claim rules to two sets of runs")
    comp.add_argument("parent", type=pathlib.Path)
    comp.add_argument("change", type=pathlib.Path)
    comp.add_argument("--claim", action="append", default=[],
                      metavar="METRIC@WORKLOAD")
    comp.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
