"""Benchmark for hopfcontra: exact Hopf-cyclic builds through `report`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness SETS [--workload NAME ...] [--seconds S]
    python3 perfbench/run.py --grid

A run writes the workload's sessions for the seed, computes the canonical
reference tables if they are not cached yet, and runs the set-up-only
processes.  It then repeats samples while the next one is expected to end
within `--seconds` of the run's start (at least two, so that the canonical
report bytes of two runs of one seed can be compared).  Each sample is a
fresh single-threaded Python process running `perfbench/sample.py`, and only
one runs at a time.  With `--trace 1` the samples come in pairs, one untraced
and one traced, and the per-layer figures come from the traced ones.

Every task of every session in a sample is one operation.  An operation
fails when its session exits with the wrong code, when its canonical report
differs from the first sample's, or when `checks.check_session` refutes it.
The last line of stdout is the JSON result.

The program is taken from `src/` next to this directory; without it the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_SAMPLES = 2
# Extra processes per run that only set up, so that setup_s is a median of many.
SETUP_SAMPLES = 5
SAMPLE_TIMEOUT_S = 150
# Limits on each child process of the scaling grid.
GRID_TIMEOUT_S = 150
GRID_MEMORY_MB = 1536

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A sample process failed to produce a result."""


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_cells"):
        return "cells"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def _sample_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sample(workload, sessions, out_dir, trace=False, dump=False, setup_only=False,
               timeout=SAMPLE_TIMEOUT_S, memory_mb=None):
    """Run one sample process; returns its result dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps({
        "workload": workload, "sessions": sessions, "out": str(out_dir),
        "src": str(SRC), "trace": bool(trace), "dump_complexes": bool(dump),
        "setup_only": setup_only}))

    def limit_memory():
        if memory_mb is not None:
            cap = memory_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), "--spec", str(spec_path)],
        cwd=ROOT, env=_sample_env(), capture_output=True, text=True,
        timeout=timeout, preexec_fn=limit_memory if memory_mb else None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def _program_digest():
    h = hashlib.sha256()
    templates = sorted({inputs.template_path(t) for ts in inputs.WORKLOADS.values() for t in ts})
    for path in sorted((SRC / "hopfcontra").glob("*.py")) + templates:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update((BENCH / "inputs.py").read_bytes())
    return h.hexdigest()[:16]


def _tables(out_dir, template):
    doc = json.loads((Path(out_dir) / f"{template}.json").read_text())
    return [task.get("tables", {}) for task in doc["tasks"]]


def reference_tables(workload):
    """Tables the program prints for the workload in the canonical labelling
    (seed 0), computed once per checkout and program digest."""
    path = WORK / f"reference-{workload}-{_program_digest()}.json"
    if path.is_file():
        return json.loads(path.read_text())
    rdir = WORK / f"reference-{workload}"
    shutil.rmtree(rdir, ignore_errors=True)
    files = inputs.write_sessions(workload, 0, rdir / "in")
    res = run_sample(workload, [(t, str(p)) for t, p in files], rdir / "out")
    ref = {}
    for template, _ in files:
        if res["codes"].get(template) == checks.expected_exit(template):
            ref[template] = _tables(rdir / "out", template)
    path.write_text(json.dumps(ref))
    return ref


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, per-operation notes)."""
    wdir = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(wdir, ignore_errors=True)
    files = inputs.write_sessions(workload, seed, wdir / "in")
    sessions = [(t, str(p)) for t, p in files]
    docs = {t: json.loads(p.read_text()) for t, p in files}

    start = time.perf_counter()
    reference = reference_tables(workload) if seed != 0 else None
    setups = [run_sample(workload, sessions, wdir / f"setup{k}", setup_only=True)["setup_s"]
              for k in range(SETUP_SAMPLES)]

    plain, traced = [], []
    rounds_start = time.perf_counter()
    k = 0
    while True:
        plain.append((wdir / f"s{k}", run_sample(workload, sessions, wdir / f"s{k}", dump=(k == 0))))
        k += 1
        if trace:
            traced.append((wdir / f"s{k}", run_sample(workload, sessions, wdir / f"s{k}", trace=True)))
            k += 1
        # stop before a round that would end past the run length
        now = time.perf_counter()
        per_round = (now - rounds_start) / len(plain)
        if len(plain) + len(traced) >= MIN_SAMPLES and now - start + per_round > seconds:
            break
    samples = plain + traced
    setups += [r["setup_s"] for _, r in plain]
    first_dir, first = plain[0]
    complexes = json.loads((first_dir / "complexes.json").read_text())
    notes = []
    refuted = {}
    for template, _ in sessions:
        n_tasks = len(docs[template]["tasks"])
        if first["codes"].get(template) != checks.expected_exit(template):
            refuted[template] = {i: ["exit code"] for i in range(n_tasks)}
            notes.append(f"{template}: exit {first['codes'].get(template)} "
                         f"{first['errors'].get(template, '')}")
            continue
        doc = json.loads((first_dir / f"{template}.json").read_text())
        ref = None
        if reference is not None:
            ref = reference.get(template)
            if ref is None:
                refuted[template] = {i: ["no canonical-labelling reference"] for i in range(n_tasks)}
                continue
        try:
            bad = checks.check_session(template, docs[template], doc,
                                       [c for c in complexes if c["session"] == template], ref)
        except Exception:  # output the checks cannot read refutes every task
            bad = {i: [traceback.format_exc(limit=2)] for i in range(n_tasks)}
        refuted[template] = bad
        notes += [f"{template} task {i}: {'; '.join(why)}" for i, why in sorted(bad.items())]

    attempted = failed = 0
    for out_dir, res in samples:
        for template, _ in sessions:
            n_tasks = len(docs[template]["tasks"])
            attempted += n_tasks
            if first["codes"].get(template) != checks.expected_exit(template):
                failed += n_tasks
            elif (res["codes"].get(template) != first["codes"].get(template)
                  or (out_dir / f"{template}.json").read_bytes()
                  != (first_dir / f"{template}.json").read_bytes()):
                failed += n_tasks
                notes.append(f"{template}: report of {out_dir.name} differs from the first sample")
            else:
                failed += len(refuted[template])

    if trace:
        layers = {}
        for name in traced[0][1]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for _, r in traced)
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for _, r in traced)
        layers["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for _, r in plain)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.raw_wall_s"] = statistics.median(r["raw_wall_s"] for _, r in plain)
        layers["trace.probe_s"] = statistics.median(r["probe_s"] for _, r in plain)
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        figures = {"wall_s": [r["wall_s"] for _, r in plain], "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for _, r in plain]}
        metrics = {n: {"value": statistics.median(figures[n]), "unit": u}
                   for n, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    notes.append(f"samples: {len(plain)} untraced, {len(traced)} traced; unscaled medians: "
                 f"wall {statistics.median(r['raw_wall_s'] for _, r in plain):.4f} s, "
                 f"setup {statistics.median(r['raw_setup_s'] for _, r in plain):.4f} s, "
                 f"probe {statistics.median(r['probe_s'] for _, r in plain) * 1e6:.1f} us; "
                 f"run {time.perf_counter() - start:.1f} s")
    return result, notes


def steadiness(sets, workloads, seconds, trace):
    """Repeat sets of runs and print each metric's median and quartiles."""
    values = {}
    for s in range(1, sets + 1):
        for w in workloads:
            result, _ = run_workload(w, s, seconds, trace)
            print(f"set {s} {w}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
            print("  " + ", ".join(f"{n} {m['value']:.5g}" for n, m in result["metrics"].items()),
                  flush=True)
    summary = {}
    for (w, name), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary.setdefault(w, {})[name] = {"median": med, "q1": q1, "q3": q3,
                                          "spread": spread, "n": len(vals)}
        print(f"{w:18s} {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {spread:.4f}")
    print(json.dumps(summary))


GRID = [
    # (case, session template, prime or None for Q, top degree)
    ("H4-Q-3", "h4_cyclic", None, 3), ("H4-Q-4", "h4_cyclic", None, 4),
    ("H4-Q-5", "h4_cyclic", None, 5), ("H4-GF7-3", "h4_gf_deep", 7, 3),
    ("H4-GF7-4", "h4_gf_deep", 7, 4), ("H4-GF7-5", "h4_gf_deep", 7, 5),
    ("C3-Q-4", "c3", None, 4), ("C2-Q-6", "c2_trivial", None, 6),
]


def _grid_session(template, prime, degree):
    if template == "c3":
        doc = json.loads(inputs.template_path("c2_trivial").read_text())
        doc["hopf"] = {"name": "group_C3"}
    else:
        doc = json.loads(inputs.template_path(template).read_text())
    if prime is not None:
        doc["field"] = {"kind": "GF", "p": prime}
    cid = doc["coefficients"][-1]["id"]
    doc["tasks"] = [{"task": "homology", "coefficient": cid, "mode": "hochschild",
                     "max_degree": degree}]
    return doc


def grid():
    """Reference scaling grid: one lr build, its relations and the Hochschild
    table per case, each in its own process under a time and memory limit."""
    rows = []
    for case, template, prime, degree in GRID:
        cdir = WORK / "grid" / case
        shutil.rmtree(cdir, ignore_errors=True)
        (cdir / "in").mkdir(parents=True)
        path = cdir / "in" / f"{case}.session"
        path.write_text(json.dumps(_grid_session(template, prime, degree)))
        row = {"case": case, "degree": degree}
        try:
            res = run_sample("grid", [(case, str(path))], cdir / "out",
                             timeout=GRID_TIMEOUT_S, memory_mb=GRID_MEMORY_MB)
            code = res["codes"][case]
            if code == "crash" and "MemoryError" in res["errors"].get(case, ""):
                row["status"] = "out of memory"
            else:
                row["status"] = "ok" if code == 0 else f"exit {code}"
                row.update(wall_s=res["wall_s"], raw_wall_s=res["raw_wall_s"],
                           peak_rss_mb=res["peak_rss_mb"], tables=_tables(cdir / "out", case)[0])
        except subprocess.TimeoutExpired:
            row["status"] = f"timeout after {GRID_TIMEOUT_S} s"
        except BenchError as e:
            row["status"] = "out of memory" if "MemoryError" in str(e) else f"failed: {e}"
        rows.append(row)
        print(json.dumps(row), flush=True)
    print(json.dumps(rows))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="SETS")
    ap.add_argument("--grid", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "hopfcontra" / "cli.py").is_file():
        print(f"no hopfcontra sources under {SRC}", file=sys.stderr)
        return 2
    if args.grid:
        grid()
        return 0
    if args.steadiness:
        steadiness(args.steadiness, args.workload or list(inputs.WORKLOADS),
                   args.seconds, bool(args.trace))
        return 0
    if not args.workload or len(args.workload) != 1:
        ap.error("give exactly one --workload")
    try:
        result, notes = run_workload(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 3
    for note in notes:
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
