#!/usr/bin/env python3
"""The paper-sweep ledger: build the harness, run one workload, print metrics.

  python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the harness (incrementally, under $CARGO_TARGET_DIR or
      .bench_build), run workload NAME on inputs generated from seed N
      (0 = the suite's own seeds) and print, as the last stdout line, one
      JSON object with every metric BENCHMARK.json names: the end-to-end
      metrics with --trace 0 (timed sweeps, repeated for S seconds), the
      per-layer metrics with --trace 1 (one serial traced composition).
      --out FILE appends the full record (host fingerprint, digest, raw
      samples) to FILE as one JSON line.

  python3 ledger/run.py --all [--seed N] [--seconds S]
      Every workload, timed and traced, printing every metric by name
      with its unit (about three minutes).

  python3 ledger/run.py --selftest
      All four workloads and the traced run at miniature lengths; checks
      every metric BENCHMARK.json names is emitted with its unit.

  python3 ledger/run.py compare PARENT.jsonl CHANGE.jsonl
      Compare two sets of --out records metric by metric against the
      bounds in BENCHMARK.json. Records whose host fingerprints differ
      are reported as not comparable instead of being compared.

A benchmark run exits 0 only when it printed its result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5_full", "fig6a_smarts", "replay_ablation",
             "fig6a_smarts_warm")
# Every run must end within 180 s; leave room for start-up and clean-up.
RUN_DEADLINE_S = 170
# Host fields two results must share to be compared at all.
COMPARABLE = ("cpu_model", "nproc", "threads", "compiler", "build_type",
              "cxx_flags", "kernel")


class LedgerError(Exception):
    pass


def catalogue():
    """Metric names, units and bounds, from the repository's BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build the harness; returns the binary's path."""
    bdir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "ledger"
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (bdir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(bdir), "-j", str(nproc())]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise LedgerError("build step failed: " + " ".join(cmd))
    return bdir / "ledger"


class Harness:
    """Runs ledger subcommands for one workload; each prints JSON last."""

    def __init__(self, binary, workload, seed, threads, mini, work, deadline):
        self.binary = binary
        self.args = ["--workload", workload, "--seed", str(seed),
                     "--threads", str(threads), "--work", str(work),
                     "--scale", "mini" if mini else "paper"]
        self.deadline = deadline
        self.env = dict(os.environ, PP_LOG_LEVEL="warn")

    def __call__(self, command):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise LedgerError("run deadline passed before " + command)
        try:
            r = subprocess.run([str(self.binary), command, *self.args],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, timeout=left, env=self.env)
        except subprocess.TimeoutExpired:
            raise LedgerError(f"ledger {command} ran past the run deadline")
        if r.returncode != 0:
            raise LedgerError(f"ledger {command} exited {r.returncode}: "
                              + r.stderr.strip()[-2000:])
        return json.loads(r.stdout.strip().splitlines()[-1])


def fingerprint(binary, threads):
    r = subprocess.run([str(binary), "fingerprint"], stdout=subprocess.PIPE,
                       text=True, check=True)
    fp = json.loads(r.stdout.strip().splitlines()[-1])
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        g = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        commit = g.stdout.strip() if g.returncode == 0 else None
    except OSError:
        pass
    # Identifies the simulated code even where the checkout has no git.
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    return {"cpu_model": model, "nproc": nproc(), "threads": threads,
            "compiler": fp["compiler"], "build_type": fp["build_type"],
            "cxx_flags": fp["cxx_flags"], "kernel": platform.release(),
            "commit": commit, "source_sha256": src.hexdigest()[:16]}


def run_workload(binary, workload, seed, seconds, trace, mini, threads):
    """One benchmark run; returns its record (metrics, checks, samples)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = Path(".bench_work") / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        h = Harness(binary, workload, seed, threads, mini, work, deadline)
        checked = []  # outputs that must all carry one digest
        prep = None
        if workload == "fig6a_smarts_warm":
            # Untimed set-up: traces recorded, checkpoint directory filled.
            prep = h("prepare")
        if trace:
            ref = h("sweep")
            traced = h("traced")
            checked += [ref, traced]
            metrics = {k: v for k, v in traced.items() if "." in k}
            metrics["driver.parallel_eff"] = (
                traced["layer_sum_s"] / (ref["threads"] * ref["wall_s"]))
            samples = {"sweep": ref, "traced": traced}
        else:
            sweeps = []
            t0 = time.monotonic()
            while not sweeps or time.monotonic() - t0 < seconds:
                sweeps.append(h("sweep"))
            checked += sweeps
            setup = h("setup")["setup_s"]

            def med(f):
                return statistics.median(f(s) for s in sweeps)
            metrics = {
                "wall_s": med(lambda s: s["wall_s"]),
                "cpu_s": med(lambda s: s["cpu_s"]),
                "setup_s": statistics.median(setup),
                # The highest of the run's processes: with 4 threads the
                # allocator's arena count, and so the high-water mark,
                # depends on thread timing.
                "peak_rss_mb": max(s["peak_rss_mb"] for s in sweeps),
                "sim_mips": med(lambda s: s["sim_insts"] / s["wall_s"] / 1e6),
            }
            samples = {"sweeps": sweeps, "setup_s": setup}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outputs = checked + ([prep] if prep else [])
    digest = checked[-1]["digest"]
    problems = [p for c in outputs for p in c["problems"]]
    digests = {c["digest"] for c in checked}
    if len(digests) != 1:
        problems.append("digest differs between sweeps: "
                        + ", ".join(sorted(digests)))
    if prep and prep["digest"] != digest:
        # Trace and checkpoint replay are bit-identical to generation.
        problems.append(f"warm digest {digest} != cold {prep['digest']}")
    return {
        "workload": workload, "seed": seed, "trace": trace, "mini": mini,
        "digest": digest, "correct": not problems, "problems": problems[:20],
        "attempted": sum(c["cells"] for c in outputs),
        "failed": sum(c["failed"] for c in outputs),
        "metrics": metrics, "samples": samples,
    }


def publish(record, spec):
    """The result object printed last: every catalogued metric, with unit."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    out = {}
    for m in listed:
        if m["name"] not in record["metrics"]:
            raise LedgerError("harness emitted no value for " + m["name"])
        out[m["name"]] = {"value": record["metrics"][m["name"]],
                          "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": out}


def main_run(args):
    spec = catalogue()
    if args.workload not in WORKLOADS:
        raise LedgerError(f"unknown workload {args.workload!r}")
    binary = build()
    threads = min(4, nproc())
    record = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace, False, threads)
    record["fingerprint"] = fingerprint(binary, threads)
    result = publish(record, spec)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(f"ledger: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} digest={record['digest']}")
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    for p in record["problems"]:
        print("problem: " + p)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, timed and traced, every metric printed by name."""
    spec = catalogue()
    binary = build()
    threads = min(4, nproc())
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(binary, workload, args.seed, args.seconds,
                                  trace, False, threads)
            result = publish(record, spec)
            correct = correct and result["correct"]
            print(f"== {workload} trace={trace}: correct={result['correct']}"
                  f" cells={result['attempted']} failed={result['failed']}"
                  f" digest={record['digest']}")
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return 0 if correct else 1


def selftest():
    spec = catalogue()
    binary = build()
    threads = min(4, nproc())
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rec = run_workload(binary, workload, 1, 0, trace, True, threads)
            res = publish(rec, spec)
            tag = f"{workload} trace={trace}"
            if not res["correct"] or res["failed"]:
                failures.append(f"{tag}: not correct: {rec['problems']}")
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            for m in listed:
                got = res["metrics"][m["name"]]
                if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    failures.append(f"{tag}: {m['name']} = {got}")
            lay = rec["metrics"]
            if trace and abs(lay["trace.coverage"] - 1.0) > 0.05:
                failures.append(f"{tag}: layers cover {lay['trace.coverage']:.3f}"
                                " of the traced wall")
            if trace and workload == "fig6a_smarts_warm" and lay["sampling.ckpt_build_s"]:
                failures.append(f"{tag}: checkpoints were built, not loaded")
            if trace and workload == "fig6a_smarts" and lay["sampling.ckpt_load_s"]:
                failures.append(f"{tag}: checkpoints were loaded, not built")
            print(f"selftest: {tag}: {rec['attempted']} cells checked, "
                  f"digest {rec['digest']}")
    for f in failures:
        print("selftest FAILED: " + f)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


def load_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def compare(parent_path, change_path):
    spec = catalogue()
    parent, change = load_records(parent_path), load_records(change_path)
    for field in COMPARABLE:
        values = {json.dumps(r["fingerprint"][field]) for r in parent + change}
        if len(values) > 1:
            print(f"not comparable: host field {field} differs: "
                  + " vs ".join(sorted(values)))
            return 3
    regressions = 0
    for workload in WORKLOADS:
        p = [r for r in parent if r["workload"] == workload and not r["trace"]]
        c = [r for r in change if r["workload"] == workload and not r["trace"]]
        if not p or not c:
            continue
        print(f"== {workload}: {len(p)} parent runs, {len(c)} change runs")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            pv = [r["metrics"][name] for r in p]
            cv = [r["metrics"][name] for r in c]
            pm, cm = statistics.median(pv), statistics.median(cv)
            q = statistics.quantiles(pv, n=4) if len(pv) > 1 else [pm, pm, pm]
            spread = (q[2] - q[0]) / pm
            worse = ((cm - pm) if lower else (pm - cm)) / pm
            by_seed = {r["seed"]: r["metrics"][name] for r in p}
            pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in c
                     if r["seed"] in by_seed]
            wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
            if spread > m["bound"]:
                verdict = "unresolved (parent spread exceeds bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > spread and pairs and wins >= 0.9 * len(pairs):
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {name:12s} parent {pm:.6g} change {cm:.6g} {m['unit']:6s}"
                  f" ({-worse:+.1%}, parent spread {spread:.1%}, wins"
                  f" {wins}/{len(pairs)}): {verdict}")
        # A performance-only change leaves every simulated statistic alone.
        parent_digest = {r["seed"]: r["digest"] for r in p}
        paired = [r for r in c if r["seed"] in parent_digest]
        same = sum(1 for r in paired if r["digest"] == parent_digest[r["seed"]])
        print(f"  simulated statistics identical on {same} of {len(paired)}"
              " paired seeds")
    return 1 if regressions else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        return compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.all:
            return run_all(args)
        if not args.workload:
            ap.error("--workload is required")
        return main_run(args)
    except (LedgerError, OSError, ValueError, KeyError) as e:
        print(f"ledger: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
