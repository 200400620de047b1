#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench/hbbench.exe from source
and runs one workload, or compares two sets of results.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py selftest
  python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
  python3 perfbench/run.py record

Run from the root of a checkout.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is the full result record, which is also appended to
.bench_results/<workload>.jsonl.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json"))) if os.path.exists(
    os.path.join(HERE, "..", "BENCHMARK.json")) else None
BUILD_DIR = ".bench_build"
RESULTS_DIR = ".bench_results"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "hbbench.exe")
REFERENCE = os.path.join("perfbench", "reference.tsv")
WORKLOADS = ["paper", "pa", "dense", "liveness"]
EXE_TIMEOUT = 165

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "states_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in [
        (".ns", "ns"), (".ms", "ms"), (".self_s", "s"), (".s", "s"),
        ("_per_s", "1/s"), (".bytes", "bytes"), ("_mb", "MB"),
        ("_ratio", "ratio"), (".speedup_2dom", "ratio"),
    ]:
        if name.endswith(suffix):
            return unit
    return "count"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("no dune on PATH (and no opam to find one)")


def build():
    """Build hbbench.exe in the checkout; build output goes to stderr."""
    for needed in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            fail("not the root of a checkout: %s is missing" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        "./perfbench/hbbench.exe",
    ]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=870)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % r.returncode)


def run_exe(workload, seed, seconds, trace, reduced=False):
    tmp_dir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--reference", REFERENCE, "--tmp-dir", tmp_dir]
    if trace:
        cmd.append("--trace")
    if reduced:
        cmd.append("--reduced")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=EXE_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, EXE_TIMEOUT))
    if r.returncode != 0:
        fail("%s exited with %d" % (workload, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def reference_states(workload, reduced):
    key = "states/" + workload + ("/reduced" if reduced else "")
    with open(REFERENCE) as f:
        for line in f:
            k, _, v = line.rstrip("\n").partition("\t")
            if k == key:
                return int(v)
    fail("reference has no %s" % key)


# The tail percentile of each workload: the highest of the usual ones
# with at least ten queries beyond it in a run of the usual length
# (queries a pass x passes in 20 s: paper 196 x 2, pa 48 x 2, dense
# 13 x 7, liveness 79 x 4).  Fixed per workload, so that a run with one
# pass more or less reads the same percentile.
TAIL_PERCENTILE = {"paper": 95, "pa": 75, "dense": 75, "liveness": 95}


def percentile(values, p):
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def source_digest():
    """Digest of the sources built, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["lib", "perfbench"]:
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".tsv")):
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    h.update(open(p, "rb").read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    except OSError:
        return None


# Median time of hbbench's calibration chunk on the reference host (a
# 2-core Xeon VM).  Times are reported as they would read on that host:
# each pass, query and set-up is scaled by CALIBRATION_REF_S over the
# calibration chunks timed around it, which takes the drift of a shared
# host's speed (about +-20 % over tens of seconds) out of every workload
# alike.  The unscaled values are kept in the record.
CALIBRATION_REF_S = 0.018


def end_to_end(raw, workload, reduced):
    scale = [CALIBRATION_REF_S / c for c in raw["pass_calib_s"]]
    lat = [q * CALIBRATION_REF_S / c for q, c in zip(raw["query_ms"], raw["query_calib_s"])]
    wall = statistics.median(w * k for w, k in zip(raw["pass_wall_s"], scale))
    tail_p = TAIL_PERCENTILE[workload]
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(c * k for c, k in zip(raw["pass_cpu_s"], scale)),
        "setup_s": statistics.median(
            t * CALIBRATION_REF_S / c for t, c in zip(raw["setup_s"], raw["setup_calib_s"])),
        "peak_rss_mb": raw["peak_rss_mb"],
        "states_per_s": reference_states(workload, reduced) / wall,
        "query_p50_ms": percentile(lat, 50),
        "query_tail_ms": percentile(lat, tail_p),
    }
    extra = {"query_tail_percentile": tail_p, "query_samples": len(lat),
             "passes": len(raw["pass_wall_s"]),
             "unscaled": {"wall_s": statistics.median(raw["pass_wall_s"]),
                          "cpu_s": statistics.median(raw["pass_cpu_s"]),
                          "setup_s": statistics.median(raw["setup_s"]),
                          "calibration_s": statistics.median(raw["pass_calib_s"])}}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, extra


def per_layer(raw):
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in raw["layers"].items()}


def record(workload, seed, trace, reduced, raw, metrics, extra):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, workload + (".reduced" if reduced else "") + ".jsonl")
    runs = sum(1 for _ in open(path)) if os.path.exists(path) else 0
    rec = {
        "workload": workload, "seed": seed, "trace": trace, "reduced": reduced,
        "run": runs + 1,
        "host": {"nproc": os.cpu_count(), "recommended_domains": raw["recommended_domains"],
                 "ocaml": raw["ocaml"]},
        "commit": git_commit(), "source_digest": source_digest(),
        "checks": raw["checks"], "checks_wrong": raw["checks_wrong"],
        "wrong_keys": raw["wrong_keys"], "metrics": metrics, **extra,
    }
    with open(path, "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
    return rec


def run_workload(workload, seed, seconds, trace, reduced=False):
    raw = run_exe(workload, seed, seconds, trace, reduced)
    if trace:
        metrics, extra = per_layer(raw), {"states_per_pass": raw["states_per_pass"]}
    else:
        metrics, extra = end_to_end(raw, workload, reduced)
    unmeasured = [k for k, v in metrics.items() if v["value"] is None]
    if unmeasured:
        fail("%s: not measured: %s" % (workload, ", ".join(unmeasured)))
    rec = record(workload, seed, trace, reduced, raw, metrics, extra)
    result = {"correct": raw["checks_wrong"] == 0, "attempted": raw["checks"],
              "failed": raw["checks_wrong"], "metrics": metrics}
    return rec, result


def cmd_run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    build()
    rec, result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(rec, sort_keys=True))
    print(json.dumps(result))
    if not result["correct"]:
        print("perfbench: wrong answers: " + ", ".join(rec["wrong_keys"]), file=sys.stderr)
        sys.exit(1)


def cmd_selftest(_args):
    """The reduced profile: smallest instances, every workload untraced
    and traced, reference answers and output schema checked."""
    build()
    layer_names = [m["name"] for m in BENCH["per_layer"]] if BENCH else []
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            rec, result = run_workload(w, 1, 0, trace, reduced=True)
            names = layer_names if trace else list(END_TO_END_UNITS)
            missing = [n for n in names if n not in result["metrics"]]
            extra = [n for n in result["metrics"] if n not in names]
            if not result["correct"]:
                problems.append("%s: wrong answers %s" % (w, rec["wrong_keys"]))
            if missing or extra or result["attempted"] < 1:
                problems.append("%s trace=%d: missing %s extra %s" % (w, trace, missing, extra))
            print("%-9s trace=%d checks=%d wrong=%d" % (w, trace, result["attempted"],
                                                       result["failed"]))
    if problems:
        print("\n".join(problems))
        sys.exit(1)
    print("selftest ok")


def cmd_record(_args):
    """Rewrite the reference from this build's answers.  Only after the
    answers have been checked against the paper by other means."""
    build()
    if not os.path.exists(REFERENCE):
        open(REFERENCE, "w").close()
    answers = {}
    for w in WORKLOADS:
        for reduced in (False, True):
            raw = run_exe(w, 1, 0, True, reduced)
            answers.update(raw["answers"])
            answers["states/" + w + ("/reduced" if reduced else "")] = str(raw["states_per_pass"])
    answers = {k: v for k, v in answers.items() if not k.startswith("probe/")}
    with open(REFERENCE, "w") as f:
        f.write("# Reference answers: key TAB answer.  See perfbench/README.md.\n")
        for k in sorted(answers):
            f.write("%s\t%s\n" % (k, answers[k]))
    print("wrote %d answers to %s" % (len(answers), REFERENCE))


def load_results(directory):
    """workload -> metric -> {seed: value} from a results directory."""
    out = {}
    for w in WORKLOADS:
        path = os.path.join(directory, w + ".jsonl")
        if not os.path.exists(path):
            continue
        for line in open(path):
            rec = json.loads(line)
            if rec["trace"]:
                continue
            for m, v in rec["metrics"].items():
                out.setdefault(w, {}).setdefault(m, []).append((rec["seed"], v["value"]))
    return out


def cmd_compare(args):
    """Per workload and end-to-end metric: medians, quartiles, paired win
    fraction and a verdict (improved / within bound / worse / unresolved)."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in BENCH["end_to_end"]}
    parent, change = load_results(args.parent), load_results(args.change)
    print("%-9s %-14s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "wins",
        "verdict"))
    for w in WORKLOADS:
        for m, (bound, better) in bounds.items():
            p = parent.get(w, {}).get(m, [])
            c = change.get(w, {}).get(m, [])
            if len(p) < 2 or len(c) < 2:
                continue
            pv, cv = [v for _, v in p], [v for _, v in c]
            pq, cq = statistics.quantiles(pv, n=4), statistics.quantiles(cv, n=4)
            pm, cm = statistics.median(pv), statistics.median(cv)
            sign = 1 if better == "higher" else -1
            cs = dict(c)
            pairs = [(pvv, cs[s]) for s, pvv in p if s in cs] or list(zip(pv, cv))
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            win_frac = wins / len(pairs)
            spread = (pq[2] - pq[0])
            worse_by = -sign * (cm - pm) / pm if pm else 0.0
            if win_frac >= 0.9 and abs(cm - pm) > spread:
                verdict = "improved"
            elif spread / pm > bound and not (
                    min(cv) > max(pv) if sign > 0 else max(cv) < min(pv)):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            print("%-9s %-14s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %5.0f%%  %s" % (
                w, m, pm, pq[0], pq[2], cm, cq[0], cq[2], 100 * win_frac, verdict))


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("selftest", "compare", "record"):
        ap = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            ap.add_argument("parent")
            ap.add_argument("change")
        args = ap.parse_args(sys.argv[2:])
        {"selftest": cmd_selftest, "compare": cmd_compare, "record": cmd_record}[
            sys.argv[1]](args)
        return
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    cmd_run(ap.parse_args())


if __name__ == "__main__":
    main()
