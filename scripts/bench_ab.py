#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark against another revision.

Run from anywhere inside a checkout (or through `make bench-ab REV=<rev>`):

    python3 scripts/bench_ab.py --rev HEAD~1 --seconds 15

The revision is checked out with `git worktree` under .bench_build/ab/,
and `python3 perfbench/run.py` runs on both trees with identical
arguments: PAIRS pairs per workload, alternating which tree runs
first. The working tree, uncommitted changes included, is the change;
the revision is the base. For every end-to-end metric in this tree's
BENCHMARK.json the script prints each side's median and quartiles, the
fraction of pairs the change won, whether the medians differ by more
than the base's interquartile range, and whether the change moved the
median beyond the metric's bound. The worktree is removed at the end.

Each workload's verdict is also appended as one JSON line to the
checked-in ledger scripts/ledger.jsonl: the base and head commits (head
is the working tree's HEAD, with "dirty" true when the tree had changes
or untracked files that are not ignored), the seed, seconds and pairs, and for every
end-to-end metric, under perfbench's name and unit, both sides' median
and quartiles, the change's wins, the relative delta of the medians,
whether it exceeds the base's interquartile range, and the bound verdict.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# PAIRS is the number of alternating base/change pairs per workload: the
# fewest that can show a 9-of-10 win fraction.
PAIRS = 10


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_bench(tree, workload, seed, seconds):
    """Runs perfbench in tree and returns its JSON result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("bench_ab: %s in %s exited %d" % (workload, tree, out.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="base revision to compare against")
    ap.add_argument("--seconds", type=int, default=0, help="seconds per run (0 = BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="campaign base seed passed to perfbench")
    ap.add_argument("--workloads", default="", help="comma-separated workloads (default: all in BENCHMARK.json)")
    args = ap.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    ledger = os.path.join(root, "scripts", "ledger.jsonl")
    head = git(root, "rev-parse", "HEAD")
    dirty = bool(git(root, "status", "--porcelain"))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    sha = git(root, "rev-parse", "--verify", args.rev + "^{commit}")
    base = os.path.join(root, ".bench_build", "ab", sha[:12])
    if os.path.exists(base):
        git(root, "worktree", "remove", "--force", base)
    git(root, "worktree", "add", "--detach", base, sha)
    try:
        for w in workloads:
            results = {"base": [], "change": []}
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    r = run_bench(base if side == "base" else root, w, args.seed, seconds)
                    results[side].append(r)
                    print("bench_ab: %s pair %d/%d %s: %s" % (w, i + 1, PAIRS, side,
                          json.dumps(r["metrics"], sort_keys=True)), file=sys.stderr)
            line = dict(workload=w, base=sha, head=head, dirty=dirty, seed=args.seed,
                        seconds=seconds, pairs=PAIRS, **report(w, sha, results, bench["end_to_end"]))
            with open(ledger, "a") as f:
                f.write(json.dumps(line, sort_keys=True) + "\n")
    finally:
        git(root, "worktree", "remove", "--force", base)
    return 0


def report(workload, sha, results, metrics):
    """Prints the workload's verdict and returns it as a ledger entry."""
    bad = [(side, r) for side in ("base", "change") for r in results[side]
           if not r.get("correct") or r.get("failed")]
    entry = {"bad_runs": len(bad), "metrics": {}}
    print("\n%s: base %s vs working tree, %d pairs" % (workload, sha[:12], len(results["base"])))
    for side, r in bad:
        print("  %s run incorrect or failed points: correct=%s failed=%s" % (side, r.get("correct"), r.get("failed")))
    print("  %-14s %-34s %-34s %5s %6s %-5s %s" % ("metric", "base median [q1, q3]", "change median [q1, q3]",
                                                "wins", "delta", ">IQR", "bound"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in results["base"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        bmed, bq1, bq3 = quartiles(b)
        cmed, cq1, cq3 = quartiles(c)
        wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
        delta = (cmed - bmed) / bmed if bmed else 0.0
        gain = delta if higher else -delta
        verdict = "within %.2f" % m["bound"]
        if abs(delta) > m["bound"]:
            verdict = ("better" if gain > 0 else "WORSE") + " beyond %.2f" % m["bound"]
        beyond_iqr = abs(cmed - bmed) > bq3 - bq1
        print("  %-14s %-34s %-34s %2d/%-2d %+6.3f %-5s %s" % (
            name, "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3), "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3),
            wins, len(b), delta, "yes" if beyond_iqr else "no", verdict))
        entry["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "head": {"median": cmed, "q1": cq1, "q3": cq3},
            "wins": wins, "delta": round(delta, 6), "beyond_iqr": beyond_iqr, "verdict": verdict,
        }
    return entry


if __name__ == "__main__":
    sys.exit(main())
