#!/usr/bin/env python3
"""A/B comparison of two versions of the repository on perfbench.

Run from the repository root:

    python3 tools/bench_ab.py --base HEAD --change WORKTREE \\
        --workload kv_single_loop --seeds 7 --pairs 10 --seconds 45

Checks out `--base` and `--change` (a commit, or WORKTREE for the files of
the working tree, untracked ones included) into two directories under
`--scratch`, and runs the unchanged `perfbench/run.py` of each in
alternating pairs, base first in even pairs and change first in odd ones,
so drift of the host's speed falls on both sides alike. Each side builds
in its own directory before the first measured run; a build stays in
`--scratch` and a later invocation reuses it only if that side's sources
are byte-identical. The
checkouts are plain file trees (`git archive`), not git worktrees, so
nothing is registered in the repository and an interrupted run leaves
nothing behind in it.

Prints, for each workload, seed and metric, both medians, the base's
quartiles and how many pairs the change won. Exits 1 when, on any
end-to-end metric of BENCHMARK.json, the change's median is worse than the
base's by more than the metric's bound *and* lies outside the base's
interquartile range, or when the change fails a larger share of operations
than the base. Runs that end incorrect are listed with their notes.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKTREE = "WORKTREE"


def git(repo, *args, **kwargs):
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          stdout=subprocess.PIPE, text=True, **kwargs).stdout


def checkout(repo, rev, dest):
    """Writes the files of `rev` (or of the working tree) into `dest`,
    keeping the build directory a previous invocation left there."""
    os.makedirs(dest, exist_ok=True)
    for entry in os.listdir(dest):
        if entry == ".bench_build":
            continue
        path = os.path.join(dest, entry)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    if rev == WORKTREE:
        listed = git(repo, "ls-files", "-z", "--cached", "--others",
                     "--exclude-standard")
        for path in filter(None, listed.split("\0")):
            src = os.path.join(repo, path)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            target = os.path.join(dest, path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(src, target)
    else:
        archive = subprocess.Popen(["git", "-C", repo, "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"bench_ab: git archive {rev} failed")
    # A kept build is reused only for identical sources: file times are
    # preserved, so make alone would miss an edit older than the build.
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(dest):
        dirs[:] = sorted(d for d in dirs if d != ".bench_build")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, dest).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    build = os.path.join(dest, ".bench_build")
    stamp = os.path.join(build, "sources.sha256")
    if os.path.exists(build):
        kept = ""
        if os.path.exists(stamp):
            with open(stamp, encoding="utf-8") as f:
                kept = f.read()
        if kept != digest.hexdigest():
            shutil.rmtree(build)
    os.makedirs(build, exist_ok=True)
    with open(stamp, "w", encoding="utf-8") as f:
        f.write(digest.hexdigest())


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; the parsed JSON, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]  # perfbench prints its notes first
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(spec, base_runs, change_runs, trace):
    """Rows of (metric, base median, q1, q3, change median, wins, pairs,
    regressed) for every metric both sides reported."""
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    rows = []
    for m in metrics:
        name = m["name"]
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base_runs, change_runs)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        higher = m["better"] == "higher"
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        bmed = statistics.median(base)
        cmed = statistics.median(change)
        q1, q3 = quartiles(base)
        wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
        regressed = False
        if "bound" in m and bmed != 0:
            worse = (bmed - cmed) / bmed if higher else (cmed - bmed) / bmed
            outside = cmed < q1 if higher else cmed > q3
            regressed = worse > m["bound"] and outside
        rows.append((name, bmed, q1, q3, cmed, wins, len(pairs), regressed))
    return rows


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--change", default=WORKTREE,
                        help="commit to measure, or WORKTREE (default)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="7",
                        help="comma-separated seeds (default 7)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload and seed")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=".bench_ab",
                        help="directory for the two checkouts and builds")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")

    repo = git(".", "rev-parse", "--show-toplevel").strip()
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    scratch = os.path.abspath(args.scratch)
    trees = {"base": os.path.join(scratch, "base"),
             "change": os.path.join(scratch, "change")}
    for side, rev in (("base", args.base), ("change", args.change)):
        print(f"[bench_ab] {side}: {rev} -> {trees[side]}", flush=True)
        checkout(repo, rev, trees[side])
        # Builds the side's perfbench binary: a one-second run is the
        # cheapest way through run.py's own build step.
        if run_once(trees[side], args.workload[0], 0, 1, 0) is None:
            raise SystemExit(f"bench_ab: {side} failed to build or run")

    seeds = [int(s) for s in args.seeds.split(",")]
    record = []
    status = 0
    for workload in args.workload:
        for seed in seeds:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                               "base")
                for side in order:
                    result = run_once(trees[side], workload, seed,
                                      args.seconds, args.trace)
                    if result is None:
                        raise SystemExit(f"bench_ab: {side} run failed")
                    runs[side].append(result)
                    record.append({"workload": workload, "seed": seed,
                                   "pair": i, "side": side,
                                   "result": result})
                    if not result["correct"]:
                        print(f"[bench_ab] {workload} seed {seed} pair {i} "
                              f"{side}: incorrect: "
                              f"{'; '.join(result['notes'])}",
                              flush=True)
                print(f"[bench_ab] {workload} seed {seed}: pair {i + 1}/"
                      f"{args.pairs} done", flush=True)
            print(f"\n{workload}, seed {seed}, {args.pairs} pairs of "
                  f"{args.seconds} s, trace {args.trace}")
            print("| metric | base median | base q1 | base q3 | "
                  "change median | change/base | wins/pairs |")
            print("|---|---|---|---|---|---|---|")
            for name, bmed, q1, q3, cmed, wins, n, bad in compare(
                    spec, runs["base"], runs["change"], args.trace):
                ratio = cmed / bmed if bmed else float("nan")
                flag = " REGRESSED" if bad else ""
                print(f"| {name} | {bmed:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{cmed:.4g} | {ratio:.3f} | {wins}/{n}{flag} |")
                status = 1 if bad else status
            base_failed = failed_share(runs["base"])
            change_failed = failed_share(runs["change"])
            print(f"failed ops: base {base_failed:.2%}, change "
                  f"{change_failed:.2%}", flush=True)
            if change_failed > base_failed:
                status = 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
