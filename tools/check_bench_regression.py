#!/usr/bin/env python3
"""CI gate for benchmark throughput (docs/PERF.md, docs/SERVICE.md).

Compares fresh benchmark JSON against the matching section of
BENCH_BASELINE.json and fails when any tracked series drops below
``threshold`` (default 0.70, i.e. a >30% regression) of its baseline.

Three input formats are understood:

* ``--micro``: google-benchmark ``--benchmark_format=json`` output from
  bench_micro; entries are matched by benchmark name (``BM_EchoEngine*``,
  the ``BM_Fig2*`` delivery path, the ``BM_RbEngine*``/``BM_RbxBatch*``
  reliable-broadcast ingest path, and the ``BM_KvStore*`` replica apply
  path) and compared on ``items_per_second`` (echoes/sec; delivered
  messages/sec for the delivery path; handled messages/sec for RbEngine
  ingest; batch entries/sec for the batch view; applied writes/sec for
  the KV store), against the ``echo_path`` baseline section.
* ``--x4``: rcp-bench-v1 ``--json`` output from bench_x4_complexity;
  entries are matched by series ``label`` (``echo_path_n*``) and compared
  on ``trials_per_sec`` (echoes/sec), against ``echo_path``.
* ``--svc`` (repeatable): rcp-svc-v1 ``--json`` output from kv_loadgen;
  runs are matched by ``label`` (``sim_n7``, ``net_n7``,
  ``net_n7_shared4`` etc.) and compared on ``ops_per_sec``. The document's ``mode`` field
  selects the baseline subsection — ``service.ops_per_sec`` for sim,
  ``service.net_ops_per_sec`` for net — so the simulated and the TCP-mesh
  loadgen runs gate independently. A run that did not converge
  (``ok: false``) fails outright.
* ``--net``: rcp-net-sweep-v1 ``--json`` output from net_cluster
  ``--sweep``; runs are matched by ``label`` (``fig1_n7_tpn``,
  ``fig1_n100_shared4`` etc.) and compared on ``msgs_per_sec``, against
  the ``net`` baseline section. A run that did not decide (``ok: false``)
  fails outright.

A baseline entry with no counterpart in the fresh output is an error —
renaming or dropping a benchmark must be an explicit baseline edit, never
a silently passing gate. Exit status: 0 clean, 1 regression or mismatch.
"""

import argparse
import json
import sys


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def micro_results(path):
    """Name -> items_per_second for the echo-path, delivery-path,
    reliable-broadcast ingest and KV store apply benchmarks in
    bench_micro."""
    doc = load_json(path)
    prefixes = ("BM_EchoEngine", "BM_Fig2", "BM_RbEngine", "BM_RbxBatch",
                "BM_KvStore")
    return {
        b["name"]: float(b["items_per_second"])
        for b in doc.get("benchmarks", [])
        if b["name"].startswith(prefixes)
        and "items_per_second" in b
    }


def x4_results(path):
    """Label -> trials_per_sec for the labelled series in bench_x4."""
    doc = load_json(path)
    if doc.get("schema") != "rcp-bench-v1":
        raise SystemExit(f"{path}: expected schema rcp-bench-v1")
    return {
        s["label"]: float(s["trials_per_sec"])
        for s in doc.get("series", [])
        if "label" in s
    }


def svc_results(path, failures):
    """(mode, label -> ops_per_sec) for kv_loadgen runs; non-ok runs fail."""
    doc = load_json(path)
    if doc.get("schema") != "rcp-svc-v1":
        raise SystemExit(f"{path}: expected schema rcp-svc-v1")
    out = {}
    for run in doc.get("runs", []):
        if "label" not in run:
            continue
        if not run.get("ok", False):
            failures.append(
                f"kv_loadgen: {run['label']}: run did not converge (ok=false)"
            )
            continue
        out[run["label"]] = float(run["ops_per_sec"])
    return doc.get("mode", "sim"), out


def net_results(path, failures):
    """Label -> msgs_per_sec for the net_cluster sweep; non-ok runs fail."""
    doc = load_json(path)
    if doc.get("schema") != "rcp-net-sweep-v1":
        raise SystemExit(f"{path}: expected schema rcp-net-sweep-v1")
    out = {}
    for run in doc.get("runs", []):
        if "label" not in run:
            continue
        if not run.get("ok", False):
            failures.append(
                f"net_cluster: {run['label']}: run did not decide (ok=false)"
            )
            continue
        out[run["label"]] = float(run["msgs_per_sec"])
    return out


def check(kind, baseline, current, threshold, failures):
    for name, base in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{kind}: {name}: missing from fresh output")
            continue
        now = current[name]
        ratio = now / base if base > 0 else float("inf")
        status = "ok" if ratio >= threshold else "REGRESSION"
        print(
            f"{kind}: {name}: baseline {base:.3e}/s, "
            f"current {now:.3e}/s, ratio {ratio:.2f} [{status}]"
        )
        if ratio < threshold:
            failures.append(
                f"{kind}: {name}: {now:.3e}/s is {ratio:.2f}x baseline "
                f"{base:.3e}/s (gate {threshold:.2f}x)"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default="BENCH_BASELINE.json",
        help="baseline document holding the echo_path section",
    )
    parser.add_argument(
        "--micro", help="bench_micro --benchmark_format=json output"
    )
    parser.add_argument("--x4", help="bench_x4_complexity --json output")
    parser.add_argument(
        "--svc",
        action="append",
        default=[],
        help="kv_loadgen --json output (rcp-svc-v1); repeatable",
    )
    parser.add_argument(
        "--net",
        help="net_cluster --sweep --json output (rcp-net-sweep-v1)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.70,
        help="minimum current/baseline ratio (0.70 = fail on >30%% drop)",
    )
    args = parser.parse_args()
    if not args.micro and not args.x4 and not args.svc and not args.net:
        parser.error(
            "nothing to check: pass --micro, --x4, --svc and/or --net"
        )

    doc = load_json(args.baseline)
    failures = []
    if args.micro or args.x4:
        baseline = doc.get("echo_path")
        if baseline is None:
            raise SystemExit(f"{args.baseline}: no echo_path section")
        if args.micro:
            check(
                "bench_micro",
                baseline.get("bench_micro_items_per_second", {}),
                micro_results(args.micro),
                args.threshold,
                failures,
            )
        if args.x4:
            check(
                "x4_complexity",
                baseline.get("x4_complexity_trials_per_sec", {}),
                x4_results(args.x4),
                args.threshold,
                failures,
            )
    if args.svc:
        baseline = doc.get("service")
        if baseline is None:
            raise SystemExit(f"{args.baseline}: no service section")
        for path in args.svc:
            mode, results = svc_results(path, failures)
            key = "net_ops_per_sec" if mode == "net" else "ops_per_sec"
            section = baseline.get(key)
            if section is None:
                raise SystemExit(f"{args.baseline}: no service.{key} entries")
            check(
                f"kv_loadgen[{mode}]",
                section,
                results,
                args.threshold,
                failures,
            )

    if args.net:
        baseline = doc.get("net")
        if baseline is None:
            raise SystemExit(f"{args.baseline}: no net section")
        check(
            "net_cluster",
            baseline.get("msgs_per_sec", {}),
            net_results(args.net, failures),
            args.threshold,
            failures,
        )

    if failures:
        print(f"\n{len(failures)} throughput gate failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbenchmark throughput within gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
