#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --baseline FILE DIR [DIR ...]

Each directory holds the result records `run.py --out DIR` writes (use
--repeat for several runs per workload).  One row is printed per
workload and metric:

- simulated metrics (sim clock, on simulator workloads) must be
  identical run for run at the same seed;
- host metrics are checked against the bound the benchmark fixes; a
  metric whose quartile spread exceeds its bound is "unresolved"
  unless every change run beats every parent run;
- a gain is claimed only with >= 10 pairs, >= 9/10 of them won by the
  change (ties count for neither), and a median gap larger than the
  parent's interquartile range.

Exits 1 when, on a workload BENCHMARK.json gates, a host metric
regresses beyond its bound or a simulated metric differs.  --baseline
instead writes the median, quartiles and N of every metric over all
records of the given directories.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (metric and workload definitions)

E2E = {n: dict(unit=u, better=b, bound=bd, clock=c)
       for n, u, b, bd, c, _ in run.END_TO_END}
LAYER = {n: dict(unit=u, better=b, bound=None, clock=c)
         for n, u, b, _, _, c in run.PER_LAYER}


def load(directory):
    """workload -> records, in the order the runs were made."""
    recs = [json.loads(p.read_text())
            for p in Path(directory).glob("*.json")
            if not p.name.endswith(".raw.json")]
    if not recs:
        sys.exit(f"compare.py: no result records in {directory}")
    out = {}
    for r in sorted(recs, key=lambda r: r["started_unix"]):
        out.setdefault(r["workload"], []).append(r)
    return out


def values(records, name):
    """(seed, value) per record.  End-to-end metrics come only from
    untraced runs (a traced run gives each runner half the window)."""
    if name in E2E:
        return [(r["seed"], r["end_to_end"][name]["value"])
                for r in records if not r["trace"]]
    return [(r["seed"], r["per_layer"][name])
            for r in records if r["trace"]]


def better(x, y, direction):
    """True when x is strictly better than y."""
    return x < y if direction == "lower" else x > y


def verdict(meta, a, b, deterministic):
    """Status string for one workload x metric."""
    if deterministic:
        pairs = {}
        for seed, v in a:
            pairs.setdefault(seed, [set(), set()])[0].add(v)
        for seed, v in b:
            pairs.setdefault(seed, [set(), set()])[1].add(v)
        shared = [s for s, (x, y) in pairs.items() if x and y]
        if not shared:
            return "no common seed"
        same = all(len(x | y) == 1 for s, (x, y) in pairs.items()
                   if s in shared)
        return "identical" if same else "DIFFERS"
    av = [v for _, v in a]
    bv = [v for _, v in b]
    ma, mb = statistics.median(av), statistics.median(bv)
    q1a, q3a = run.quartiles(av)
    q1b, q3b = run.quartiles(bv)
    n = min(len(av), len(bv))
    wins = sum(better(y, x, meta["better"]) for x, y in zip(av, bv))
    if (n >= 10 and wins >= 0.9 * n and abs(mb - ma) > q3a - q1a
            and better(mb, ma, meta["better"])):
        return f"GAIN ({wins}/{n} pairs)"
    if meta["bound"] is None:
        return "-"
    bound = meta["bound"]
    worse = (mb - ma) / ma if ma else 0.0
    if meta["better"] == "higher":
        worse = -worse
    noisy = max((q3a - q1a) / ma if ma else 0.0,
                (q3b - q1b) / mb if mb else 0.0) > bound
    if noisy:
        if all(better(y, x, meta["better"]) for x in av for y in bv):
            return "better (every run)"
        return "unresolved"
    if worse > bound:
        return f"REGRESSION (> {bound:.0%})"
    return "within bound"


def fmt(v):
    return f"{v:.6g}"


def compare(parent, change):
    bad = False
    print(f"{'workload':16s} {'metric':30s} {'unit':7s} "
          f"{'parent median [q1,q3] n':34s} {'change median [q1,q3] n':34s} "
          f"{'delta':>8s}  verdict")
    for wl in run.WORKLOADS:
        if wl not in parent or wl not in change:
            continue
        simulated = parent[wl][0]["meta"]["backend"] == "sim"
        for name, meta in {**E2E, **LAYER}.items():
            a, b = values(parent[wl], name), values(change[wl], name)
            if not a or not b:
                continue
            det = meta["clock"] == "sim" and simulated
            v = verdict(meta, a, b, det)
            if run.WORKLOADS[wl]["gated"]:
                bad |= v.startswith(("REGRESSION", "DIFFERS"))
            else:
                v += " (not gated)"
            av = [x for _, x in a]
            bv = [x for _, x in b]
            ma, mb = statistics.median(av), statistics.median(bv)
            delta = f"{(mb - ma) / ma:+.1%}" if ma else "-"
            cols = []
            for vals, m in ((av, ma), (bv, mb)):
                q1, q3 = run.quartiles(vals)
                cols.append(f"{fmt(m)} [{fmt(q1)},{fmt(q3)}] {len(vals)}")
            print(f"{wl:16s} {name:30s} {meta['unit']:7s} {cols[0]:34s} "
                  f"{cols[1]:34s} {delta:>8s}  {v}")
    return bad


def baseline(sets):
    """Median, quartiles and N of every metric over the union of the
    sets, with the benchmark's definitions."""
    out = {
        "commands": {
            "run": "python3 benchmark/run.py",
            "trace": "python3 benchmark/run.py --trace 1",
            "smoke": "python3 benchmark/run.py --smoke",
            "compare": "python3 benchmark/compare.py PARENT CHANGE",
        },
        "seeds": {"default": run.DEFAULT_SEED,
                  "held_out": run.HELD_OUT_SEED},
        "end_to_end": [dict(name=n, unit=u, better=b, bound=bd, clock=c,
                            definition=d)
                       for n, u, b, bd, c, d in run.END_TO_END],
        "per_layer": [dict(name=n, unit=u, better=b, moves=m, where=w,
                           clock=c)
                      for n, u, b, m, w, c in run.PER_LAYER],
        "workloads": {},
    }
    for wl, w in run.WORKLOADS.items():
        recs = [r for s in sets for r in s.get(wl, [])]
        if not recs:
            continue
        meta = recs[0]["meta"]
        entry = {
            "why": w["why"], "apps": w["apps"], "env": w["env"],
            "args": w["args"], "runs": len(recs),
            "seeds": sorted({r["seed"] for r in recs}),
            "timed_passes_per_run": sorted(
                {r["end_to_end"]["host_s"]["n"] for r in recs
                 if not r["trace"]}),
            "host": {k: meta[k] for k in ("hostCores", "compiler",
                                          "buildType", "cxxFlags",
                                          "backend", "threads", "opt",
                                          "fault", "gitCommit")},
            "metrics": {},
        }
        for name in [*E2E, *LAYER]:
            vals = [v for _, v in values(recs, name)]
            if vals:
                q1, q3 = run.quartiles(vals)
                entry["metrics"][name] = dict(
                    median=statistics.median(vals), q1=q1, q3=q3,
                    n=len(vals))
        out["workloads"][wl] = entry
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", type=Path, nargs="+",
                    help="PARENT CHANGE, or the sets for --baseline")
    ap.add_argument("--baseline", type=Path, metavar="FILE",
                    help="write a baseline from every given directory")
    args = ap.parse_args()
    sets = [load(d) for d in args.dirs]
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline(sets), indent=1) + "\n")
        return 0
    if len(sets) != 2:
        ap.error("comparing takes exactly two directories")
    return 1 if compare(*sets) else 0


if __name__ == "__main__":
    sys.exit(main())
