#!/usr/bin/env python3
"""End-to-end benchmark of the SMP-Shasta reproduction.

Builds the program from ../src into build/benchmark/, runs one workload
per runner process, checks the results, and prints every metric with
its unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
they are the per-layer metrics, taken from a traced runner process (spans
around every call into the program, written as Chrome trace-event
JSON) next to an untraced run that gives the tracing overhead.

    python3 benchmark/run.py                           # every workload
    python3 benchmark/run.py --workload paper-smp16x4 --seed 4242
    python3 benchmark/run.py --workload opt-all --trace 1
    python3 benchmark/run.py --smoke                   # < 30 s check
    python3 benchmark/run.py --repeat 5 --out build/benchmark/set1

See benchmark/README.md for the workloads and metric definitions.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_BUILD = ROOT / "build" / "benchmark"

DEFAULT_SEED = 12345
HELD_OUT_SEED = 4242
RUN_TIMEOUT_S = 170
# Host times are reported for a host on which the runner's calibration
# loop takes this long (a little under its median on the 4-vCPU host
# the baseline was measured on).
CALIBRATE_REF_MS = 2.5
BUILD_TIMEOUT_S = 850

ALL_APPS = ["barnes", "fmm", "lu", "lu-contig", "ocean", "raytrace",
            "volrend", "water-nsq", "water-sp"]

# Every workload runs at smp-16x4 with the Table 1 sizes and the paper's
# home placement for fmm, lu-contig and ocean.  Optional machinery is
# selected only through its environment knob.  BENCHMARK.json gates the
# workloads marked gated; thread-smp16x4 is measured and reported but
# its host time swings by about 20% between runs on a shared 4-vCPU
# host, more than any bound the gate allows (see README.md).
WORKLOADS = {
    "paper-smp16x4": dict(
        apps=ALL_APPS, env={}, args=[], gated=True,
        why="The configuration behind Figures 3-8: event queue, protocol "
            "agents, check model and sync do the work; reliability, "
            "exec, PDES and the opt layer are bypassed."),
    "opt-all": dict(
        apps=["lu-contig", "raytrace", "volrend", "water-nsq", "water-sp"],
        env={"SHASTA_OPT": "all"}, args=["--annotate", "--adaptive"],
        gated=True,
        why="The only workload that runs the opt layer (migratory "
            "detector, check elision, granularity advisor with its "
            "profile run); an opt change must move it and not paper."),
    "faulty-drop2": dict(
        apps=["barnes", "fmm", "water-nsq", "water-sp"], env={},
        args=["--fault=drop:2,dup:1,reorder:1"], gated=True,
        why="Message-heavy apps under loss put the reliability sublayer "
            "(sequence numbers, resequencing, retransmit timers) on the "
            "hot path; paper never enters it."),
    "pdes4-smp16x4": dict(
        apps=["barnes", "ocean", "water-nsq", "water-sp"],
        env={"SHASTA_ENGINE_THREADS": "4"},
        args=["--check-env=SHASTA_ENGINE_THREADS=1"], gated=True,
        why="The only workload on the 4-thread parallel engine; a serial "
            "check pass must replay it byte for byte and gives "
            "sim.pdes_speedup."),
    "thread-smp16x4": dict(
        apps=ALL_APPS, env={"SHASTA_BACKEND": "thread"}, args=[],
        trace_args=["--check-env=SHASTA_BACKEND=sim"], gated=False,
        why="The same protocol agents on SPSC rings, the deadline wheel "
            "and thread sync (4 node threads) instead of the event queue "
            "and Network."),
}

# Clock of a metric: "host" metrics are timed (or counted) on the host
# and vary run to run; "sim" metrics are simulated statistics, exact
# for a seed on the simulator backends.
HOST, SIM = "host", "sim"

# (name, unit, better, bound, clock, definition)
END_TO_END = [
    ("host_s", "s", "lower", 0.2, HOST,
     "Host wall time of one pass: Runtime construction through "
     "destruction of every app, incl. opt-all's profile run; "
     "App::reference excluded.  Fastest pass per app, at reference "
     "host speed."),
    ("setup_s", "s", "lower", 0.25, HOST,
     "Runtime construction plus App::setup per pass, summed over apps; "
     "fastest pass per app, at reference host speed."),
    ("peak_rss_mb", "MB", "lower", 0.1, HOST,
     "ru_maxrss after the last timed pass, before the references."),
    ("sim_cycles_geomean", "cycles", "lower", 0.05, SIM,
     "Geomean over the apps of Runtime::wallTime(), the measured region "
     "(wall-clock ns on the thread backend)."),
]

# (name, unit, better, end-to-end metric it moves, where it works, clock)
PER_LAYER = [
    ("dsm.ctor_ms", "ms", "lower", "setup_s", "heaviest on thread", HOST),
    ("apps.setup_ms", "ms", "lower", "setup_s", "all; light on faulty",
     HOST),
    ("dsm.run_ms", "ms", "lower", "host_s", "all", HOST),
    ("dsm.run_share", "ratio", "lower", "host_s", "all", HOST),
    ("dsm.dtor_ms", "ms", "lower", "host_s", "all", HOST),
    ("apps.checksum_ms", "ms", "lower", "host_s", "all", HOST),
    ("apps.reference_ms", "ms", "lower", "none (excluded)", "all", HOST),
    ("obs.summary_ms", "ms", "lower", "host_s", "all", HOST),
    ("obs.trace_overhead_frac", "ratio", "lower", "host_s", "all", HOST),
    ("mem.advisor_profile_ms", "ms", "lower", "host_s", "opt-all only",
     HOST),
    ("mem.adaptive_shrunk", "count", "higher", "sim_cycles_geomean",
     "opt-all only", SIM),
    ("mem.adaptive_grown", "count", "higher", "sim_cycles_geomean",
     "opt-all only", SIM),
    ("mem.run_allocs", "count", "lower", "host_s", "paper, faulty", HOST),
    ("sim.events", "count", "lower", "host_s",
     "serial sim, most on paper; 0 on thread and pdes4", SIM),
    ("sim.run_ns_per_event", "ns", "lower", "host_s", "serial sim", HOST),
    ("sim.pdes_speedup", "ratio", "higher", "host_s", "pdes4 only", HOST),
    ("check.loads", "count", "lower", "sim_cycles_geomean", "all", SIM),
    ("check.stores", "count", "lower", "sim_cycles_geomean", "all", SIM),
    ("check.batch_checks", "count", "lower", "sim_cycles_geomean", "all",
     SIM),
    ("check.cycles", "cycles", "lower", "sim_cycles_geomean", "all", SIM),
    ("check.elided_frac", "ratio", "higher", "sim_cycles_geomean",
     "opt-all; 0 on paper", SIM),
    ("check.task_cycles", "cycles", "lower", "sim_cycles_geomean", "all",
     SIM),
    ("proto.misses", "count", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.miss_3hop_frac", "ratio", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.private_upgrades", "count", "higher", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.merged_misses", "count", "higher", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.downgrade_ops", "count", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.downgrade_msgs_per_op", "ratio", "lower",
     "sim_cycles_geomean", "paper, opt-all", SIM),
    ("proto.mig_grants", "count", "higher", "sim_cycles_geomean",
     "opt-all only", SIM),
    ("proto.read_stall_cycles", "cycles", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.write_stall_cycles", "cycles", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.read_miss_p50_cycles", "cycles", "lower",
     "sim_cycles_geomean", "paper, opt-all", SIM),
    ("proto.read_miss_p99_cycles", "cycles", "lower",
     "sim_cycles_geomean", "paper, opt-all", SIM),
    ("proto.dir_lookups", "count", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.dir_queued_total", "count", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("proto.dir_peak_queued", "count", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("net.remote_msgs", "count", "lower", "host_s, sim_cycles_geomean",
     "all", SIM),
    ("net.local_msgs", "count", "lower", "host_s, sim_cycles_geomean",
     "all", SIM),
    ("net.downgrade_msgs", "count", "lower", "host_s, sim_cycles_geomean",
     "all", SIM),
    ("net.remote_bytes", "bytes", "lower", "host_s, sim_cycles_geomean",
     "all", SIM),
    ("net.msg_cycles", "cycles", "lower", "sim_cycles_geomean", "all", SIM),
    ("net.run_ns_per_msg", "ns", "lower", "host_s", "all", HOST),
    ("net.rel.retransmits", "count", "lower", "host_s, sim_cycles_geomean",
     "faulty; 0 on paper", SIM),
    ("net.rel.dup_drops", "count", "lower", "host_s, sim_cycles_geomean",
     "faulty; 0 on paper", SIM),
    ("net.rel.reorder_buffered", "count", "lower",
     "host_s, sim_cycles_geomean", "faulty; 0 on paper", SIM),
    ("net.rel.acks_sent", "count", "lower", "host_s, sim_cycles_geomean",
     "faulty; 0 on paper", SIM),
    ("net.rel.goodput", "ratio", "higher", "host_s, sim_cycles_geomean",
     "faulty; 0 on paper", SIM),
    ("net.retry_delay_p99_cycles", "cycles", "lower",
     "host_s, sim_cycles_geomean", "faulty; 0 on paper", SIM),
    ("sync.stall_cycles", "cycles", "lower", "sim_cycles_geomean",
     "paper, opt-all", SIM),
    ("sync.lock_wait_p99_cycles", "cycles", "lower", "sim_cycles_geomean",
     "paper, opt-all (water-nsq is lock-heavy)", SIM),
    ("sync.barrier_wait_p99_cycles", "cycles", "lower",
     "sim_cycles_geomean", "paper, opt-all", SIM),
    ("exec.run_ns_per_msg", "ns", "lower", "host_s", "thread only", HOST),
    ("exec.msg_ratio_vs_sim", "ratio", "lower", "host_s", "thread only",
     HOST),
]

PHASES = ["dsm.ctor", "mem.advisor_profile", "apps.setup", "dsm.run",
          "apps.checksum", "obs.summary", "dsm.dtor"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("run.py: " + msg)
    sys.exit(code)


# ----------------------------------------------------------------------
# Build and run


def build(build_dir):
    """Configure (once) and build the benchmark project."""
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def hermetic_env(extra):
    """The caller's environment minus every SHASTA_* knob, plus the
    workload's own knobs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SHASTA_")}
    env.update(extra)
    return env


def run_bench(bin_dir, workload, seed, seconds, traced, smoke,
               trace_json=None):
    w = WORKLOADS[workload]
    exe = bin_dir / ("shasta_bench_traced" if traced else "shasta_bench")
    cmd = [str(exe), "--apps=" + ",".join(w["apps"]), f"--seed={seed}",
           *w["args"]]
    if traced:
        cmd += w.get("trace_args", [])
    if trace_json:
        cmd.append(f"--trace-json={trace_json}")
    if smoke:
        cmd += ["--smoke", "--warmup=0", "--min-passes=1", "--seconds=0"]
    else:
        cmd.append(f"--seconds={seconds}")
    proc = subprocess.run(cmd, env=hermetic_env(w["env"]),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload}: runner printed nothing (exit {proc.returncode})",
            1)
    out = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        die(f"{workload}: runner exited {proc.returncode}", 1)
    return out


# ----------------------------------------------------------------------
# Metrics


def timed_passes(d):
    return [p for p in d["passes"] if p["kind"] == "timed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def per_pass(d, fn):
    """fn(pass) over the timed passes."""
    return [fn(p) for p in timed_passes(d)]


def app_sum(p, key):
    return sum(r[key] for r in p["runs"])


def stat_sum(p, key):
    return sum(r["stats"][key] for r in p["runs"])


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def ratio(num, den):
    return num / den if den else 0.0


def calibrate_ms(d):
    """Median time of the runner's calibration loop over the run."""
    return statistics.median(r["bench.calibrate"] for p in d["passes"]
                             for r in p["runs"])


def host_ms(d, fn):
    """Sum over apps of each app's fastest timed pass, scaled to a host
    on which the calibration loop takes CALIBRATE_REF_MS.  Noise on a
    shared host only ever adds time: one vCPU slows for seconds (the
    fastest of N passes skips that) and the whole host for minutes (the
    loop, which runs no program code, slows with it)."""
    timed = timed_passes(d)
    fastest = sum(min(fn(p["runs"][i]) for p in timed)
                  for i in range(len(timed[0]["runs"])))
    return fastest * CALIBRATE_REF_MS / calibrate_ms(d)


def setup_ms(r):
    return r["dsm.ctor"] + r["apps.setup"]


def end_to_end(d):
    """name -> {value, median, q1, q3, n} from an untraced runner
    result; median and quartiles are over the timed passes."""
    def entry(value, per_pass_values):
        q1, q3 = quartiles(per_pass_values)
        return {"value": value, "median": statistics.median(per_pass_values),
                "q1": q1, "q3": q3, "n": len(per_pass_values)}

    scale = CALIBRATE_REF_MS / calibrate_ms(d) / 1e3
    timed = timed_passes(d)
    return {
        "host_s": entry(
            host_ms(d, lambda r: r["total_ms"]) / 1e3,
            per_pass(d, lambda p: app_sum(p, "total_ms") * scale)),
        "setup_s": entry(
            host_ms(d, setup_ms) / 1e3,
            per_pass(d, lambda p: sum(map(setup_ms, p["runs"])) * scale)),
        "peak_rss_mb": entry(d["peak_rss_mb"], [d["peak_rss_mb"]]),
        "sim_cycles_geomean": entry(
            geomean([statistics.median(p["runs"][i]["stats"]["sim_cycles"]
                                       for p in timed)
                     for i in range(len(timed[0]["runs"]))]),
            per_pass(d, lambda p: geomean(
                [r["stats"]["sim_cycles"] for r in p["runs"]]))),
    }


def per_layer(traced, untraced):
    """name -> value from a traced runner output (plus the untraced
    run's host time for the tracing overhead)."""
    med = statistics.median

    def phase(key):
        return med(per_pass(traced, lambda p: app_sum(p, key)))

    def stat(key):
        return med(per_pass(traced, lambda p: stat_sum(p, key)))

    def hist(key):
        return med(per_pass(traced, lambda p: p["hist"][key]))

    meta = traced["meta"]
    serial_sim = meta["backend"] == "sim" and meta["threads"] == 1
    pass_ms = phase("total_ms")
    run_ms = phase("dsm.run")
    msgs = stat("total_msgs")
    events = stat("events") if serial_sim else 0.0
    m = {
        "dsm.ctor_ms": phase("dsm.ctor"),
        "apps.setup_ms": phase("apps.setup"),
        "dsm.run_ms": run_ms,
        "dsm.run_share": ratio(run_ms, pass_ms),
        "dsm.dtor_ms": phase("dsm.dtor"),
        "apps.checksum_ms": phase("apps.checksum"),
        "apps.reference_ms": sum(traced["reference_ms"].values()),
        "obs.summary_ms": phase("obs.summary"),
        "obs.trace_overhead_frac":
            host_ms(traced, lambda r: r["total_ms"]) /
            host_ms(untraced, lambda r: r["total_ms"]) - 1.0,
        "mem.advisor_profile_ms": phase("mem.advisor_profile"),
        "mem.adaptive_shrunk": stat("adaptive_shrunk"),
        "mem.adaptive_grown": stat("adaptive_grown"),
        "mem.run_allocs": stat("run_allocs"),
        "sim.events": events,
        "sim.run_ns_per_event": ratio(run_ms * 1e6, events),
        "sim.pdes_speedup": 0.0,
        "check.loads": stat("check_loads"),
        "check.stores": stat("check_stores"),
        "check.batch_checks": stat("check_batch_checks"),
        "check.cycles": stat("check_cycles"),
        "check.elided_frac": ratio(
            stat("check_elided"),
            stat("check_loads") + stat("check_stores") +
            stat("check_batch_checks")),
        "check.task_cycles": stat("task_cycles"),
        "proto.misses": stat("misses"),
        "proto.miss_3hop_frac": ratio(stat("misses_3hop"), stat("misses")),
        "proto.private_upgrades": stat("private_upgrades"),
        "proto.merged_misses": stat("merged_misses"),
        "proto.downgrade_ops": stat("downgrade_ops"),
        "proto.downgrade_msgs_per_op": ratio(stat("downgrade_msgs"),
                                             stat("downgrade_ops")),
        "proto.mig_grants": stat("mig_grants"),
        "proto.read_stall_cycles": stat("read_stall_cycles"),
        "proto.write_stall_cycles": stat("write_stall_cycles"),
        "proto.read_miss_p50_cycles": hist("read_miss_p50"),
        "proto.read_miss_p99_cycles": hist("read_miss_p99"),
        "proto.dir_lookups": stat("dir_lookups"),
        "proto.dir_queued_total": stat("dir_queued_total"),
        "proto.dir_peak_queued": med(per_pass(
            traced,
            lambda p: max(r["stats"]["dir_peak_queued"] for r in p["runs"]))),
        "net.remote_msgs": stat("remote_msgs"),
        "net.local_msgs": stat("local_msgs"),
        "net.downgrade_msgs": stat("downgrade_msgs"),
        "net.remote_bytes": stat("remote_bytes"),
        "net.msg_cycles": stat("msg_cycles"),
        "net.run_ns_per_msg": ratio(run_ms * 1e6, msgs),
        "net.rel.retransmits": stat("rel_retransmits"),
        "net.rel.dup_drops": stat("rel_dup_drops"),
        "net.rel.reorder_buffered": stat("rel_reorder_buffered"),
        "net.rel.acks_sent": stat("rel_acks_sent"),
        "net.rel.goodput": ratio(
            stat("rel_data_msgs"),
            stat("rel_data_msgs") + stat("rel_retransmits")),
        "net.retry_delay_p99_cycles": hist("retry_delay_p99"),
        "sync.stall_cycles": stat("sync_stall_cycles"),
        "sync.lock_wait_p99_cycles": hist("lock_wait_p99"),
        "sync.barrier_wait_p99_cycles": hist("barrier_wait_p99"),
        "exec.run_ns_per_msg": 0.0,
        "exec.msg_ratio_vs_sim": 0.0,
    }
    check = [p for p in traced["passes"] if p["kind"] == "check"]
    if meta["backend"] == "sim" and check:
        # The check pass runs the serial engine: serial run time over
        # parallel run time, per app.
        timed = timed_passes(traced)
        m["sim.pdes_speedup"] = geomean([
            check[0]["runs"][i]["dsm.run"] /
            med(p["runs"][i]["dsm.run"] for p in timed)
            for i in range(len(check[0]["runs"]))])
    if meta["backend"] == "thread":
        m["exec.run_ns_per_msg"] = m["net.run_ns_per_msg"]
        if check:
            m["exec.msg_ratio_vs_sim"] = ratio(
                msgs, stat_sum(check[0], "total_msgs"))
    return m


def check_trace(path, workload):
    """Every run span has every phase as a child, and the children's
    self times cover the run span to within 5%.  Returns problems."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    want = set(PHASES)
    if "--adaptive" not in WORKLOADS[workload]["args"]:
        want.discard("mem.advisor_profile")
    problems = []
    runs = [e for e in events if e["name"] == "run"]
    for run in runs:
        kids = children.get(run["args"]["id"], [])
        names = {k["name"] for k in kids}
        if names != want:
            problems.append(f"run {run['args']['id']} ({run['args']['app']}"
                            f"): phases {sorted(names)}")
            continue
        covered = sum(k["args"]["self_us"] for k in kids)
        if abs(covered - run["dur"]) > 0.05 * run["dur"]:
            problems.append(f"run {run['args']['id']} ({run['args']['app']}"
                            f"): children cover {covered:.0f} of "
                            f"{run['dur']:.0f} us")
    if not runs:
        problems.append("no run spans")
    return problems


# ----------------------------------------------------------------------
# One workload


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(bin_dir, workload, seed, seconds, trace, smoke):
    """Returns the result record of one workload run."""
    w = WORKLOADS[workload]
    if trace:
        seconds /= 2  # the untraced and the traced runner share the run
    untraced = run_bench(bin_dir, workload, seed, seconds, False, smoke)
    raw = {"untraced": untraced}
    failures = list(untraced["failures"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "meta": {**untraced["meta"], "gitCommit": git_commit(),
                 "env": w["env"], "args": w["args"]},
        "end_to_end": end_to_end(untraced),
        "calibrate_ms": calibrate_ms(untraced),
    }
    if trace:
        trace_json = bin_dir / f"trace-{workload}-{seed}.json"
        traced = run_bench(bin_dir, workload, seed, seconds, True, smoke,
                            trace_json)
        raw["traced"] = traced
        failures += traced["failures"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems = check_trace(trace_json, workload)
        failures += ["trace: " + p for p in problems]
        record["trace_json"] = str(trace_json)
        record["trace_ok"] = not problems
        record["per_layer"] = per_layer(traced, untraced)
    record.update(attempted=attempted, failed=failed, failures=failures)
    return record, raw


def reported_metrics(record):
    units = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
    if record["trace"]:
        return {k: {"value": v, "unit": units[k]}
                for k, v in record["per_layer"].items()}
    return {k: {"value": v["value"], "unit": units[k]}
            for k, v in record["end_to_end"].items()}


def validate(record):
    """Schema check of one result record; returns problems."""
    problems = []
    want = [n for n, *_ in (PER_LAYER if record["trace"] else END_TO_END)]
    got = reported_metrics(record)
    if list(got) != want:
        problems.append(f"metrics {list(got)} != {want}")
    for k, v in got.items():
        if not isinstance(v["value"], (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append(f"{k}: bad value {v['value']!r}")
    for k in ("host_s", "setup_s", "peak_rss_mb", "sim_cycles_geomean"):
        if record["end_to_end"][k]["value"] <= 0:
            problems.append(f"{k}: not positive")
    if record["trace"] and not record["trace_ok"]:
        problems.append("trace spans incomplete")
    return problems


def check_benchmark_json():
    """BENCHMARK.json must list exactly the gated workloads and this
    file's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    gated = [k for k, w in WORKLOADS.items() if w["gated"]]
    if [w["name"] for w in spec["workloads"]] != gated:
        problems.append("BENCHMARK.json workloads differ from run.py")
    e2e = [{"name": n, "unit": u, "better": b, "bound": bd}
           for n, u, b, bd, *_ in END_TO_END]
    if spec["end_to_end"] != e2e:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layer = [{"name": n, "unit": u, "better": b}
             for n, u, b, *_ in PER_LAYER]
    if spec["per_layer"] != layer:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"{HELD_OUT_SEED} is held out for claims)")
    ap.add_argument("--seconds", type=float, default=25,
                    help="length of a run: one warm-up pass, then timed "
                         "passes while another one fits")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="one traced pass at halved sizes of every "
                         "workload; validates the results and schema")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload (for compare.py sets)")
    ap.add_argument("--out", type=Path,
                    help="directory for one result record per run")
    ap.add_argument("--bin-dir", type=Path,
                    help="use runners already built here (no build)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources at {ROOT / 'src'}; run from a checkout")
    bin_dir = args.bin_dir
    if bin_dir is None:
        bin_dir = DEFAULT_BUILD
        build(bin_dir)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    problems = check_benchmark_json() if args.smoke else []
    records = []
    for i in range(args.repeat):
        for wl in workloads:
            started, t0 = time.time(), time.monotonic()
            # The smoke run is traced, so it checks both metric sets.
            rec, raw = run_workload(bin_dir, wl, args.seed, args.seconds,
                                    args.trace or args.smoke, args.smoke)
            rec["started_unix"] = started
            rec["wall_s"] = time.monotonic() - t0
            problems += [f"{wl}: {p}" for p in validate(rec)]
            problems += [f"{wl}: {f}" for f in rec["failures"]]
            for k, v in reported_metrics(rec).items():
                print(f"{wl:16s} {k:32s} {v['value']:<16.6g} {v['unit']}")
            if args.out:
                name = f"{wl}-{args.seed}-{i}"
                (args.out / f"{name}.json").write_text(
                    json.dumps(rec, indent=1) + "\n")
                (args.out / f"{name}.raw.json").write_text(
                    json.dumps(raw) + "\n")
            records.append(rec)

    for p in problems:
        log("FAIL " + p)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = reported_metrics(records[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in reported_metrics(r).items()}
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
