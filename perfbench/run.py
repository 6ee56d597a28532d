#!/usr/bin/env python3
"""The repository's benchmark: four named workloads, one command.

    python3 perfbench/run.py --workload paper-hlrc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call builds perfbench_driver
(perfbench/driver.cc) twice under .bench_build/perfbench/: a Release build
for timing and a Release+`-g -pg` build for gprof's sampled split. Each
workload configuration then runs in a fresh child process, one after
another, so its peak RSS is its own; a pass runs every configuration once,
and passes repeat until --seconds is spent (at least three).

--trace 0 prints the end-to-end metrics (medians over passes). --trace 1
runs one traced pass (per-call timings plus the instrumentation on/off
re-runs) and one pass under the profiling build, and prints the per-layer
metrics. Every child's verdict and simulated digest is checked; the last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--scale quick is the self-test: tiny problems, 8 nodes, ten check seeds,
same names, units and correctness gate. --out FILE also writes the full
result with the host fingerprint for perfbench/compare.py.
See perfbench/README.md for the workloads and the metric map.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gprof_split  # noqa: E402

CHILD_TIMEOUT_S = 150
MIN_PASSES = 3

# Problem sizes per scale (the public config structs of src/apps). "bench"
# keeps svmsim --scale=paper's sizes except SOR's iteration count (51 there),
# LU's matrix (2048 there) and Water-Spatial's step count (3 there), which are
# cut so a pass fits the run budget.
SCALES = {
    "bench": {"sizes": {
        "sor": "rows=2048,cols=2048,iterations=4",
        "lu": "n=1024,block=32",
        "water-nsq": "molecules=4096,steps=3",
        "water-sp": "molecules=4096,cells=16,steps=2,box=32",
        "raytrace": "width=256,height=256,spheres=64",
    }, "nodes": 64, "check_seeds": 1000},
    "quick": {"sizes": {
        "sor": "rows=128,cols=128,iterations=4",
        "lu": "n=128,block=16",
        "water-nsq": "molecules=128,steps=2",
        "water-sp": "molecules=128,cells=4,steps=2,box=8",
        "raytrace": "width=64,height=64,spheres=12",
    }, "nodes": 8, "check_seeds": 10},
}
LITMUS = ("message-passing", "store-buffer", "lock-handoff", "barrier-propagation",
          "false-sharing")
CHECK_PROTOCOLS = ("lrc", "erc", "hlrc", "aurc")
OBSERVED = ["--drop=0.01", "--coalesce", "--barrier-arity=4", "--metrics", "--spans",
            "--export", "--critpath"]
WORKLOADS = {
    "paper-lrc": [("sor", "lrc"), ("lu", "lrc")],
    "paper-hlrc": [(a, "hlrc") for a in ("sor", "lu", "water-nsq", "water-sp", "raytrace")],
    "lossy-observed": [("water-nsq", "hlrc"), ("raytrace", "hlrc"), ("water-sp", "lrc")],
    "check-sweep": [(lit, p) for lit in LITMUS for p in CHECK_PROTOCOLS],
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build

def build_root():
    return os.path.join(ROOT, ".bench_build", "perfbench")


BUILDS = {
    "release": ["-DCMAKE_BUILD_TYPE=Release"],
    # Static, so gprof also samples libc and libstdc++ (see gprof_split).
    "gprof": ["-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-g -pg",
              "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
}


def ensure_built(name):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no src/ beside {HERE}: run from a full checkout of the repository")
    bdir = os.path.join(build_root(), name)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, *gen, *BUILDS[name]]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"cmake configure failed for the {name} build")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", bdir, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError(f"build failed for the {name} build")
    return os.path.join(bdir, "perfbench_driver")


def fingerprint(binary):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    cache = {}
    with open(os.path.join(os.path.dirname(binary), "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, val = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = val
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True, text=True).stdout
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "none (not a git checkout)"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": version.splitlines()[0] if version else cxx,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "commit": commit,
        "source_digest": source_digest(),
    }


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code when git is absent."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Children

def run_child(argv, env_extra=None):
    """Runs one child to completion. Returns (record, wall_s, maxrss_kib, error)."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    out_path = os.path.join(tmp, f"child-{os.getpid()}.out")
    env = dict(os.environ, **(env_extra or {}))
    with open(out_path, "w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            # Marks the child reaped before the timer can signal its pid.
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:  # Interrupted: never leave a child behind.
                proc.kill()
                proc.wait()
        out.seek(0)
        text = out.read()
    os.unlink(out_path)
    if proc.returncode != 0:
        return None, wall, usage.ru_maxrss, f"exit {proc.returncode}: {text.strip()[-300:]}"
    try:
        return json.loads(text.strip().splitlines()[-1]), wall, usage.ru_maxrss, None
    except (ValueError, IndexError):
        return None, wall, usage.ru_maxrss, f"unparsable output: {text.strip()[-300:]}"


def configs(workload, scale, seed):
    """[(name, argv-after-binary)] for one pass of a workload."""
    sc = SCALES[scale]
    out = []
    for a, p in WORKLOADS[workload]:
        if workload == "check-sweep":
            out.append((f"{a}/{p}", ["check", f"--litmus={a}", f"--protocol={p}",
                                      f"--seeds={sc['check_seeds']}", f"--first-seed={seed}"]))
            continue
        argv = ["app", f"--app={a}", f"--protocol={p}", f"--nodes={sc['nodes']}",
                f"--seed={seed}", f"--set={sc['sizes'][a]}"]
        if workload == "lossy-observed":
            argv += OBSERVED
        out.append((f"{a}/{p}", argv))
    return out


class Gate:
    """Correctness bookkeeping: verdicts and digest agreement, never dropped."""

    def __init__(self, store_path):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}  # (config, key) -> value first seen in this invocation.
        self.store_path = store_path
        self.stored = {}
        if os.path.exists(store_path):
            with open(store_path) as f:
                self.stored = json.load(f)

    def fail(self, what, count=1):
        self.failed += count
        self.errors.append(what)
        print(f"FAILED: {what}", flush=True)

    def agree(self, config, key, value):
        """True if `value` matches every earlier sighting (this run and stored)."""
        first = self.digests.setdefault((config, key), value)
        stored = self.stored.get(config, {}).get(key, value)
        return first == value and stored == value

    def record(self, config, units, rec, err, compare_events=True):
        self.attempted += units
        if err is not None:
            self.fail(f"{config}: {err}")
            return False
        if not rec["ok"]:
            self.fail(f"{config}: {rec['why'] or 'verification failed'}", rec.get("failures", 1))
            return False
        ok = self.agree(config, "digest", rec["digest"])
        if compare_events:
            ok = self.agree(config, "events", rec["events"]) and ok
        if not ok:
            self.fail(f"{config}: simulated digest differs between repetitions")
        return ok

    def save(self):
        merged = dict(self.stored)
        for (config, key), value in self.digests.items():
            merged.setdefault(config, {})[key] = value
        with open(self.store_path, "w") as f:
            json.dump(merged, f, indent=1, sort_keys=True)


def run_pass(binary, workload, scale, seed, gate, env_extra=None):
    """One pass: every configuration once. Returns per-config results."""
    results = []
    for name, argv in configs(workload, scale, seed):
        rec, wall, rss, err = run_child([binary, *argv], env_extra)
        units = len(rec["latency_us"]) if rec and "latency_us" in rec else 1
        ok = gate.record(name, units, rec, err)
        results.append({"name": name, "rec": rec, "wall": wall, "rss_kib": rss, "ok": ok})
    return results


def pass_metrics(results):
    """End-to-end numbers of one pass."""
    recs = [r["rec"] for r in results if r["rec"]]
    wall = child_wall(results)
    setup = sum(r["construct_s"] + r["setup_s"] for r in recs)
    if recs and recs[0]["kind"] == "check":
        sim = sum(sum(r["latency_us"]) for r in recs) / 1e6
        units_ms = [x / 1e3 for r in recs for x in r["latency_us"]]
    else:
        sim = sum(r["run_s"] for r in recs)
        units_ms = [r["wall"] * 1e3 for r in results]
    events = sum(r["events"] for r in recs)
    return {
        "run_p50_ms": statistics.median(units_ms) if units_ms else 0.0,
        "run_p99_ms": percentile(units_ms, 0.99) if units_ms else 0.0,
        "wall_s": wall,
        "setup_s": setup,
        "sim_s": sim,
        "events_per_s": events / sim if sim > 0 else 0.0,
        "peak_rss_mib": max(r["rss_kib"] for r in results) / 1024.0,
        "virtual_s": sum(r.get("virtual_ns", 0) for r in recs) / 1e9,
        "units": len(units_ms),
    }


def child_wall(results):
    """The children's summed wall time, less check-sweep's set-up probe."""
    return sum(r["wall"] - (r["rec"] or {}).get("probe_s", 0.0) for r in results)


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("sim_s", "s"), ("events_per_s", "1/s"),
              ("peak_rss_mib", "MiB"), ("run_p50_ms", "ms"), ("run_p99_ms", "ms")]


def timed_run(args, gate):
    binary = ensure_built("release")
    ensure_built("gprof")  # Built up front so a later --trace 1 run stays short.
    fp = fingerprint(binary)
    passes = []
    start = time.perf_counter()
    while True:
        results = run_pass(binary, args.workload, args.scale, args.seed, gate)
        passes.append(pass_metrics(results))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
            break
    metrics = {k: statistics.median(p[k] for p in passes) for k, _ in END_TO_END}
    units = sum(p["units"] for p in passes)
    extra = {
        "passes": len(passes),
        "units": units,
        "virtual_s": statistics.median(p["virtual_s"] for p in passes),
        "fail_ratio": gate.failed / max(1, gate.attempted),
        "wall_s_per_pass": [round(p["wall_s"], 4) for p in passes],
    }
    print(f"{args.workload} seed={args.seed} scale={args.scale}: {len(passes)} passes, "
          f"{units} timed units (medians over passes)")
    for k, unit in END_TO_END:
        print(f"  {k:<14} {metrics[k]:>14.6g} {unit}")
    print(f"  {'virtual_s':<14} {extra['virtual_s']:>14.6g} s (simulated)")
    print(f"  {'fail_ratio':<14} {extra['fail_ratio']:>14.6g} ({gate.failed}/{gate.attempted})")
    return fp, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, extra


# ---------------------------------------------------------------------------
# Traced run

# Per-layer metrics as printed in the JSON line (the BENCHMARK.json list).
# Keys present only in the human-readable report are the instrumentation and
# checker timings that are structurally zero on three of the four workloads.
LAYER_UNITS = {
    "proto.self_pct": "%", "proto.mem_highwater_bytes": "bytes", "proto.page_fetches": "count",
    "proto.diffs_created": "count", "proto.diffs_applied": "count",
    "proto.write_notices_received": "count", "proto.gc_runs": "count",
    "proto.replies_combined": "count",
    "apps.setup_s": "s", "apps.self_pct": "%",
    "mem.self_pct": "%", "mem.update_bytes": "bytes",
    "sim.events": "count", "sim.ns_per_event": "ns", "sim.self_pct": "%",
    "svm.construct_s": "s", "svm.teardown_s": "s", "svm.run_s": "s", "svm.self_pct": "%",
    "net.logical_msgs": "count", "net.frames": "count", "net.bytes": "bytes",
    "net.retransmits": "count", "net.acks_piggybacked": "count", "net.frames_per_msg": "ratio",
    "net.self_pct": "%", "fault.injected": "count", "fault.self_pct": "%",
    "metrics.rss_mib": "MiB", "metrics.self_pct": "%",
    "tracing.spans": "count", "tracing.spans_dropped": "count", "tracing.drop_ratio": "ratio",
    "tracing.self_pct": "%",
    "check.reads_checked": "count", "check.violations": "count", "check.self_pct": "%",
    "lib.self_pct": "%", "other.self_pct": "%", "prof.sampled_pct": "%",
}
REPORT_ONLY_UNITS = {
    "apps.verify_s": "s", "metrics.overhead_s": "s", "metrics.export_s": "s",
    "tracing.overhead_s": "s", "tracing.critpath_s": "s", "check.run_one_ms": "ms",
    "prof.sampled_s": "s", "prof.wall_s": "s",
}


def traced_run(args, gate):
    binary = ensure_built("release")
    prof_binary = ensure_built("gprof")
    fp = fingerprint(binary)
    traced = run_pass(binary, args.workload, args.scale, args.seed, gate)
    m = {}
    recs = [r["rec"] for r in traced if r["rec"]]
    apps = [r for r in recs if r["kind"] == "app"]
    checks = [r for r in recs if r["kind"] == "check"]

    def total(key, rs=recs):
        return sum(r.get(key, 0) for r in rs)

    # Timed public calls.
    m["svm.construct_s"] = total("construct_s")
    m["apps.setup_s"] = total("setup_s")
    m["svm.teardown_s"] = total("teardown_s")
    m["apps.verify_s"] = total("verify_s")
    m["metrics.export_s"] = total("export_s")
    m["tracing.critpath_s"] = total("critpath_s")
    latencies = [x for r in checks for x in r["latency_us"]]
    m["check.run_one_ms"] = statistics.mean(latencies) / 1e3 if latencies else 0.0
    if checks:
        # RunOne is one call: its run share is what the probe does not cover.
        m["svm.run_s"] = (sum(latencies) / 1e6 - m["svm.construct_s"] - m["apps.setup_s"] -
                          m["svm.teardown_s"])
    else:
        m["svm.run_s"] = total("run_s")
    # Counters the layers expose.
    m["proto.mem_highwater_bytes"] = max((r["mem_highwater_bytes"] for r in apps), default=0)
    for key in ("page_fetches", "diffs_created", "diffs_applied", "write_notices_received",
                "gc_runs", "replies_combined"):
        m[f"proto.{key}"] = total(key)
    m["mem.update_bytes"] = total("update_bytes")
    m["sim.events"] = total("events")
    sim_s = m["svm.run_s"] if not checks else sum(latencies) / 1e6
    m["sim.ns_per_event"] = sim_s * 1e9 / m["sim.events"] if m["sim.events"] else 0.0
    for key in ("logical_msgs", "frames", "bytes", "retransmits", "acks_piggybacked"):
        m[f"net.{key}"] = total(key)
    m["net.frames_per_msg"] = m["net.frames"] / m["net.logical_msgs"] if m["net.logical_msgs"] else 0.0
    m["fault.injected"] = total("fault_injected")
    m["tracing.spans"] = total("spans")
    m["tracing.spans_dropped"] = total("spans_dropped")
    seen = m["tracing.spans"] + m["tracing.spans_dropped"]
    m["tracing.drop_ratio"] = m["tracing.spans_dropped"] / seen if seen else 0.0
    m["check.reads_checked"] = total("reads_checked")
    m["check.violations"] = total("violations")

    # Instrumentation cost: the same configuration with one switch off. The
    # simulated digest must not move (metrics and spans are pure observation);
    # engine events do move with the sampler, so they are not compared.
    m["metrics.overhead_s"] = m["tracing.overhead_s"] = m["metrics.rss_mib"] = 0.0
    for (name, argv), res in zip(configs(args.workload, args.scale, args.seed), traced):
        if "--metrics" not in argv or not res["ok"]:
            continue
        # Each sink goes with its consumer: the export reads the metrics and
        # the critical-path attribution reads the spans.
        for drop, key in ((("--metrics", "--export"), "metrics"),
                          (("--spans", "--critpath"), "tracing")):
            off = [a for a in argv if a not in drop]
            rec, wall, rss, err = run_child([binary, *off])
            gate.record(name, 1, rec, err, compare_events=False)
            m[f"{key}.overhead_s"] += res["wall"] - wall
            if key == "metrics":
                m["metrics.rss_mib"] = max(m["metrics.rss_mib"], (res["rss_kib"] - rss) / 1024.0)

    # Sampled split from the profiling build.
    gmon_dir = os.path.join(build_root(), "gmon", str(os.getpid()))
    shutil.rmtree(gmon_dir, ignore_errors=True)
    os.makedirs(gmon_dir)
    prof = run_pass(prof_binary, args.workload, args.scale, args.seed, gate,
                    {"GMON_OUT_PREFIX": os.path.join(gmon_dir, "gmon")})
    gmons = [os.path.join(gmon_dir, f) for f in sorted(os.listdir(gmon_dir))]
    sampled = gprof_split.split(prof_binary, gmons, os.path.join(ROOT, "src"),
                                os.path.join(build_root(), "gprof", "symbols.tsv"))
    shutil.rmtree(gmon_dir, ignore_errors=True)
    prof_wall = sum(r["wall"] for r in prof)
    m["prof.wall_s"] = prof_wall
    m["prof.sampled_s"] = sampled["sampled_s"]
    m["prof.sampled_pct"] = 100.0 * sampled["sampled_s"] / prof_wall
    for module, secs in sampled["modules"].items():
        m[f"{module}.self_s"] = secs
        m[f"{module}.self_pct"] = 100.0 * secs / prof_wall
    print_trace_report(args, m, child_wall(traced), sampled)
    metrics = {k: {"value": m[k], "unit": u} for k, u in LAYER_UNITS.items()}
    return fp, metrics, {"report_only": {k: m[k] for k in REPORT_ONLY_UNITS}}


def print_trace_report(args, m, wall, sampled):
    print(f"{args.workload} seed={args.seed} scale={args.scale}: traced pass")
    print(f"  wall_s {wall:.4f}")
    calls = [("svm.construct_s", m["svm.construct_s"]), ("apps.setup_s", m["apps.setup_s"]),
             ("svm.run_s", m["svm.run_s"]), ("apps.verify_s", m["apps.verify_s"]),
             ("metrics.export_s", m["metrics.export_s"]),
             ("tracing.critpath_s", m["tracing.critpath_s"]),
             ("svm.teardown_s", m["svm.teardown_s"])]
    print("  timed public calls (share of wall_s):")
    for k, v in calls:
        print(f"    {k:<20} {v:>10.4f} s {100 * v / wall:6.1f}%")
    rest = wall - sum(v for _, v in calls)
    print(f"    {'unaccounted':<20} {rest:>10.4f} s {100 * rest / wall:6.1f}%  "
          "(process start/exit, page zeroing, harness)")
    pw = m["prof.wall_s"]
    print(f"  sampled split, profiling build (wall {pw:.4f} s):")
    for module in gprof_split.BUCKETS:
        v = m[f"{module}.self_s"]
        print(f"    {module + '.self_s':<20} {v:>10.4f} s {100 * v / pw:6.1f}%")
    gap = pw - m["prof.sampled_s"]
    print(f"    {'unsampled':<20} {gap:>10.4f} s {100 * gap / pw:6.1f}%  "
          "(kernel, process start/exit: not spread over the layers)")
    print("  hottest sampled symbols:")
    for sym, secs in sampled["top"]:
        name = subprocess.run(["c++filt", sym], capture_output=True, text=True).stdout.strip()
        print(f"    {secs:8.2f} s  {name[:110]}")
    print("  per-layer metrics:")
    for k in sorted(set(LAYER_UNITS) | set(REPORT_ONLY_UNITS)):
        unit = LAYER_UNITS.get(k) or REPORT_ONLY_UNITS[k]
        print(f"    {k:<30} {m[k]:>16.6g} {unit}")


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="bench")
    ap.add_argument("--out", help="also write the full result (with fingerprint) here")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        store = os.path.join(build_root(), "digests",
                             f"{args.scale}-{args.workload}-{args.seed}-{source_digest()}.json")
        os.makedirs(os.path.dirname(store), exist_ok=True)
        gate = Gate(store)
        run = traced_run if args.trace else timed_run
        fp, metrics, extra = run(args, gate)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    gate.save()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(result, fingerprint=fp, workload=args.workload, seed=args.seed,
                           scale=args.scale, trace=args.trace, errors=gate.errors, **extra),
                      f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
