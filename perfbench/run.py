#!/usr/bin/env python3
"""Benchmark of the paper binaries and the ibs_serve sweep server.

Run from the repository root:

    python3 perfbench/run.py --workload repro_sweep --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --seconds 25        # every workload
    python3 perfbench/run.py --workload serve_warm --trace 1    # per-layer run

The first run builds the repository and the benchmark's own programs
(perfbench/CMakeLists.txt) into .bench_build/ with a Release build.
Workloads, metrics and their expected behaviour are described in
perfbench/NOTES.md. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

# Sweep workers for every workload that has a sweep executor; one of the
# four cores stays free for the client, the harness and the OS.
SWEEP_WORKERS = 2
ALL_CPUS = sorted(os.sched_getaffinity(0))
# Iterations of the vCPU speed probe, and its time on a fast vCPU of the
# measuring host. Times are scaled to a vCPU that runs it this fast.
PROBE_ITERS = 20000
PROBE_REF_S = 0.0026

REPRO = {
    # The eight sweep-executor binaries at their default trace length.
    "repro_sweep": {
        "binaries": ["table5_baselines", "table6_prefetch", "table7_bypass",
                     "table8_streambuf", "fig3_l2_linesize", "fig4_l2_assoc",
                     "fig6_bandwidth", "fig7_summary"],
        "threads": SWEEP_WORKERS,
        "instr": None,
        "setups": 20,
    },
    # The four slowest bespoke loops, single-threaded, at a reduced
    # trace length so that a run holds several passes.
    "repro_bespoke": {
        "binaries": ["fig5_variability", "ablation_tlb", "fig1_three_cs",
                     "table3_ibs_decstation"],
        "threads": 1,
        "instr": 100000,
        "setups": 7,
    },
}
# Trace length of the warm-up pass that makes up a repro workload's set-up.
WARMUP_INSTR = 10000
# A binary still running after this long is killed and counts as failed.
BINARY_TIMEOUT_S = 60

# The serve workload repeats one request: every catalog class over the
# IBS Mach suite at this instruction budget. The set-up request memoizes
# its traces, so every timed request is a memo hit.
SERVE = ["serve_warm"]
SERVE_BUDGET = 200000
WORKLOADS = list(REPRO) + SERVE
# Set-ups per run (per workload above for repro); setup_s is their
# median, scaled like every other time (see run_binary).
SERVE_SETUPS = 15

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB")]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configure (once) and build every program the workloads run; the
    build does nothing when it is up to date."""
    for need in ("CMakeLists.txt", "src", "bench", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no repository around perfbench/: %s is missing"
                             % need)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed; see " + build_log)
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
             "--target", "perfbench_programs"],
            stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("build failed; see " + build_log)


def binary(name):
    for sub in ("ibs/bench", "ibs/tools", "."):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path):
            return path
    raise BenchError("missing binary " + name)


def build_context():
    ctx = {"nproc": os.cpu_count(), "build_type": "?", "compiler": "?"}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            ctx["build_type"] = m.group(1) if m else "?"
        for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                           "CMakeCXXCompiler.cmake")):
            with open(path) as f:
                text = f.read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            if cid and ver:
                ctx["compiler"] = cid.group(1) + " " + ver.group(1)
    except OSError:
        pass
    return ctx


def child_env(extra):
    """The caller's environment minus every IBS_* switch, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IBS_")}
    env.update({k: str(v) for k, v in extra.items()})
    return env


# ------------------------------------------------------- repro workloads

def probe(cpus):
    """Seconds a short fixed loop takes on each of `cpus`, in order."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERS):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    os.sched_setaffinity(0, ALL_CPUS)
    return times


def run_binary(path, env, cwd, threads):
    """Run one bench binary pinned to the `threads` CPUs on which the probe
    loop runs fastest right now. Returns (exit code, stdout, wall, cpu,
    rss, speed): speed is PROBE_REF_S over the probe's time on those CPUs,
    averaged over just before and just after the run.

    The measuring host's vCPUs each flip between a fast state and one
    about 1.4x slower, independently and about once a second, and in
    some minutes all of them are slow (NOTES.md, "vCPU pinning").
    Pinning puts a binary on the vCPUs that are fast at its start;
    scaling its times by speed takes out the slow minutes."""
    chosen = sorted(zip(probe(ALL_CPUS), ALL_CPUS))[:threads]
    cpus = [cpu for _, cpu in chosen]
    # The child inherits the affinity of the thread that forks it.
    os.sched_setaffinity(0, cpus)
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen([path], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=env, cwd=cwd)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    watchdog = threading.Timer(BINARY_TIMEOUT_S, proc.kill)
    watchdog.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    before = statistics.fmean(t for t, _ in chosen)
    after = statistics.fmean(probe(cpus))
    return (proc.returncode, out, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0, PROBE_REF_S / ((before + after) / 2))


def run_repro(name, seed, seconds, digests, workdir):
    spec = REPRO[name]
    rng = random.Random(seed)
    paths = {b: binary(b) for b in spec["binaries"]}
    env = {"IBS_THREADS": spec["threads"], "IBS_BENCH_JSON_DIR": workdir}
    if spec["instr"]:
        env["IBS_BENCH_INSTR"] = spec["instr"]
    expected = digests.get(name, {})
    res = {"attempted": 0, "failed": 0, "errors": [], "observed": {},
           "peak_rss_mb": 0.0}

    def fail(msg):
        res["failed"] += 1
        if len(res["errors"]) < 5:
            res["errors"].append(msg)

    # Set-up: a warm-up pass at a small trace length, several times;
    # setup_s sums each binary's median scaled warm-up, as wall_s does.
    setups = {b: [] for b in spec["binaries"]}
    warm_env = child_env(dict(env, IBS_BENCH_INSTR=WARMUP_INSTR))
    for _ in range(spec["setups"]):
        for b in spec["binaries"]:
            rc, _, wall, _, _, speed = run_binary(paths[b], warm_env,
                                                  workdir, spec["threads"])
            setups[b].append(wall * speed)
            res["attempted"] += 1
            if rc != 0:
                fail("%s exited %d in warm-up" % (b, rc))

    timed_env = child_env(env)
    runs = {b: [] for b in spec["binaries"]}  # (wall, cpu, speed) per run
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        order = list(spec["binaries"])
        rng.shuffle(order)
        for b in order:
            rc, out, wall, cpu, rss, speed = run_binary(
                paths[b], timed_env, workdir, spec["threads"])
            res["attempted"] += 1
            runs[b].append((wall, cpu, speed))
            res["peak_rss_mb"] = max(res["peak_rss_mb"], rss)
            digest = hashlib.sha256(out).hexdigest()
            res["observed"][b] = digest
            if rc != 0:
                fail("%s exited %d" % (b, rc))
            elif expected.get(b) != digest:
                fail("%s stdout digest %s does not match" % (b, digest[:16]))
            if passes > 0 and time.perf_counter() - start >= seconds:
                break
        passes += 1
    res["timed_wall_s"] = time.perf_counter() - start
    res["timed_cpu_s"] = sum(c for v in runs.values() for _, c, _ in v)
    # Per pass: each binary's median run, scaled to a fast vCPU, summed
    # over the binaries; the unscaled figures are printed beside them.
    med = statistics.median
    res["wall_s"] = sum(med(w * s for w, _, s in v) for v in runs.values())
    res["cpu_s"] = sum(med(c * s for _, c, s in v) for v in runs.values())
    res["wall_raw_s"] = sum(med(w for w, _, _ in v) for v in runs.values())
    res["cpu_raw_s"] = sum(med(c for _, c, _ in v) for v in runs.values())
    res["speed"] = statistics.median(s for v in runs.values()
                                     for _, _, s in v)
    res["cpu_mean_s"] = sum(statistics.fmean(c for _, c, _ in v)
                            for v in runs.values())
    res["setup_s"] = sum(med(v) for v in setups.values())
    res["setups"] = spec["setups"]
    res["ops"] = min(len(v) for v in runs.values())
    res["op_name"] = "pass"
    res["context"] = {"workers": spec["threads"], "connections": 0,
                      "instructions": spec["instr"] or "default (1500000)",
                      "memo_bytes": None}
    return res


# ------------------------------------------------------- serve workloads

def proc_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        m = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M)
    return int(m.group(1)) / 1024.0 if m else 0.0


class Server:
    """One ibs_serve process; stopped (and waited for) on exit."""

    def __init__(self, env):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([binary("ibs_serve")], env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], 30)
            chunk = os.read(self.proc.stdout.fileno(), 256) if ready else b""
            if not chunk:
                self.stop()
                raise BenchError("ibs_serve did not report LISTENING")
            line += chunk
        self.listen_s = time.perf_counter() - self.t0
        m = re.match(rb"LISTENING (\d+)", line)
        if not m:
            self.stop()
            raise BenchError("unexpected ibs_serve output %r" % line)
        self.port = int(m.group(1))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_client(port, seconds, expect, prefix, server_pid):
    cmd = [binary("perfbench_client"), "--port", str(port),
           "--budget", str(SERVE_BUDGET), "--expect", expect,
           "--seconds", repr(seconds), "--req-prefix", prefix,
           "--server-pid", str(server_pid),
           "--server-cpus", str(SWEEP_WORKERS)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env({}),
                         timeout=seconds + 120).stdout
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("perfbench_client printed nothing")
    return json.loads(lines[-1])


def run_serve(name, seed, seconds, digests, workdir):
    env = child_env({"IBS_THREADS": SWEEP_WORKERS, "IBS_SERVE_PORT": 0})
    expect = digests.get("serve", {}).get(str(SERVE_BUDGET), "none")
    res = {"attempted": 0, "failed": 0, "errors": [], "observed": {}}
    # Each set-up is a fresh server plus its first request, which
    # memoizes the key; the last server then serves the timed phase.
    setups = []
    for i in range(SERVE_SETUPS):
        timed = seconds if i == SERVE_SETUPS - 1 else 0
        with Server(env) as server:
            client = run_client(server.port, timed, expect,
                                "%s-%d-%d" % (name, seed, i),
                                server.proc.pid)
            rss = proc_peak_rss_mb(server.proc.pid)
        setups.append(server.listen_s
                      + client["setup_ms"] * client["setup_speed"] / 1e3)
        res["attempted"] += client["requests"]
        res["failed"] += client["failed"]
        res["errors"] += client["errors"][:5 - len(res["errors"])]
        res["observed"].update(client["digests"])
    marks = client["cpu_marks"]
    lat = client["latency_ms"]
    if not lat:
        raise BenchError("no request completed: %s" % res["errors"])
    res.update({"peak_rss_mb": rss, "timed_wall_s": marks[-1][0],
                "timed_cpu_s": marks[-1][1] - marks[0][1],
                "setup_s": statistics.median(setups),
                "setups": SERVE_SETUPS,
                "ops": len(lat),
                "op_name": "request", "latency_ms": lat,
                "memo_hit_frac": client["memo_hits"] / len(lat),
                "speed": statistics.median(client["speed"])})
    # Median scaled latency; server CPU per request, scaled, over the
    # whole phase (/proc counts CPU time in 10 ms ticks).
    cpu = [(c1 - c0, s1) for (_, c0, _), (_, c1, s1) in zip(marks, marks[1:])]
    res["wall_s"] = statistics.median(
        ms * s for ms, s in zip(lat, client["speed"])) / 1e3
    res["cpu_s"] = sum(c * s for c, s in cpu) / len(cpu)
    res["wall_raw_s"] = statistics.median(lat) / 1e3
    res["cpu_raw_s"] = sum(c for c, _ in cpu) / len(cpu)
    res["cpu_mean_s"] = res["timed_cpu_s"] / len(lat)
    res["context"] = {"workers": SWEEP_WORKERS, "connections": 1,
                      "instructions": SERVE_BUDGET,
                      "memo_bytes": "default (512 MiB)"}
    return res


# --------------------------------------------------------------- metrics

def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))
    return s[int(rank) - 1]


def highest_percentile(n):
    """Highest of p50/p90/p95/p99/p99.9 that leaves at least 10 samples
    above it, or None when there are fewer than 200 samples."""
    if n < 200:
        return None
    best = None
    for p in (50, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def run_workload(name, seed, seconds, digests):
    workdir = os.path.join(BUILD, "runs", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        runner = run_repro if name in REPRO else run_serve
        res = runner(name, seed, seconds, digests, workdir)
        if name in REPRO:
            res["bench"] = bench_reports(workdir, REPRO[name]["binaries"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return res


def bench_reports(workdir, binaries):
    """The BENCH_<name>.json each binary wrote on its last run."""
    docs = {}
    for b in binaries:
        try:
            with open(os.path.join(workdir, "BENCH_%s.json" % b)) as f:
                docs[b] = json.load(f)
        except (OSError, ValueError) as e:
            raise BenchError("%s wrote no readable report: %s" % (b, e))
    return docs


def end_to_end(res):
    return {m: {"value": res[m], "unit": u} for m, u in END_TO_END}


def report(name, res, ctx):
    """Human-readable lines: every end-to-end metric with its unit and
    sample count, and the context the numbers were taken in."""
    c = res["context"]
    log("== %s: nproc=%s compiler=%s build=%s workers=%s connections=%s "
        "instructions=%s memo_bytes=%s" % (
            name, ctx["nproc"], ctx["compiler"], ctx["build_type"],
            c["workers"], c["connections"], c["instructions"],
            c["memo_bytes"]))
    n = res["ops"]
    lines = [
        ("setup_s", res["setup_s"], "s",
         "median of %d set-ups, scaled" % res["setups"]),
        ("wall_s", res["wall_s"], "s", "per %s, scaled (%s)" % (
            res["op_name"], "median of %d requests" % n if name in SERVE
            else "each binary's median of >= %d runs, summed" % n)),
        ("cpu_s", res["cpu_s"], "s", "per %s, scaled (%s)" % (
            res["op_name"], "server CPU, mean of %d requests" % n
            if name in SERVE else
            "each binary's median of >= %d runs, summed" % n)),
        ("wall_raw_s", res["wall_raw_s"], "s", "wall_s, not scaled"),
        ("cpu_raw_s", res["cpu_raw_s"], "s", "cpu_s, not scaled"),
        ("speed", res["speed"], "", "median vCPU speed (the probe's "
         "reference time ÷ its time), by which times are scaled"),
        ("timed_wall_s", res["timed_wall_s"], "s", "timed phase"),
        ("timed_cpu_s", res["timed_cpu_s"], "s", "timed phase"),
        ("peak_rss_mb", res["peak_rss_mb"], "MiB",
         "largest process under test"),
        ("fail_frac", res["failed"] / max(1, res["attempted"]), "",
         "%d failed of %d attempted" % (res["failed"], res["attempted"])),
    ]
    if name in SERVE:
        lat = res["latency_ms"]
        lines.append(("p50_ms", percentile(lat, 50), "ms",
                      "n=%d requests of one shape" % len(lat)))
        p = highest_percentile(len(lat))
        if p is not None:
            lines.append(("p%g_ms" % p, percentile(lat, p), "ms",
                          "n=%d, %d beyond" % (len(lat),
                                               len(lat) * (100 - p) // 100)))
        else:
            lines.append(("p95_ms", float("nan"), "ms",
                          "not reported: n=%d < 200" % len(lat)))
        lines.append(("memo_hit_frac", res["memo_hit_frac"], "",
                      "of %d requests" % len(lat)))
    for metric, value, unit, note in lines:
        log("  %-14s %12.6g %-4s %s" % (metric, value, unit, note))
    for err in res["errors"]:
        log("  FAIL " + err)


# ------------------------------------------------------------------ main

def load_digests(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read digests %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", default=DIGESTS,
                    help="expected output digests (JSON)")
    ap.add_argument("--record-digests", action="store_true",
                    help="write the observed digests to --digests")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    ctx = build_context()
    digests = ({} if args.record_digests and not os.path.exists(args.digests)
               else load_digests(args.digests))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.trace:
        if len(names) != 1:
            raise BenchError("--trace 1 takes a single workload")
        import layers
        metrics, attempted, failed = layers.traced_run(
            names[0], args.seed, args.seconds, digests, ctx)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0

    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, digests)
        report(name, res, ctx)
        attempted += res["attempted"]
        failed += res["failed"]
        if args.record_digests:
            key = "serve" if name in SERVE else name
            digests.setdefault(key, {}).update(res["observed"])
        e2e = end_to_end(res)
        if len(names) == 1:
            metrics = e2e
        else:
            metrics.update({"%s.%s" % (name, m): v for m, v in e2e.items()})
    if args.record_digests:
        with open(args.digests, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def entry():
    try:
        return main()
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        return 1


if __name__ == "__main__":
    # Run as the module layers.py imports, so both share one namespace.
    import run
    sys.exit(run.entry())
