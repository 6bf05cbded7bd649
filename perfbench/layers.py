"""Traced run of one workload (run.py --trace 1).

The run has two parts on the same inputs. First the workload runs
untraced for half the requested time, exactly as in an end-to-end run;
that gives its CPU time per operation and the work it did (the cells in
the binaries' BENCH_<name>.json, or the server's answers). Then
perfbench_layers times the calls into each src/ module's public
functions (spans written to .bench_build/traces/). Each layer's rate is
printed with its count and busy seconds.

bench.residual_frac reconciles the two: every unit of work the workload
did is charged at its layer's measured cost per unit, and the residual
is the share of the workload's CPU time per operation that no layer
accounts for (process start-up, output, scheduling, and whatever the
layer model misses). bench.tracing_overhead_frac compares the layer
cells' wall time with span recording on and off. See NOTES.md for the
per-layer predictions.
"""

import json
import os
import statistics
import subprocess

import run as bench

# Every per-layer metric, in print order, with its unit.
PER_LAYER = [
    ("workload.stream_gen.minstr_per_s", "Minstr/s"),
    ("workload.stream_gen.count", "instr"),
    ("workload.stream_gen.busy_s", "s"),
    ("workload.record_gen.minstr_per_s", "Minstr/s"),
    ("workload.record_gen.count", "instr"),
    ("workload.record_gen.busy_s", "s"),
    ("workload.instr_per_run", "instr/run"),
]
for _p in ("blocking", "prefetch", "bypass", "streambuf"):
    PER_LAYER += [("core.fetch_run.%s.mfetch_per_s" % _p, "Mfetch/s"),
                  ("core.fetch_run.%s.count" % _p, "fetch"),
                  ("core.fetch_run.%s.busy_s" % _p, "s")]
PER_LAYER += [
    ("core.fetch_run.batched_frac", "frac"),
    ("core.fetch_run.runs", "run"),
    ("core.decstation.minstr_per_s", "Minstr/s"),
    ("core.decstation.count", "instr"),
    ("core.decstation.busy_s", "s"),
    ("cache.access.mops", "Mop/s"),
    ("cache.access.count", "op"),
    ("cache.access.busy_s", "s"),
    ("cache.three_c.mops", "Mop/s"),
    ("cache.three_c.count", "op"),
    ("cache.three_c.busy_s", "s"),
    ("vm.translate.mops", "Mop/s"),
    ("vm.translate.count", "op"),
    ("vm.translate.busy_s", "s"),
    ("tlb.access.mops", "Mop/s"),
    ("tlb.access.count", "op"),
    ("tlb.access.busy_s", "s"),
    ("sim.collapse.capture_mfetch_per_s", "Mfetch/s"),
    ("sim.collapse.capture.count", "fetch"),
    ("sim.collapse.capture.busy_s", "s"),
    ("sim.stack.mref_per_s", "Mref/s"),
    ("sim.stack.count", "ref"),
    ("sim.stack.busy_s", "s"),
    ("sim.sweep.busy_frac", "frac"),
    ("sim.sweep.collapsed_frac", "frac"),
    ("sim.sweep.cells", "cell"),
    ("serve.materialize_ms", "ms"),
    ("serve.materialize.count", "suite"),
    ("serve.materialize.busy_s", "s"),
    ("serve.simulate_ms", "ms"),
    ("serve.simulate.count", "cell"),
    ("serve.simulate.busy_s", "s"),
    ("serve.encode_us_per_cell", "us"),
    ("serve.encode.count", "cell"),
    ("serve.encode.busy_s", "s"),
    ("serve.decode_us_per_cell", "us"),
    ("serve.decode.count", "cell"),
    ("serve.decode.busy_s", "s"),
    ("serve.residual_ms", "ms"),
    ("serve.memo.hit_frac", "frac"),
    ("serve.memo.requests", "request"),
    ("bench.residual_frac", "frac"),
    ("bench.attributed_s", "s"),
    ("bench.cpu_s", "s"),
    ("bench.tracing_overhead_frac", "frac"),
]

def run_layer_timer(trace_path):
    """perfbench_layers -> {layer: {count, busy_s, ...}} (median busy
    over its recorded repetitions of the cells), plus its whole output
    (span count, recorded and unrecorded wall times)."""
    out = subprocess.run(
        [bench.binary("perfbench_layers"), "--trace-out", trace_path],
        stdout=subprocess.PIPE,
        env=bench.child_env({}), timeout=170, check=True).stdout
    doc = json.loads(out.decode().strip().splitlines()[-1])
    layers = {}
    for name in doc["reps"][0]:
        reps = [r[name] for r in doc["reps"]]
        merged = dict(reps[0])
        merged["busy_s"] = statistics.median(
            r.get("busy_s", r.get("span_s", 0.0)) for r in reps)
        layers[name] = merged
    return layers, doc


def unit_costs(L):
    """Busy seconds per unit of work, per layer."""
    return {k: v["busy_s"] / v["count"] for k, v in L.items() if v["count"]}


def policy(config):
    if config.get("pipelined"):
        return "streambuf"
    if config.get("bypass"):
        return "bypass"
    if config.get("prefetch_lines", 0) > 0:
        return "prefetch"
    return "blocking"


def attributed_sweep(docs, cost):
    """Layer seconds of one pass of the sweep binaries, from their cells."""
    total = 0.0
    for doc in docs.values():
        n = doc["meta"]["bench_instructions"]
        generated = set()
        groups = set()
        for cell in doc["cells"]:
            timing, config = cell["timing"], cell["config"]
            if "collapsed" not in timing:
                continue
            line = config["l1"]["line_bytes"]
            generated.add((cell["workload"], line))
            if timing["collapsed"]:
                side = json.dumps([config["l1"], config["l1_fill"]],
                                  sort_keys=True)
                groups.add((cell["workload"], side))
                total += (cell["stats"]["l2_accesses"]
                          * cost["cache.access"])
            else:
                total += (timing["instructions"]
                          * cost["core.fetch_run." + policy(config)])
        total += len(generated) * n * cost["workload.stream_gen"]
        total += len(groups) * n * cost["sim.collapse.capture"]
    return total


def attributed_bespoke(docs, cost, L):
    """Layer seconds of one pass of the bespoke binaries, from their
    cells: each binary's loop is a known sequence of module calls."""
    gen_i = cost["workload.record_gen.instr"]
    gen_d = cost["workload.record_gen.data"]
    records_per_instr = L["tlb.access"]["records_per_instr"]
    total = 0.0
    for name, doc in docs.items():
        generated = set()
        for cell in doc["cells"]:
            instr = cell["timing"]["instructions"]
            if name == "fig5_variability":
                trials = cell["config"]["trials"]
                total += instr / trials * gen_i
                total += instr * (cost["vm.translate"] + cost["cache.access"])
            elif name == "ablation_tlb":
                total += instr * (gen_d + records_per_instr
                                  * cost["tlb.access"])
            elif name == "fig1_three_cs":
                generated.add((cell.get("grid"), cell["workload"]))
                total += cell["stats"]["accesses"] * cost["cache.three_c"]
            elif name == "table3_ibs_decstation":
                total += instr * (gen_d + cost["core.decstation"])
        if generated:
            total += (len(generated) * doc["meta"]["instructions_per_workload"]
                      * gen_i)
    return total


def traced_run(name, seed, seconds, digests, ctx):
    """Returns (per-layer metrics, attempted, failed)."""
    res = bench.run_workload(name, seed, max(1.0, seconds / 2), digests)
    bench.report(name, res, ctx)
    attempted, failed = res["attempted"], res["failed"]

    trace_dir = os.path.join(bench.BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-%d.json" % (name, seed))
    L, doc = run_layer_timer(trace_path)
    valid = subprocess.run(
        [bench.binary("validate_bench_json"), "--trace", trace_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0
    attempted += 1
    failed += 0 if valid else 1
    cost = unit_costs(L)

    m = {}

    def rate(metric, layer, scale, count=None, busy=None):
        count = L[layer]["count"] if count is None else count
        busy = L[layer]["busy_s"] if busy is None else busy
        m[metric] = count / busy / scale
        return count, busy

    def put(prefix, count, busy):
        m[prefix + ".count"] = count
        m[prefix + ".busy_s"] = busy

    put("workload.stream_gen",
        *rate("workload.stream_gen.minstr_per_s", "workload.stream_gen", 1e6))
    gi, gd = L["workload.record_gen.instr"], L["workload.record_gen.data"]
    put("workload.record_gen",
        *rate("workload.record_gen.minstr_per_s", None, 1e6,
              gi["count"] + gd["count"], gi["busy_s"] + gd["busy_s"]))
    m["workload.instr_per_run"] = (L["workload.stream_gen"]["count"]
                                   / L["workload.stream_gen"]["runs"])
    for p in ("blocking", "prefetch", "bypass", "streambuf"):
        layer = "core.fetch_run." + p
        put(layer, *rate(layer + ".mfetch_per_s", layer, 1e6))
    runs = (L["core.fetch_run.blocking"]["batched_runs"]
            + L["core.fetch_run.blocking"]["batch_fallbacks"])
    m["core.fetch_run.batched_frac"] = (
        L["core.fetch_run.blocking"]["batched_runs"] / runs)
    m["core.fetch_run.runs"] = runs
    put("core.decstation",
        *rate("core.decstation.minstr_per_s", "core.decstation", 1e6))
    for layer in ("cache.access", "cache.three_c", "vm.translate",
                  "tlb.access"):
        put(layer, *rate(layer + ".mops", layer, 1e6))
    put("sim.collapse.capture",
        *rate("sim.collapse.capture_mfetch_per_s", "sim.collapse.capture",
              1e6))
    put("sim.stack", *rate("sim.stack.mref_per_s", "sim.stack", 1e6))

    workers = res["context"]["workers"]
    m["sim.sweep.busy_frac"] = res["timed_cpu_s"] / (res["timed_wall_s"]
                                                     * workers)
    collapsed, cells = collapsed_cells(res.get("bench", {}))
    m["sim.sweep.collapsed_frac"] = collapsed / cells if cells else 0.0
    m["sim.sweep.cells"] = cells

    mat, sim = L["serve.materialize"], L["serve.simulate"]
    enc, dec = L["serve.encode"], L["serve.decode"]
    requests = L["serve.memo"]["count"]
    cells_per_request = sim["cells"]
    m["serve.materialize_ms"] = mat["busy_s"] / mat["count"] * 1e3
    put("serve.materialize", mat["count"], mat["busy_s"])
    m["serve.simulate_ms"] = sim["busy_s"] / requests * 1e3
    put("serve.simulate", sim["count"], sim["busy_s"])
    m["serve.encode_us_per_cell"] = enc["busy_s"] / enc["count"] * 1e6
    put("serve.encode", enc["count"], enc["busy_s"])
    m["serve.decode_us_per_cell"] = dec["busy_s"] / dec["count"] * 1e6
    put("serve.decode", dec["count"], dec["busy_s"])
    enc_ms = m["serve.encode_us_per_cell"] * cells_per_request / 1e3
    dec_ms = m["serve.decode_us_per_cell"] * cells_per_request / 1e3
    if name in bench.SERVE:
        # Client p50 minus the parts. The server simulates and encodes
        # inside its cell loop, spread over its workers, so those parts
        # count once per worker; decoding is the client's. Every request
        # is a memo hit, so nothing is materialized.
        m["serve.residual_ms"] = (
            statistics.median(res["latency_ms"])
            - (m["serve.simulate_ms"] + enc_ms) / workers - dec_ms)
        m["serve.memo.hit_frac"] = res["memo_hit_frac"]
        m["serve.memo.requests"] = res["ops"]
        # The hit fraction checks the workload itself.
        attempted += 1
        if res["memo_hit_frac"] != 1.0:
            failed += 1
            bench.log("  FAIL %s memo hit fraction %g" %
                      (name, res["memo_hit_frac"]))
    else:
        # No server in this workload: the in-process request emulation.
        m["serve.residual_ms"] = (
            L["serve.memo"]["request_s"] * 1e3
            - m["serve.materialize_ms"] * mat["count"] / requests
            - m["serve.simulate_ms"] - enc_ms - dec_ms)
        m["serve.memo.hit_frac"] = L["serve.memo"]["hits"] / requests
        m["serve.memo.requests"] = requests

    if name == "repro_sweep":
        attributed = attributed_sweep(res["bench"], cost)
    elif name == "repro_bespoke":
        attributed = attributed_bespoke(res["bench"], cost, L)
    else:
        attributed = (m["serve.simulate_ms"] + enc_ms) / 1e3
    # The layer costs are typical, not best-case, so the base is the mean
    # CPU per operation rather than the best-of cpu_s.
    m["bench.attributed_s"] = attributed
    m["bench.cpu_s"] = res["cpu_mean_s"]
    m["bench.residual_frac"] = 1.0 - attributed / res["cpu_mean_s"]
    # Recorded over unrecorded wall time of the layer cells, per pair of
    # adjacent repetitions; the median pair.
    pairs = [t / u for t, u in zip(doc["traced_s"], doc["untraced_s"])]
    m["bench.tracing_overhead_frac"] = statistics.median(pairs) - 1.0

    bench.log("== %s per layer (trace %s, %d spans)"
              % (name, os.path.relpath(trace_path, bench.ROOT), doc["spans"]))
    units = dict(PER_LAYER)
    for metric, _ in PER_LAYER:
        bench.log("  %-38s %14.6g %s" % (metric, m[metric], units[metric]))
    bench.log("  recorded ÷ unrecorded wall of the layer cells, per pair: %s"
              % " ".join("%.3f" % r for r in pairs))
    bench.log("  self time of each layer cell (its span minus its children):")
    for layer, values in sorted(L.items()):
        if "self_s" in values:
            bench.log("  %-38s %14.6g s" % (layer, values["self_s"]))
    return ({k: {"value": m[k], "unit": u} for k, u in PER_LAYER},
            attempted, failed)


def collapsed_cells(docs):
    """(collapsed cells, sweep-executor cells) over BENCH_*.json docs."""
    collapsed = total = 0
    for doc in docs.values():
        for cell in doc.get("cells", []):
            flag = cell.get("timing", {}).get("collapsed")
            if flag is not None:
                total += 1
                collapsed += bool(flag)
    return collapsed, total
