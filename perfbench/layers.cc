/**
 * @file
 * Layer timer of the benchmark's traced run: times the calls into each
 * src/ module's public functions on the workloads' inputs.
 *
 * Every layer gets one cell: a loop of calls into one module function,
 * over a fixed input drawn from the benchmark's workloads (the IBS Mach
 * suite at the sweep binaries' trace length for generation and replay;
 * the bespoke binaries' workloads, geometries and reduced length for
 * the scalar primitives; the serve workloads' request for the server
 * path). Each cell is a span; each batch of calls inside it (one
 * workload, one config) is a child span. Spans carry a parent and, on
 * the server path, the id of the emulated request. They are kept in
 * memory and written at exit as a Chrome/Perfetto trace
 * (validate_bench_json --trace accepts it).
 *
 * Usage: perfbench_layers --trace-out FILE
 *
 * The cells run 2 * kReps times, alternately with span recording on and
 * off; with it off a span costs one branch and builds no name. The last
 * stdout line is a JSON object: "reps", one object per recorded
 * repetition giving per layer its work count, its busy seconds and self
 * seconds (the cell span minus its children) and path counters (batched
 * runs, memo hits); the number of spans recorded; and the wall seconds
 * of each recorded and each unrecorded repetition, in pairs.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.h"
#include "cache/three_c.h"
#include "core/decstation.h"
#include "core/fetch_engine.h"
#include "serve/catalog.h"
#include "serve/memo.h"
#include "serve/protocol.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/stack_sim.h"
#include "tlb/tlb.h"
#include "trace/stream.h"
#include "vm/address_space.h"
#include "vm/page_allocator.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace {

using namespace ibs;
using Clock = std::chrono::steady_clock;

/** Trace length of the sweep binaries (their default). */
constexpr uint64_t kSweepInstr = 1'500'000;
/** Trace length of the bespoke workload (perfbench/run.py). */
constexpr uint64_t kBespokeInstr = 100'000;
/** Instruction budget of the serve workloads' requests. */
constexpr uint64_t kServeInstr = 200'000;
/** Emulated requests: the first misses the memo, the rest hit. */
constexpr int kServeRequests = 3;
/** Recorded repetitions of the whole cell set (the caller takes
 *  medians), each paired with an unrecorded one. Even, so that each
 *  side runs first in half of the pairs. */
constexpr int kReps = 4;

/** Seconds since `t0`. */
double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ spans

/** In-memory span store of the (single-threaded) layer run. Spans
 *  nest: the innermost open span is the parent of the next one. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        Clock::time_point start, end;
        int parent = -1;
        uint64_t req = 0; ///< Emulated request id; 0 outside one.
    };

    /** Open a span under the innermost open one, whose request id it
     *  inherits. */
    int
    begin(std::string name)
    {
        Span span;
        span.name = std::move(name);
        span.parent = open_.empty() ? -1 : open_.back();
        span.req = span.parent < 0 ? 0 : spans_[span.parent].req;
        span.start = Clock::now();
        spans_.push_back(std::move(span));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Close the innermost open span, `id`. */
    void
    end(int id)
    {
        spans_[id].end = Clock::now();
        open_.pop_back();
    }

    /** Tag span `id` (-1: none), and the spans opened under it from now
     *  on, with emulated request `req`. */
    void
    setRequest(int id, uint64_t req)
    {
        if (id >= 0)
            spans_[id].req = req;
    }

    const std::vector<Span> &spans() const { return spans_; }

    double
    seconds(int id) const
    {
        return std::chrono::duration<double>(spans_[id].end -
                                             spans_[id].start)
            .count();
    }

    /** Duration minus the time covered by direct children. */
    std::vector<double>
    selfSeconds() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = seconds(static_cast<int>(i));
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[s.parent] -= std::chrono::duration<double>(
                                      s.end - s.start)
                                      .count();
        }
        return self;
    }

    bool
    write(const std::string &path, Clock::time_point origin) const
    {
        Json events = Json::array();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto us = [&](Clock::time_point t) {
                return std::chrono::duration<double, std::micro>(
                           t - origin)
                    .count();
            };
            Json args = Json::object()
                            .set("id", Json::number(uint64_t{i}))
                            .set("parent",
                                 Json::number(int64_t{s.parent}));
            if (s.req)
                args.set("req", Json::number(s.req));
            events.push(Json::object()
                            .set("name", Json::string(s.name))
                            .set("cat", Json::string("perfbench"))
                            .set("ph", Json::string("X"))
                            .set("ts", Json::number(us(s.start)))
                            .set("dur", Json::number(us(s.end) -
                                                     us(s.start)))
                            .set("pid", Json::number(1))
                            .set("tid", Json::number(1))
                            .set("args", std::move(args)));
        }
        std::ofstream out(path);
        out << Json::object()
                   .set("traceEvents", std::move(events))
                   .set("displayTimeUnit", Json::string("ms"))
                   .dump(0)
            << '\n';
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

Tracer g_tracer;
/** Whether Scopes record spans. */
bool g_recording = true;

std::string_view
label(std::string_view text)
{
    return text;
}

std::string
label(const CacheConfig &geometry)
{
    return geometry.toString();
}

/** RAII span, recorded while g_recording is set. Its name is its parts
 *  joined by spaces, built only when the span is recorded. */
class Scope
{
  public:
    template <typename... Parts>
    explicit Scope(const Parts &...parts)
        : id_(g_recording ? g_tracer.begin(join(parts...)) : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0)
            g_tracer.end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /** The span's index, or -1 when it is not recorded. */
    int id() const { return id_; }

  private:
    template <typename... Parts>
    static std::string
    join(const Parts &...parts)
    {
        std::string name;
        const auto append = [&](std::string_view part) {
            if (!name.empty())
                name += ' ';
            name += part;
        };
        (append(label(parts)), ...);
        return name;
    }

    int id_;
};

/** Work done by one layer cell. */
struct Layer
{
    int span = -1;
    uint64_t count = 0;
    std::map<std::string, double> extra;
};

std::map<std::string, Layer> g_layers;

Layer &
layer(const std::string &name)
{
    return g_layers[name];
}

// ------------------------------------------------------------ inputs

/** Instruction records of a workload (instructions only, or with data
 *  references), generated through WorkloadModel::next. */
std::vector<TraceRecord>
records(const WorkloadSpec &spec, uint64_t instructions, bool data)
{
    WorkloadSpec s = spec;
    s.data.enabled = data;
    WorkloadModel model(s);
    std::vector<TraceRecord> out;
    out.reserve(instructions * (data ? 2 : 1));
    TraceRecord rec;
    uint64_t done = 0;
    while (done < instructions && model.next(rec)) {
        if (rec.isInstr())
            ++done;
        if (data || rec.isInstr())
            out.push_back(rec);
    }
    return out;
}

const char *
policyOf(const FetchConfig &c)
{
    if (c.pipelined)
        return "streambuf";
    if (c.bypass)
        return "bypass";
    if (c.prefetchLines > 0)
        return "prefetch";
    return "blocking";
}

std::vector<WorkloadSpec>
fig5Workloads()
{
    return {makeIbs(IbsBenchmark::Verilog, OsType::Mach),
            makeIbs(IbsBenchmark::Gs, OsType::Mach),
            makeSpec(SpecBenchmark::Eqntott),
            makeSpec(SpecBenchmark::Espresso)};
}

// ------------------------------------------------------------ cells

/** generateRunTrace over the sweep suite at 32-byte lines; the traces
 *  feed the replay cells. */
std::vector<RunTrace>
streamGen(const std::vector<WorkloadSpec> &suite)
{
    Layer &l = layer("workload.stream_gen");
    Scope cell("workload.stream_gen");
    l.span = cell.id();
    std::vector<RunTrace> traces;
    uint64_t runs = 0;
    for (const WorkloadSpec &spec : suite) {
        Scope batch("generateRunTrace", spec.name);
        WorkloadModel model(spec);
        traces.push_back(generateRunTrace(model, 32, kSweepInstr));
        l.count += traces.back().instructions;
        runs += traces.back().runs.size();
    }
    l.extra["runs"] = static_cast<double>(runs);
    return traces;
}

void
recordGen(const std::vector<WorkloadSpec> &suite)
{
    for (const bool data : {false, true}) {
        const std::string name =
            data ? "workload.record_gen.data" : "workload.record_gen.instr";
        Layer &l = layer(name);
        Scope cell(name);
        l.span = cell.id();
        for (const WorkloadSpec &spec : suite) {
            Scope batch("WorkloadModel::next", spec.name);
            l.count += kBespokeInstr;
            l.extra["records"] += static_cast<double>(
                records(spec, kBespokeInstr, data).size());
        }
    }
}

void
fetchRuns(const std::vector<WorkloadSpec> &suite,
          const std::vector<RunTrace> &traces)
{
    std::map<std::string, std::vector<const serve::ConfigClass *>> by;
    for (const serve::ConfigClass &c : serve::configClasses()) {
        if (c.config.l1.lineBytes != 32)
            throw std::runtime_error("catalog class " + c.name +
                                     " has no 32-byte L1");
        by[policyOf(c.config)].push_back(&c);
    }
    uint64_t batched = 0, fallbacks = 0;
    for (const auto &[policy, classes] : by) {
        const std::string name = "core.fetch_run." + policy;
        Layer &l = layer(name);
        Scope cell(name);
        l.span = cell.id();
        for (const serve::ConfigClass *c : classes) {
            for (size_t w = 0; w < traces.size(); ++w) {
                Scope batch("fetchRun", c->name, suite[w].name);
                FetchEngine engine(c->config);
                for (const FetchRun &run : traces[w].runs)
                    engine.fetchRun(run);
                l.count += engine.stats().instructions;
                batched += engine.batchedRuns();
                fallbacks += engine.batchFallbacks();
            }
        }
    }
    layer("core.fetch_run.blocking").extra["batched_runs"] =
        static_cast<double>(batched);
    layer("core.fetch_run.blocking").extra["batch_fallbacks"] =
        static_cast<double>(fallbacks);
}

/** Miss capture on fig3/fig4's L1 under a perfect L2, then the stack
 *  pass over the captured streams at fig3/fig4's 64-byte L2 points. */
void
collapseAndStack(const std::vector<WorkloadSpec> &suite,
                 const std::vector<RunTrace> &traces)
{
    FetchConfig capture = withOnChipL2(economyBaseline(), 64 * 1024, 64, 1);
    capture.perfectL2 = true;
    std::vector<MissTrace> streams(traces.size());
    {
        Layer &l = layer("sim.collapse.capture");
        Scope cell("sim.collapse.capture");
        l.span = cell.id();
        for (size_t w = 0; w < traces.size(); ++w) {
            Scope batch("setMissCapture", suite[w].name);
            streams[w].lineBytes = capture.l1.lineBytes;
            FetchEngine engine(capture);
            engine.setMissCapture(&streams[w]);
            for (const FetchRun &run : traces[w].runs)
                engine.fetchRun(run);
            l.count += engine.stats().instructions;
        }
    }
    std::vector<StackGeometry> geometries;
    for (const uint32_t assoc : {1u, 2u, 4u, 8u})
        geometries.push_back({64 * 1024 / 64 / assoc, assoc});
    for (const uint64_t kb : {16u, 32u, 128u, 256u})
        geometries.push_back({kb * 1024 / 64, 1});
    Layer &l = layer("sim.stack");
    Scope cell("sim.stack");
    l.span = cell.id();
    for (size_t w = 0; w < streams.size(); ++w) {
        Scope batch("StackSimulator::reference", suite[w].name);
        StackSimulator stack(6, geometries);
        streams[w].forEachLine([&](uint64_t addr) {
            stack.reference(addr);
            ++l.count;
        });
    }
}

/** Table 3's machine model over its suites' I+D streams. busy_s counts
 *  the model only; the cell span also covers generating its input. */
void
decstation()
{
    Layer &l = layer("core.decstation");
    std::vector<WorkloadSpec> suite = ibsSuite(OsType::Mach);
    for (const WorkloadSpec &s : ibsSuite(OsType::Ultrix))
        suite.push_back(s);
    double seconds = 0;
    Scope cell("core.decstation");
    l.span = cell.id();
    for (const WorkloadSpec &spec : suite) {
        VectorTraceStream stream(records(spec, kBespokeInstr, true));
        Scope batch("DecstationModel::run", spec.name);
        const auto t0 = Clock::now();
        DecstationModel machine;
        l.count += machine.run(stream, kBespokeInstr).instructions;
        seconds += since(t0);
    }
    l.extra["busy_s"] = seconds;
}

/** Fig5's primitives: Random-policy page translation, then a scalar
 *  cache probe at each of its geometries. */
void
translateAndAccess()
{
    Layer &vm = layer("vm.translate");
    Layer &cache = layer("cache.access");
    double vm_s = 0, cache_s = 0;
    Scope cell("fig5.cells");
    for (const WorkloadSpec &spec : fig5Workloads()) {
        const std::vector<TraceRecord> trace =
            records(spec, kBespokeInstr, false);
        for (const uint64_t kb : {4u, 16u, 64u, 256u, 1024u}) {
            for (const uint32_t assoc : {1u, 2u, 4u}) {
                const CacheConfig geometry{kb * 1024, assoc, 32,
                                           Replacement::LRU};
                std::vector<uint64_t> paddrs(trace.size());
                {
                    Scope batch("MemoryMap::translate", spec.name);
                    const auto t0 = Clock::now();
                    MemoryMap map(makeAllocator(PagePolicy::Random, 16384,
                                                geometry.colors(), kb));
                    for (size_t i = 0; i < trace.size(); ++i)
                        paddrs[i] =
                            map.translate(trace[i].asid, trace[i].vaddr);
                    vm_s += since(t0);
                    vm.count += trace.size();
                }
                Scope batch("Cache::access", geometry);
                const auto t0 = Clock::now();
                Cache c(geometry);
                for (const uint64_t paddr : paddrs)
                    c.access(paddr);
                cache_s += since(t0);
                cache.count += paddrs.size();
            }
        }
    }
    vm.extra["busy_s"] = vm_s;
    cache.extra["busy_s"] = cache_s;
}

/** Fig1's classifier at three of its sizes over both suites'
 *  instructions. */
void
threeC()
{
    Layer &l = layer("cache.three_c");
    std::vector<WorkloadSpec> suite = specSuite();
    for (const WorkloadSpec &s : ibsSuite(OsType::Mach))
        suite.push_back(s);
    double seconds = 0;
    Scope cell("cache.three_c");
    l.span = cell.id();
    for (const WorkloadSpec &spec : suite) {
        const std::vector<TraceRecord> trace =
            records(spec, kBespokeInstr / 2, false);
        Scope batch("ThreeCClassifier::access", spec.name);
        const auto t0 = Clock::now();
        for (const uint64_t kb : {8u, 32u, 128u}) {
            ThreeCClassifier classifier(kb * 1024, 32, 1, 8);
            for (const TraceRecord &rec : trace)
                classifier.access(rec.vaddr);
            l.count += trace.size();
        }
        seconds += since(t0);
    }
    l.extra["busy_s"] = seconds;
}

/** Ablation_tlb's TLB sizes, 4-way and fully associative, over I+D
 *  streams. */
void
tlbLadder()
{
    Layer &l = layer("tlb.access");
    double seconds = 0;
    uint64_t instructions = 0, references = 0;
    Scope cell("tlb.access");
    l.span = cell.id();
    for (const WorkloadSpec &spec : fig5Workloads()) {
        const std::vector<TraceRecord> trace =
            records(spec, kBespokeInstr, true);
        instructions += kBespokeInstr;
        references += trace.size();
        Scope batch("Tlb::access", spec.name);
        const auto t0 = Clock::now();
        for (const uint32_t entries : {16u, 64u, 256u}) {
            for (const uint32_t assoc : {4u, entries}) {
                Tlb tlb(TlbConfig{entries, assoc, Replacement::LRU, true});
                for (const TraceRecord &rec : trace)
                    tlb.access(rec.asid, rec.vaddr);
                l.count += trace.size();
            }
        }
        seconds += since(t0);
    }
    l.extra["busy_s"] = seconds;
    l.extra["records_per_instr"] = static_cast<double>(references) /
                                   static_cast<double>(instructions);
}

/**
 * A connected socket pair, large enough that one request's frames fit
 * in its buffer: each request is encoded whole and then decoded whole
 * on this thread, so decode time is readFrame's work, never a wait for
 * the writer.
 */
struct SocketPair
{
    int fd[2] = {-1, -1};

    SocketPair()
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0)
            throw std::runtime_error("socketpair failed");
        const int buffer = 4 << 20;
        ::setsockopt(fd[0], SOL_SOCKET, SO_SNDBUF, &buffer, sizeof(buffer));
        ::setsockopt(fd[1], SOL_SOCKET, SO_RCVBUF, &buffer, sizeof(buffer));
    }
    ~SocketPair()
    {
        ::close(fd[0]);
        ::close(fd[1]);
    }
    SocketPair(const SocketPair &) = delete;
    SocketPair &operator=(const SocketPair &) = delete;
};

/**
 * The server's request path, in process: TraceMemo::get building the
 * request's suite (its run traces at the catalog's line size), the
 * request's cells replayed, each cell encoded with toJson + writeFrame
 * into a socket pair and decoded with readFrame, as the client would.
 * Every span of request r carries req = r.
 */
void
serveRequests()
{
    const std::vector<serve::ConfigClass> &classes = serve::configClasses();
    const std::vector<WorkloadSpec> suite = serve::suiteByName("ibs_mach");
    const uint64_t cells = classes.size() * suite.size();
    serve::TraceMemo memo(512ull << 20);
    const SocketPair socket;

    Layer &mat = layer("serve.materialize");
    Layer &sim = layer("serve.simulate");
    Layer &enc = layer("serve.encode");
    Layer &dec = layer("serve.decode");
    double mat_s = 0, sim_s = 0, enc_s = 0, dec_s = 0, request_s = 0;
    uint64_t hits = 0;
    for (uint64_t r = 1; r <= kServeRequests; ++r) {
        const auto request_t0 = Clock::now();
        Scope request("serve.request");
        g_tracer.setRequest(request.id(), r);
        std::shared_ptr<const SuiteTraces> traces;
        {
            Scope span("TraceMemo::get");
            const auto t0 = Clock::now();
            bool hit = false;
            traces = memo.get(
                "ibs_mach#" + std::to_string(kServeInstr),
                [&] {
                    auto s = std::make_shared<const SuiteTraces>(
                        suite, kServeInstr);
                    for (size_t w = 0; w < s->count(); ++w)
                        s->runTrace(w, 32);
                    return s;
                },
                &hit);
            hits += hit ? 1 : 0;
            if (!hit) {
                mat_s += since(t0);
                ++mat.count;
            }
        }
        for (size_t c = 0; c < classes.size(); ++c) {
            for (size_t w = 0; w < suite.size(); ++w) {
                FetchStats stats;
                {
                    Scope span("fetchRun", classes[c].name);
                    const auto t0 = Clock::now();
                    FetchEngine engine(classes[c].config);
                    for (const FetchRun &run : traces->runTrace(w, 32).runs)
                        engine.fetchRun(run);
                    stats = engine.stats();
                    sim_s += since(t0);
                    ++sim.count;
                }
                Scope span("toJson+writeFrame");
                const auto t0 = Clock::now();
                const Json cell =
                    Json::object()
                        .set("type", Json::string("cell"))
                        .set("config", Json::string(classes[c].name))
                        .set("config_index", Json::number(uint64_t{c}))
                        .set("workload", Json::string(suite[w].name))
                        .set("workload_index", Json::number(uint64_t{w}))
                        .set("stats", toJson(stats))
                        .set("timing", timingJson(0.0, stats.instructions))
                        .set("req_id", Json::string(std::to_string(r)));
                if (!serve::writeFrame(socket.fd[0], cell))
                    throw std::runtime_error("writeFrame failed");
                enc_s += since(t0);
                ++enc.count;
            }
        }
        for (uint64_t i = 0; i < cells; ++i) {
            Scope span("readFrame");
            const auto t0 = Clock::now();
            Json frame;
            std::string error;
            if (serve::readFrame(socket.fd[1], frame, error) !=
                serve::FrameStatus::Ok)
                throw std::runtime_error("readFrame: " + error);
            dec_s += since(t0);
            ++dec.count;
        }
        request_s += since(request_t0);
    }

    mat.extra["busy_s"] = mat_s;
    sim.extra["busy_s"] = sim_s;
    sim.extra["cells"] = static_cast<double>(cells);
    enc.extra["busy_s"] = enc_s;
    dec.extra["busy_s"] = dec_s;
    Layer &requests = layer("serve.memo");
    requests.count = kServeRequests;
    requests.extra["hits"] = static_cast<double>(hits);
    requests.extra["request_s"] = request_s / kServeRequests;
}

/** The cells' results as JSON: per layer its work count, busy seconds
 *  of the cell span (when it has one), self seconds and path counters. */
Json
layersJson()
{
    const std::vector<double> self = g_tracer.selfSeconds();
    Json layers = Json::object();
    for (const auto &[name, l] : g_layers) {
        Json j = Json::object().set("count", Json::number(l.count));
        if (l.span >= 0) {
            j.set("span_s", Json::number(g_tracer.seconds(l.span)))
                .set("self_s", Json::number(self[l.span]));
        }
        for (const auto &[k, v] : l.extra)
            j.set(k, Json::number(v));
        layers.set(name, std::move(j));
    }
    return layers;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || std::string(argv[1]) != "--trace-out") {
        std::fprintf(stderr, "usage: perfbench_layers --trace-out FILE\n");
        return 2;
    }
    const std::string trace_out = argv[2];
    const Clock::time_point origin = Clock::now();
    Json results = Json::array();
    Json traced_s = Json::array(), untraced_s = Json::array();
    try {
        const std::vector<WorkloadSpec> suite = ibsSuite(OsType::Mach);
        // Each pair runs the cells once recorded and once not, in an
        // order that flips from pair to pair, so neither side always
        // runs first. Only the recorded runs give layer results.
        for (int rep = 0; rep < kReps; ++rep) {
            for (const bool recorded : {rep % 2 == 0, rep % 2 != 0}) {
                g_recording = recorded;
                const auto t0 = Clock::now();
                {
                    Scope all("perfbench_layers");
                    const std::vector<RunTrace> traces = streamGen(suite);
                    fetchRuns(suite, traces);
                    collapseAndStack(suite, traces);
                    recordGen(suite);
                    decstation();
                    translateAndAccess();
                    threeC();
                    tlbLadder();
                    serveRequests();
                }
                (recorded ? traced_s : untraced_s)
                    .push(Json::number(since(t0)));
                if (recorded)
                    results.push(layersJson());
                g_layers.clear();
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
    if (!g_tracer.write(trace_out, origin)) {
        std::fprintf(stderr, "perfbench_layers: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }
    std::printf("%s\n",
                Json::object()
                    .set("reps", std::move(results))
                    .set("spans", Json::number(uint64_t{
                                      g_tracer.spans().size()}))
                    .set("traced_s", std::move(traced_s))
                    .set("untraced_s", std::move(untraced_s))
                    .dump(0)
                    .c_str());
    return 0;
}
