/**
 * @file
 * End-to-end benchmark runner: runs one workload (a list of apps at
 * smp-16x4) in this process and prints one JSON document of raw
 * measurements on stdout.  benchmark/run.py turns it into metrics.
 *
 * The runner reaches the program only through its public surface
 * (createApp and the App interface, Runtime construction / run() /
 * destruction and its stats getters, DsmConfig, GranularityAdvisor).
 * Optional machinery -- the opt layer, the thread backend, the
 * parallel engine -- is selected by the caller through its
 * environment knob, so removing that machinery leaves this file
 * building and the workload still running.
 *
 * Each app run is timed phase by phase with steady_clock spans
 * (workload > pass > run > phase).  The spans are kept in memory and,
 * with --trace-json, written as Chrome trace-event JSON at exit.  The
 * shasta_bench_traced build additionally counts operator new calls
 * made inside Runtime::run.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/app.hh"
#include "mem/granularity_advisor.hh"
#include "obs/stats_json.hh"

#ifdef SHASTA_BENCH_TRACED
namespace
{
std::atomic<bool> countAllocs{false};
std::atomic<std::uint64_t> allocCount{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (countAllocs.load(std::memory_order_relaxed))
        allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

using namespace shasta;

namespace
{

using Clock = std::chrono::steady_clock;

struct Options
{
    std::vector<std::string> apps;
    std::uint64_t seed = 12345;
    double seconds = 25.0;
    int minPasses = 2;
    bool warmup = true;
    /** Fault spec without seed; the workload seed is appended. */
    std::string fault;
    bool annotate = false;
    bool adaptive = false;
    /** NAME=VALUE set for one extra pass after the timed passes. */
    std::string checkEnv;
    bool smoke = false;
    std::string traceJson;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "shasta_bench: %s\nusage: shasta_bench --apps=A,B,... "
                 "[--seed=N] [--seconds=S] [--min-passes=N] "
                 "[--warmup=0|1] [--fault=SPEC] [--annotate] "
                 "[--adaptive] [--check-env=NAME=VALUE] [--smoke] "
                 "[--trace-json=FILE]\n",
                 msg);
    std::exit(2);
}

/** Strict numeric parse: the whole value must be consumed. */
double
parseNumber(const char *flag, const char *v, double lo, double hi)
{
    char *end = nullptr;
    const double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(d >= lo && d <= hi)) {
        std::fprintf(stderr, "shasta_bench: bad %s '%s'\n", flag, v);
        std::exit(2);
    }
    return d;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a(argv[i]);
        const auto value = [&](std::string_view flag) -> const char * {
            if (a.starts_with(flag) && a.size() > flag.size() &&
                a[flag.size()] == '=')
                return argv[i] + flag.size() + 1;
            return nullptr;
        };
        if (const char *v = value("--apps")) {
            std::string s(v);
            for (std::size_t b = 0; b <= s.size();) {
                const std::size_t e = std::min(s.find(',', b), s.size());
                if (e == b)
                    usage("empty app name");
                o.apps.push_back(s.substr(b, e - b));
                b = e + 1;
            }
        } else if (const char *v = value("--seed")) {
            char *end = nullptr;
            o.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("bad --seed");
        } else if (const char *v = value("--seconds")) {
            o.seconds = parseNumber("--seconds", v, 0.0, 3600.0);
        } else if (const char *v = value("--min-passes")) {
            o.minPasses =
                static_cast<int>(parseNumber("--min-passes", v, 1, 1000));
        } else if (const char *v = value("--warmup")) {
            o.warmup = parseNumber("--warmup", v, 0, 1) != 0.0;
        } else if (const char *v = value("--fault")) {
            o.fault = v;
        } else if (a == "--annotate") {
            o.annotate = true;
        } else if (a == "--adaptive") {
            o.adaptive = true;
        } else if (const char *v = value("--check-env")) {
            o.checkEnv = v;
            if (o.checkEnv.find('=') == std::string::npos)
                usage("--check-env wants NAME=VALUE");
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (const char *v = value("--trace-json")) {
            o.traceJson = v;
        } else {
            usage(("unknown argument '" + std::string(a) + "'").c_str());
        }
    }
    if (o.apps.empty())
        usage("--apps is required");
    const std::vector<std::string> names = appNames();
    for (const std::string &name : o.apps) {
        if (std::find(names.begin(), names.end(), name) == names.end())
            usage(("unknown app '" + name + "'").c_str());
    }
    if (!o.fault.empty()) {
        o.fault += ",seed:" + std::to_string(o.seed);
        FaultConfig f;
        if (!FaultConfig::parse(o.fault, f))
            usage("bad --fault spec");
        f.validate();
    }
    return o;
}

/** Minimal JSON emitter: commas are inserted automatically. */
class JsonOut
{
  public:
    JsonOut &
    open(char c)
    {
        sep();
        s_ += c;
        fresh_ = true;
        return *this;
    }

    JsonOut &
    close(char c)
    {
        s_ += c;
        fresh_ = false;
        return *this;
    }

    JsonOut &
    key(std::string_view k)
    {
        sep();
        quote(k);
        s_ += ':';
        fresh_ = true;
        return *this;
    }

    JsonOut &
    str(std::string_view v)
    {
        sep();
        quote(v);
        return *this;
    }

    JsonOut &
    num(double v)
    {
        sep();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(v) ? v : 0.0);
        s_ += buf;
        return *this;
    }

    JsonOut &
    num(std::uint64_t v)
    {
        sep();
        s_ += std::to_string(v);
        return *this;
    }

    JsonOut &
    boolean(bool v)
    {
        sep();
        s_ += v ? "true" : "false";
        return *this;
    }

    template <typename T>
    JsonOut &
    field(std::string_view k, const T &v)
    {
        key(k);
        if constexpr (std::is_same_v<T, bool>)
            return boolean(v);
        else if constexpr (std::is_convertible_v<T, std::string_view>)
            return str(v);
        else if constexpr (std::is_floating_point_v<T>)
            return num(static_cast<double>(v));
        else
            return num(static_cast<std::uint64_t>(v));
    }

    const std::string &text() const { return s_; }

  private:
    void
    sep()
    {
        if (!fresh_)
            s_ += ',';
        fresh_ = false;
    }

    void
    quote(std::string_view v)
    {
        s_ += '"';
        s_ += obs::jsonEscape(v);
        s_ += '"';
    }

    std::string s_;
    bool fresh_ = true;
};

/** In-memory span recorder (one per process). */
class Tracer
{
  public:
    int
    open(const char *name, int parent, std::string app, int pass)
    {
        spans_.push_back(Span{name, parent, std::move(app), pass, now(),
                              -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close span @p id; returns its duration in milliseconds. */
    double
    close(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.durUs = now() - s.startUs;
        return s.durUs / 1000.0;
    }

    /** Run @p f inside span @p name; returns its milliseconds.  The
     *  span is closed on the exception path too. */
    template <typename F>
    double
    time(const char *name, int parent, const std::string &app,
         int pass, F &&f)
    {
        const int id = open(name, parent, app, pass);
        try {
            f();
        } catch (...) {
            close(id);
            throw;
        }
        return close(id);
    }

    /** Chrome trace-event JSON; each event carries its span id,
     *  parent, app, pass and self time (duration minus the time its
     *  child spans cover). */
    void
    write(const std::string &path) const
    {
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0 && s.durUs >= 0)
                childUs[static_cast<std::size_t>(s.parent)] += s.durUs;
        }
        JsonOut j;
        j.open('{').key("traceEvents").open('[');
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.durUs < 0)
                continue;
            j.open('{')
                .field("name", s.name)
                .field("cat", "benchmark")
                .field("ph", "X")
                .field("ts", s.startUs)
                .field("dur", s.durUs)
                .field("pid", 1)
                .field("tid", 1);
            j.key("args")
                .open('{')
                .field("id", i)
                .key("parent")
                .num(static_cast<double>(s.parent))
                .field("app", s.app)
                .key("pass")
                .num(static_cast<double>(s.pass))
                .field("self_us", s.durUs - childUs[i])
                .close('}');
            j.close('}');
        }
        j.close(']').field("displayTimeUnit", "ms").close('}');
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "shasta_bench: cannot write %s\n",
                         path.c_str());
            std::exit(1);
        }
        std::fputs(j.text().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::string app;
        int pass;
        double startUs;
        double durUs;
    };

    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** Phases of one app run, in execution order. */
enum Phase
{
    kProfile,
    kCtor,
    kSetup,
    kRun,
    kChecksum,
    kSummary,
    kDtor,
    kNumPhases
};

constexpr const char *kPhaseNames[kNumPhases] = {
    "mem.advisor_profile", "dsm.ctor",    "apps.setup", "dsm.run",
    "apps.checksum",       "obs.summary", "dsm.dtor",
};

struct RunRecord
{
    std::string app;
    double ms[kNumPhases] = {};
    double totalMs = 0.0;
    /** Deterministic-counter digest: the stats JSON plus checksum. */
    std::string digest;
    bool simulated = false;
    double checksum = 0.0;
    std::vector<std::pair<const char *, double>> stats;
    std::string error;
    /** The calibration loop timed just before this run. */
    double calibrateMs = 0.0;
};

struct PassRecord
{
    const char *kind; // "warmup", "timed" or "check"
    int index;
    double ms = 0.0;
    std::vector<RunRecord> runs;
    /** Latency histograms merged over the pass's apps. */
    Log2Histogram readMiss, lockWait, barrierWait, retryDelay;
};

/** What the runs of this process actually engaged. */
struct Engaged
{
    std::string backend = "sim";
    int threads = 1;
    std::string opt;
};

/** Sets one environment variable (NAME=VALUE) for its lifetime; the
 *  program reads its knobs when a Runtime is constructed. */
class ScopedEnv
{
  public:
    explicit ScopedEnv(const std::string &assignment)
        : name_(assignment.substr(0, assignment.find('=')))
    {
        if (const char *old = std::getenv(name_.c_str())) {
            had_ = true;
            old_ = old;
        }
        setenv(name_.c_str(),
               assignment.c_str() + assignment.find('=') + 1, 1);
    }

    ~ScopedEnv()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

AppParams
paramsFor(const App &app, const Options &o)
{
    AppParams p = app.defaultParams();
    if (o.smoke) {
        // Halved sizes, rounded the way each kernel requires.
        p.n = std::max(32, p.n / 2);
        if (app.name() == "lu" || app.name() == "lu-contig")
            p.n = (p.n / 32) * 32;
        if (app.name() == "ocean")
            p.n = p.n / 2 * 2 + 2;
    }
    // The paper's home placement (Section 4.3).
    p.homePlacement = app.name() == "fmm" || app.name() == "lu-contig" ||
                      app.name() == "ocean";
    p.annotate = o.annotate;
    p.seed = o.seed;
    return p;
}

/** Fixed integer work that touches no program code: a xorshift walk
 *  over a 32 KiB table, so it runs from L1 and times the core alone.
 *  Its duration tracks how fast this shared host runs at the moment. */
void
calibrate()
{
    static std::uint32_t table[8192];
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 400000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &t = table[x & 8191];
        if ((x >> 20) & 1)
            t += static_cast<std::uint32_t>(x);
        else
            acc += t;
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
}

/** The measured-region wrapper every registered run uses: init
 *  barrier, measured region, final barrier. */
Task
appMain(Context &c, App &app, const AppParams &p)
{
    co_await c.barrier();
    c.beginMeasure();
    co_await app.body(c, p);
    co_await c.barrier();
}

class Runner
{
  public:
    explicit Runner(Options o) : o_(std::move(o)) {}

    int run();

  private:
    RunRecord runOne(const std::string &name, int passSpan, int pass);
    void runPass(const char *kind);
    void collect(Runtime &rt, const obs::RunSummary &s,
                 std::uint64_t allocs, RunRecord &r, PassRecord &pr);
    void gate();
    void emit(double peakRssMb) const;

    Options o_;
    Tracer tr_;
    int workloadSpan_ = -1;
    std::vector<PassRecord> passes_;
    std::vector<std::pair<std::string, double>> referenceMs_;
    std::vector<std::string> failures_;
    int attempted_ = 0;
    int failed_ = 0;
    Engaged engaged_;
};

DsmConfig
workloadConfig(const Options &o)
{
    DsmConfig cfg = DsmConfig::smp(16, 4);
    if (!o.fault.empty())
        FaultConfig::parse(o.fault, cfg.fault);
    return cfg;
}

RunRecord
Runner::runOne(const std::string &name, int passSpan, int pass)
{
    RunRecord r;
    r.app = name;
    PassRecord &pr = passes_.back();
    const int runSpan = tr_.open("run", passSpan, name, pass);
    try {
        auto app = createApp(name);
        AppParams p = paramsFor(*app, o_);
        const DsmConfig cfg = workloadConfig(o_);
        GranularityAdvisor adv;
        const auto phase = [&](Phase ph, auto &&f) {
            r.ms[ph] = tr_.time(kPhaseNames[ph], runSpan, name, pass, f);
        };
        if (o_.adaptive) {
            // Profile run of the same program with the opt layer off,
            // so the plan reflects the unoptimized sharing profile;
            // the plan then drives the measured (apply) run below.
            phase(kProfile, [&] {
                const ScopedEnv optOff("SHASTA_OPT=none");
                auto prof = createApp(name);
                AppParams pp = p;
                pp.advisor = &adv;
                runApp(*prof, cfg, pp);
                adv.finalize(cfg.lineSize);
            });
            p.advisor = &adv;
        }
        std::unique_ptr<Runtime> rt;
        phase(kCtor, [&] {
            rt = std::make_unique<Runtime>(cfg);
            if (p.advisor)
                rt->setGranularityAdvisor(p.advisor);
        });
        phase(kSetup, [&] { app->setup(*rt, p); });
        std::uint64_t allocs = 0;
        phase(kRun, [&] {
#ifdef SHASTA_BENCH_TRACED
            const std::uint64_t before = allocCount.load();
            countAllocs.store(true);
            struct Stop
            {
                ~Stop() { countAllocs.store(false); }
            } stop;
#endif
            rt->run([&](Context &c) { return appMain(c, *app, p); });
#ifdef SHASTA_BENCH_TRACED
            allocs = allocCount.load() - before;
#endif
        });
        phase(kChecksum, [&] { r.checksum = app->checksum(*rt); });
        phase(kSummary, [&] {
            obs::RunSummary s = rt->runSummary();
            if (p.advisor && p.advisor->applying() &&
                rt->config().opt.adaptive) {
                s.adaptiveRegions = p.advisor->regions();
                s.adaptiveShrunk = p.advisor->shrunk();
                s.adaptiveGrown = p.advisor->grown();
            }
            char cs[40];
            std::snprintf(cs, sizeof(cs), "%.17g", r.checksum);
            r.digest = obs::toJson(s) + cs;
            collect(*rt, s, allocs, r, pr);
        });
        phase(kDtor, [&] { rt.reset(); });
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.totalMs = tr_.close(runSpan);
    return r;
}

void
Runner::collect(Runtime &rt, const obs::RunSummary &s,
                std::uint64_t allocs, RunRecord &r, PassRecord &pr)
{
    const DsmConfig &cfg = rt.config();
    r.simulated = cfg.backend == BackendKind::Sim;
    if (std::strcmp(pr.kind, "timed") == 0) {
        engaged_.backend = r.simulated ? "sim" : "thread";
        engaged_.threads = !r.simulated ? cfg.topology().numMachines()
                           : rt.engine() != nullptr ? cfg.engineThreads
                                                    : 1;
        engaged_.opt.clear();
        for (const auto &[on, label] :
             {std::pair{cfg.opt.migratory, "migratory"},
              std::pair{cfg.opt.elide, "elide"},
              std::pair{cfg.opt.adaptive, "adaptive"}}) {
            if (on)
                engaged_.opt += (engaged_.opt.empty() ? "" : ",") +
                                std::string(label);
        }
    }

    const auto &m = s.counters.misses;
    const auto mc = [&](MissClass c) {
        return static_cast<double>(m[static_cast<std::size_t>(c)]);
    };
    const auto d = [](auto v) { return static_cast<double>(v); };
    const Breakdown &b = s.breakdown.parts;
    const RelCounts &rel = s.net.rel;
    r.stats = {
        {"sim_cycles", d(s.wallTime)},
        {"task_cycles", d(s.breakdown.task())},
        {"read_stall_cycles", d(b.read)},
        {"write_stall_cycles", d(b.write)},
        {"sync_stall_cycles", d(b.sync)},
        {"msg_cycles", d(b.msg)},
        {"misses", d(s.counters.totalMisses())},
        {"misses_3hop", mc(MissClass::Read3Hop) +
                            mc(MissClass::Write3Hop) +
                            mc(MissClass::Upgrade3Hop)},
        {"private_upgrades", d(s.counters.privateUpgrades)},
        {"merged_misses", d(s.counters.mergedMisses)},
        {"downgrade_ops", d(s.counters.totalDowngradeOps())},
        {"mig_grants", d(s.counters.migGrants)},
        {"remote_msgs", d(s.net.remoteMsgs)},
        {"local_msgs", d(s.net.localMsgs)},
        {"downgrade_msgs", d(s.net.downgradeMsgs)},
        {"remote_bytes", d(s.net.remoteBytes)},
        {"total_msgs", d(s.net.total())},
        {"rel_data_msgs", d(rel.dataMsgs)},
        {"rel_retransmits", d(rel.retransmits)},
        {"rel_dup_drops", d(rel.dupDrops)},
        {"rel_reorder_buffered", d(rel.reorderBuffered)},
        {"rel_acks_sent", d(rel.acksSent)},
        {"dir_lookups", d(s.dir.lookups)},
        {"dir_queued_total", d(s.dir.queuedTotal)},
        {"dir_peak_queued", d(s.dir.peakQueued)},
        {"check_loads", d(s.checks.loads)},
        {"check_stores", d(s.checks.stores)},
        {"check_batch_checks", d(s.checks.batchChecks)},
        {"check_cycles", d(s.checks.checkCycles)},
        {"check_elided", d(s.checks.elidedChecks)},
        {"events", d(rt.events().processed())},
        {"adaptive_shrunk", d(s.adaptiveShrunk)},
        {"adaptive_grown", d(s.adaptiveGrown)},
        {"run_allocs", d(allocs)},
    };
    pr.readMiss += s.lat.of(LatencyClass::ReadMiss2Hop);
    pr.readMiss += s.lat.of(LatencyClass::ReadMiss3Hop);
    pr.lockWait += s.lat.of(LatencyClass::LockWait);
    pr.barrierWait += s.lat.of(LatencyClass::BarrierWait);
    pr.retryDelay += s.lat.of(LatencyClass::RetryDelay);
}

void
Runner::runPass(const char *kind)
{
    const int index = static_cast<int>(passes_.size());
    passes_.push_back(PassRecord{kind, index, 0.0, {}, {}, {}, {}, {}});
    const int passSpan = tr_.open("pass", workloadSpan_, "", index);
    for (const std::string &name : o_.apps) {
        const double cal = tr_.time("bench.calibrate", passSpan, name,
                                    index, calibrate);
        RunRecord r = runOne(name, passSpan, index);
        r.calibrateMs = cal;
        passes_.back().runs.push_back(std::move(r));
    }
    passes_.back().ms = tr_.close(passSpan);
}

bool
withinTolerance(const App &app, double got, double ref)
{
    return std::abs(got - ref) <=
           app.tolerance() * std::max(1.0, std::abs(ref));
}

/** Correctness gate: references are computed once, after the timed
 *  passes.  A run fails when it threw, when its checksum misses the
 *  reference, or when its simulated statistics differ from the first
 *  timed pass's simulation of the same app (passes must repeat, and
 *  the parallel engine must replay the serial engine exactly). */
void
Runner::gate()
{
    const PassRecord *first = nullptr;
    for (const PassRecord &p : passes_) {
        if (std::strcmp(p.kind, "timed") == 0) {
            first = &p;
            break;
        }
    }
    for (std::size_t a = 0; a < o_.apps.size(); ++a) {
        const std::string &name = o_.apps[a];
        auto app = createApp(name);
        const AppParams p = paramsFor(*app, o_);
        double ref = 0.0;
        const double ms = tr_.time("apps.reference", workloadSpan_, name,
                                   -1, [&] { ref = app->reference(p); });
        referenceMs_.emplace_back(name, ms);
        for (const PassRecord &pr : passes_) {
            const RunRecord &r = pr.runs[a];
            const RunRecord &base = first->runs[a];
            std::string why;
            if (!r.error.empty())
                why = "threw: " + r.error;
            else if (!withinTolerance(*app, r.checksum, ref))
                why = "checksum " + std::to_string(r.checksum) +
                      " vs reference " + std::to_string(ref);
            else if (r.simulated && base.simulated &&
                     base.error.empty() && r.digest != base.digest)
                why = "simulated statistics differ from timed pass 1";
            ++attempted_;
            if (!why.empty()) {
                ++failed_;
                failures_.push_back(name + " (" + pr.kind + " pass " +
                                    std::to_string(pr.index) +
                                    "): " + why);
            }
        }
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
Runner::emit(double rssMb) const
{
    JsonOut j;
    j.open('{');
    j.key("meta").open('{');
    j.field("hostCores", std::thread::hardware_concurrency())
        .field("compiler", __VERSION__)
        .field("buildType", SHASTA_BENCH_BUILD_TYPE)
        .field("cxxFlags", SHASTA_BENCH_CXX_FLAGS)
        .field("seed", o_.seed)
        .field("backend", engaged_.backend)
        .field("threads", engaged_.threads)
        .field("opt", engaged_.opt)
        .field("fault", o_.fault)
        .field("smoke", o_.smoke)
#ifdef SHASTA_BENCH_TRACED
        .field("traced", true);
#else
        .field("traced", false);
#endif
    j.key("apps").open('[');
    for (const std::string &a : o_.apps)
        j.str(a);
    j.close(']').close('}');

    j.key("passes").open('[');
    for (const PassRecord &p : passes_) {
        j.open('{')
            .field("kind", p.kind)
            .field("index", p.index)
            .field("ms", p.ms);
        j.key("hist").open('{');
        j.field("read_miss_p50", p.readMiss.percentile(0.50))
            .field("read_miss_p99", p.readMiss.percentile(0.99))
            .field("lock_wait_p99", p.lockWait.percentile(0.99))
            .field("barrier_wait_p99", p.barrierWait.percentile(0.99))
            .field("retry_delay_p99", p.retryDelay.percentile(0.99));
        j.close('}');
        j.key("runs").open('[');
        for (const RunRecord &r : p.runs) {
            j.open('{')
                .field("app", r.app)
                .field("total_ms", r.totalMs)
                .field("bench.calibrate", r.calibrateMs);
            for (int ph = 0; ph < kNumPhases; ++ph)
                j.field(kPhaseNames[ph], r.ms[ph]);
            j.key("stats").open('{');
            for (const auto &[k, v] : r.stats)
                j.field(k, v);
            j.close('}').close('}');
        }
        j.close(']').close('}');
    }
    j.close(']');

    j.key("reference_ms").open('{');
    for (const auto &[app, ms] : referenceMs_)
        j.field(app, ms);
    j.close('}');
    j.field("peak_rss_mb", rssMb)
        .field("attempted", attempted_)
        .field("failed", failed_);
    j.key("failures").open('[');
    for (const std::string &f : failures_)
        j.str(f);
    j.close(']').close('}');
    std::printf("%s\n", j.text().c_str());
}

int
Runner::run()
{
    workloadSpan_ = tr_.open("workload", -1, "", -1);
    // One pass fills caches, the allocator and lazily built tables
    // that later passes reuse; it is measured but not reported.  The
    // timed passes then fill the rest of --seconds: another pass
    // starts only if one more of the last pass's length still fits.
    const Clock::time_point t0 = Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    double last = 0.0;
    const auto pass = [&](const char *kind) {
        const double start = elapsed();
        runPass(kind);
        last = elapsed() - start;
    };
    if (o_.warmup)
        pass("warmup");
    int timed = 0;
    do {
        pass("timed");
        ++timed;
    } while (timed < o_.minPasses || elapsed() + last <= o_.seconds);
    const double rss = peakRssMb();
    if (!o_.checkEnv.empty()) {
        const ScopedEnv env(o_.checkEnv);
        runPass("check");
    }
    gate();
    tr_.close(workloadSpan_);
    emit(rss);
    if (!o_.traceJson.empty())
        tr_.write(o_.traceJson);
    return failed_ == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Runner d(parseArgs(argc, argv));
    return d.run();
}
