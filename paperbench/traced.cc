/**
 * @file
 * Traced runs: the per-layer metrics of each workload.
 *
 * The traced run composes a campaign grid itself from the library's
 * public per-layer entry points — input generation, compile, harden,
 * value profile, baseline, characterization, fault-space analysis,
 * bundle serialization and the trial phase — on a kThreads-wide
 * TaskPool with the default config, and records a span around every
 * call. Spans (name, start, end, parent, CPU) stay in memory and are
 * written as Chrome trace-event JSON when the run ends.
 *
 * Some calls are measurement only. compileMiniLang, hardenModule and
 * ModuleFaultSpace run once per cell to time those layers and count IR
 * instructions and checks (characterizeCell repeats the compile and
 * harden internally), and every cell is serialized and loaded once,
 * though neither workload uses the artifact cache, so the cache layer
 * is measured too. Such spans are marked "extra" and left
 * out of the CPU coverage figure, which compares the spans of the work
 * the untraced run also does with that run's cpu_s.
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>

#include "analysis/fault_space.hh"
#include "analysis/static_stats.hh"
#include "common.hh"
#include "core/pipeline.hh"
#include "runners.hh"
#include "fault/campaign_internal.hh"
#include "frontend/compile.hh"
#include "profile/value_profiler.hh"
#include "service/artifact_cache.hh"
#include "support/error.hh"
#include "support/task_pool.hh"
#include "workloads/workload.hh"

namespace paperbench
{

namespace
{

using namespace softcheck;
using namespace softcheck::campaign_detail;

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

unsigned
smallThreadId()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next++;
    return id;
}

/** In-memory span recorder. */
class Tracer
{
  public:
    using SpanId = uint64_t;

    /** Where a span's CPU time comes from: the calling thread's clock
     * for work on one thread, the process clock for a call that fans
     * out onto the pool and blocks its caller until it drains. */
    enum class Cpu : uint8_t
    {
        Thread,
        Process,
    };

    struct Span
    {
        SpanId id = 0;
        SpanId parent = 0; //!< 0 = root
        std::string name;
        double start = 0;
        double end = 0;
        double cpu = 0;
        unsigned tid = 0;
        bool extra = false; //!< measurement-only work
    };

    /** RAII span: opened at construction, recorded at destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, SpanId parent,
              Cpu cpu = Cpu::Thread, bool extra = false)
            : tracer(t), cpuSource(cpu)
        {
            span.id = ++t.lastId;
            span.parent = parent;
            span.name = std::move(name);
            span.extra = extra;
            span.tid = smallThreadId();
            cpu0 = cpuNow();
            span.start = nowSeconds();
        }
        ~Scope()
        {
            span.end = nowSeconds();
            span.cpu = cpuNow() - cpu0;
            std::lock_guard lock(tracer.mu);
            tracer.spans.push_back(std::move(span));
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        SpanId id() const { return span.id; }

      private:
        double
        cpuNow() const
        {
            return cpuSource == Cpu::Thread ? threadCpuSeconds()
                                            : processCpuSeconds();
        }

        Tracer &tracer;
        Cpu cpuSource;
        Span span;
        double cpu0 = 0;
    };

    /** All spans; call only once no Scope is open. */
    const std::vector<Span> &finished() const { return spans; }

    /** Self time of every span: its duration minus the part of it its
     * children's intervals cover. */
    std::map<SpanId, double>
    selfTimes() const
    {
        std::map<SpanId, std::vector<std::pair<double, double>>> kids;
        for (const Span &s : spans)
            if (s.parent)
                kids[s.parent].emplace_back(s.start, s.end);
        std::map<SpanId, double> self;
        for (const Span &s : spans) {
            auto &iv = kids[s.id];
            std::sort(iv.begin(), iv.end());
            double covered = 0;
            double lo = s.start;
            for (const auto &[a, b] : iv) {
                const double from = std::max(a, lo);
                const double to = std::min(b, s.end);
                if (to > from) {
                    covered += to - from;
                    lo = to;
                }
            }
            self[s.id] = s.end - s.start - covered;
        }
        return self;
    }

    void
    writeChromeTrace(const std::string &path) const
    {
        double t0 = spans.empty() ? 0 : spans.front().start;
        for (const Span &s : spans)
            t0 = std::min(t0, s.start);
        std::ofstream out(path);
        if (!out)
            scFatal("cannot write span file ", path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                "\"parent\":%llu,\"cpu_us\":%.3f,\"extra\":%s}}%s\n",
                s.name.c_str(), s.tid, (s.start - t0) * 1e6,
                (s.end - s.start) * 1e6,
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent), s.cpu * 1e6,
                s.extra ? "true" : "false",
                i + 1 < spans.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

  private:
    std::atomic<SpanId> lastId{0};
    std::mutex mu; //!< guards spans
    std::vector<Span> spans;
};

/** Counters of the traced run, summed over every call. */
struct Counters
{
    std::mutex mu; //!< guards everything below
    uint64_t irInsts = 0;
    uint64_t checks = 0;
    uint64_t bundleBytes = 0;
    uint64_t loads = 0;
    uint64_t loadHits = 0;
};

struct CellState
{
    CampaignConfig cfg;
    CellCharacterization cell;
    std::string bundle; //!< serialized cell
};

/** One workload's shared fault-free artifacts, as the suite keeps
 * them. Lives in a deque: SharedArtifacts holds a mutex. */
struct WorkloadState
{
    const Workload *w = nullptr;
    CampaignConfig proto;
    SharedArtifacts sa;
    PreparedModule baselineModule;
    HardeningReport baselineReport;
    ProfileData profile;
    WorkloadRunSpec testSpec;
    PreparedRun pristine;
    SnapshotAccounting pages;
    std::deque<CellState> cells; //!< one per grid mode
};

/** Time compile, harden and fault-space analysis of one cell's
 * program (measurement only; see the file comment). */
void
measureStaticLayers(Tracer &tr, Tracer::SpanId parent, const Workload &w,
                    HardeningMode mode, const ProfileData &profile,
                    Counters &counters)
{
    std::unique_ptr<Module> mod;
    {
        Tracer::Scope s(tr, "frontend.compile", parent, Tracer::Cpu::Thread,
                        true);
        mod = compileMiniLang(w.source, w.name);
    }
    const unsigned insts = collectStaticStats(*mod).totalInstructions;
    HardeningReport report;
    {
        Tracer::Scope s(tr, "core.harden", parent, Tracer::Cpu::Thread,
                        true);
        assignProfileSites(*mod);
        HardeningOptions hopts;
        hopts.mode = mode;
        report = hardenModule(*mod, hopts, &profile);
    }
    {
        Tracer::Scope s(tr, "analysis.fault_space", parent,
                        Tracer::Cpu::Thread, true);
        [[maybe_unused]] const ModuleFaultSpace fs(*mod);
    }
    std::lock_guard lock(counters.mu);
    counters.irInsts += insts;
    counters.checks += report.eqChecks + report.valueChecks;
}

/**
 * Characterize every (workload, mode) cell of @p ws on @p pool, the
 * way the suite does: per workload input, baseline module, profile and
 * baseline run, then one characterizeCell per mode on the shared
 * artifacts, each followed by serializeCell (measurement only), as a
 * cache fill does.
 */
void
characterizeGrid(Tracer &tr, TaskPool &pool, Tracer::SpanId parent,
                 std::deque<WorkloadState> &ws, Counters &counters)
{
    std::vector<TaskPool::TaskId> ids;
    for (WorkloadState &st : ws) {
        const bool train_role = !st.proto.swapTrainTest;
        const auto t_input = pool.submit([&tr, &st, parent, train_role] {
            Tracer::Scope s(tr, "workloads.input", parent);
            st.testSpec = st.w->makeInput(!train_role);
            st.pristine = prepareRun(st.testSpec);
            st.sa.testSpec = &st.testSpec;
            st.sa.pristine = &st.pristine;
        });
        const auto t_module = pool.submit([&tr, &st, parent] {
            Tracer::Scope s(tr, "fault.build_module", parent);
            st.baselineModule =
                buildModule(*st.w, HardeningMode::Original, st.proto,
                            nullptr, &st.baselineReport);
            st.sa.baselineModule = &st.baselineModule;
            st.sa.baselineReport = &st.baselineReport;
        });
        const auto t_profile = pool.submit([&tr, &st, parent, train_role] {
            Tracer::Scope s(tr, "profile.profile", parent);
            st.profile = collectProfile(*st.w, st.proto, train_role);
            st.sa.profile = &st.profile;
        });
        const auto t_baseline = pool.submit(
            [&tr, &st, parent] {
                Tracer::Scope s(tr, "interp.baseline", parent);
                st.sa.baseline = runBaseline(*st.w, st.baselineModule,
                                             st.testSpec, st.proto);
            },
            {t_input, t_module});
        ids.insert(ids.end(), {t_input, t_module, t_profile, t_baseline});
        for (CellState &cs : st.cells) {
            ids.push_back(pool.submit(
                [&tr, &st, &cs, &counters, parent] {
                    measureStaticLayers(tr, parent, *st.w, cs.cfg.mode,
                                        st.profile, counters);
                },
                {t_profile}));
            ids.push_back(pool.submit(
                [&tr, &st, &cs, &counters, parent] {
                    {
                        Tracer::Scope s(tr, "fault.characterize", parent);
                        cs.cell = characterizeCell(cs.cfg, &st.sa,
                                                   &st.pages);
                    }
                    Tracer::Scope s(tr, "service.serialize", parent,
                                    Tracer::Cpu::Thread, true);
                    cs.bundle = service::serializeCell(cs.cell, cs.cfg);
                    std::lock_guard lock(counters.mu);
                    counters.bundleBytes += cs.bundle.size();
                },
                {t_baseline, t_profile}));
        }
    }
    for (const TaskPool::TaskId id : ids)
        pool.wait(id);
}

/**
 * Load every cell's bundle once on @p pool, as a warm cache request
 * does (measurement only: the trials run on the characterizations the
 * grid computed). A bundle that fails to load is counted as a miss and
 * not retried.
 */
void
cacheRoundTrip(Tracer &tr, TaskPool &pool, Tracer::SpanId parent,
               std::deque<WorkloadState> &ws, Counters &counters)
{
    std::vector<TaskPool::TaskId> ids;
    for (WorkloadState &st : ws) {
        for (CellState &cs : st.cells) {
            ids.push_back(pool.submit([&tr, &cs, &counters, parent] {
                std::optional<CellCharacterization> loaded;
                {
                    Tracer::Scope s(tr, "service.deserialize", parent,
                                    Tracer::Cpu::Thread, true);
                    try {
                        loaded = service::deserializeCell(
                            cs.bundle, cs.cfg,
                            service::cellCacheKey(cs.cfg));
                    } catch (const FatalError &e) {
                        std::fprintf(stderr,
                                     "paperbench: unreadable bundle "
                                     "%s/%s: %s\n",
                                     cs.cfg.workload.c_str(),
                                     modeToken(cs.cfg.mode), e.what());
                    }
                }
                std::lock_guard lock(counters.mu);
                ++counters.loads;
                counters.loadHits += loaded.has_value();
            }));
        }
    }
    for (const TaskPool::TaskId id : ids)
        pool.wait(id);
}

/** Trial-phase counters, summed over cells. */
struct TrialTotals
{
    uint64_t trials = 0;
    uint64_t executed = 0;
    uint64_t ffReplay = 0;
    uint64_t ffRestorePages = 0;
    uint64_t snapshotBytes = 0;
    uint64_t goldenDyn = 0;
    double goldenSeconds = 0;
};

/**
 * Run every cell's trial phase with campaign seed @p seed and check the
 * results against @p ref. Returns the number of mismatching cells.
 */
uint64_t
runTrials(Tracer &tr, TaskPool &pool, Tracer::SpanId parent,
          std::deque<WorkloadState> &ws, uint64_t seed, int fold,
          const Reference &ref, TrialTotals &tot)
{
    uint64_t bad = 0;
    for (WorkloadState &st : ws) {
        for (CellState &cs : st.cells) {
            CampaignConfig cfg = cs.cfg;
            cfg.seed = seed;
            CampaignResult r;
            {
                Tracer::Scope s(tr, "fault.trials", parent,
                                Tracer::Cpu::Process);
                r = runTrialPhase(cs.cell, cfg, pool);
            }
            const CellKey key{fold, cfg.trials ? seed : 0, cfg.workload,
                              cfg.mode};
            if (!ref.matches(key, cellStats(r)))
                ++bad;
            tot.trials += r.totalTrials();
            tot.executed += r.totalTrials() - r.trialsStaticallyResolved -
                            r.trialsClassMembers;
            tot.ffReplay += r.ffReplayInstrs;
            tot.ffRestorePages += r.ffRestorePages;
        }
    }
    return bad;
}

std::size_t
gridCells()
{
    return gridWorkloads().size() * gridModes().size();
}

/** Per-workload states for one fold of the grid. */
std::deque<WorkloadState>
makeGridStates(unsigned trials, bool swap)
{
    std::deque<WorkloadState> ws;
    for (const std::string &name : gridWorkloads()) {
        WorkloadState &st = ws.emplace_back();
        st.w = &getWorkload(name);
        st.proto = baseConfig(trials, swap);
        st.proto.workload = name;
        for (const HardeningMode m : gridModes()) {
            CellState &cs = st.cells.emplace_back();
            cs.cfg = st.proto;
            cs.cfg.mode = m;
        }
    }
    return ws;
}

/** Golden-run totals of a characterized grid. */
void
addGolden(const std::deque<WorkloadState> &ws, TrialTotals &tot)
{
    for (const WorkloadState &st : ws) {
        for (const CellState &cs : st.cells) {
            tot.goldenDyn += cs.cell.proto.goldenDynInstrs;
            tot.goldenSeconds += cs.cell.proto.phase.goldenSeconds;
            tot.snapshotBytes += cs.cell.proto.snapshotBytes;
        }
    }
}

} // namespace

RunResult
traceWorkload(const Options &opt)
{
    RunResult res;

    // Untraced reference pass: the pool utilization and the cpu_s the
    // spans are compared with.
    PassOutcome untraced;
    {
        std::unique_ptr<WorkloadRunner> runner = makeRunner(opt);
        runner->setup();
        untraced = runner->pass(0);
        res.correct = untraced.correct;
    }

    Tracer tr;
    Counters counters;
    TrialTotals tot;
    /** Spans under these parents are the work the untraced pass did. */
    std::vector<Tracer::SpanId> timed;
    TaskPool pool(kThreads);

    if (opt.workload == "paper_grid") {
        const Reference ref =
            Reference::load(opt.referenceDir + "/paper_grid.tsv");
        Tracer::Scope req(tr, "request", 0, Tracer::Cpu::Process);
        timed.push_back(req.id());
        std::deque<WorkloadState> ws = makeGridStates(kPaperTrials, false);
        characterizeGrid(tr, pool, req.id(), ws, counters);
        cacheRoundTrip(tr, pool, req.id(), ws, counters);
        addGolden(ws, tot);
        const uint64_t bad =
            runTrials(tr, pool, req.id(), ws,
                      poolSeed(opt.seed, kPaperSeedPool), 0, ref, tot);
        res.attempted += gridCells();
        res.failed += bad;
    } else if (opt.workload == "characterize") {
        const Reference ref =
            Reference::load(opt.referenceDir + "/characterize.tsv");
        for (int fold = 0; fold < 2; ++fold) {
            Tracer::Scope req(tr, "request", 0, Tracer::Cpu::Process);
            timed.push_back(req.id());
            std::deque<WorkloadState> ws = makeGridStates(0, fold == 1);
            characterizeGrid(tr, pool, req.id(), ws, counters);
            cacheRoundTrip(tr, pool, req.id(), ws, counters);
            addGolden(ws, tot);
            const uint64_t bad =
                runTrials(tr, pool, req.id(), ws, 0, fold, ref, tot);
            res.attempted += gridCells();
            res.failed += bad;
        }
    }
    res.correct = res.correct && res.failed == 0;

    // ---- per-layer metrics ------------------------------------------
    const std::map<Tracer::SpanId, double> self = tr.selfTimes();
    std::map<std::string, double> layerSelf;
    double covered_cpu = 0;
    for (const Tracer::Span &s : tr.finished()) {
        layerSelf[s.name] += self.at(s.id);
        if (!s.extra && std::find(timed.begin(), timed.end(), s.parent) !=
                            timed.end())
            covered_cpu += s.cpu;
    }
    auto secs = [&](const char *layer) { return layerSelf[layer]; };
    auto &m = res.metrics;
    m["workloads.input_s"] = {secs("workloads.input"), "s"};
    m["frontend.compile_s"] = {secs("frontend.compile"), "s"};
    m["frontend.ir_insts"] = {static_cast<double>(counters.irInsts),
                              "count"};
    m["core.harden_s"] = {secs("core.harden"), "s"};
    m["core.checks"] = {static_cast<double>(counters.checks), "count"};
    m["profile.profile_s"] = {secs("profile.profile"), "s"};
    m["interp.baseline_s"] = {secs("interp.baseline"), "s"};
    m["interp.golden_s"] = {tot.goldenSeconds, "s"};
    m["interp.golden_dyn_instrs"] = {static_cast<double>(tot.goldenDyn),
                                     "count"};
    m["interp.golden_minstr_per_s"] = {
        tot.goldenSeconds > 0
            ? static_cast<double>(tot.goldenDyn) / tot.goldenSeconds / 1e6
            : 0,
        "Minstr/s"};
    m["analysis.fault_space_s"] = {secs("analysis.fault_space"), "s"};
    m["fault.build_module_s"] = {secs("fault.build_module"), "s"};
    m["fault.characterize_s"] = {secs("fault.characterize"), "s"};
    m["fault.trials_s"] = {secs("fault.trials"), "s"};
    m["fault.trials_executed"] = {static_cast<double>(tot.executed),
                                  "count"};
    m["fault.ff_replay_instrs"] = {static_cast<double>(tot.ffReplay),
                                   "count"};
    m["fault.ff_restore_pages"] = {static_cast<double>(tot.ffRestorePages),
                                   "count"};
    m["fault.static_resolved_frac"] = {
        tot.trials ? 1.0 - static_cast<double>(tot.executed) /
                               static_cast<double>(tot.trials)
                   : 0,
        "ratio"};
    m["fault.snapshot_bytes"] = {static_cast<double>(tot.snapshotBytes),
                                 "bytes"};
    m["service.serialize_s"] = {secs("service.serialize"), "s"};
    m["service.bundle_bytes"] = {static_cast<double>(counters.bundleBytes),
                                 "bytes"};
    m["service.deserialize_s"] = {secs("service.deserialize"), "s"};
    m["service.cache_hit_ratio"] = {
        counters.loads ? static_cast<double>(counters.loadHits) /
                             static_cast<double>(counters.loads)
                       : 0,
        "ratio"};
    m["support.pool_utilization"] = {
        untraced.suiteWall > 0
            ? untraced.suiteCpu / (untraced.suiteWall * kThreads)
            : 0,
        "ratio"};
    m["trace.cpu_coverage"] = {
        untraced.cpu > 0 ? covered_cpu / untraced.cpu : 0, "ratio"};

    const std::string path =
        opt.outDir + "/spans_" + opt.workload + ".json";
    tr.writeChromeTrace(path);
    std::fprintf(stderr, "paperbench: %zu spans written to %s\n",
                 tr.finished().size(), path.c_str());
    return res;
}

} // namespace paperbench
