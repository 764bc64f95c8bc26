/**
 * @file
 * Untraced runs: the end-to-end metrics of each workload.
 *
 * Every workload is a closed loop with one caller: a pass issues its
 * requests one after another, each waiting for the last, and passes
 * repeat until the next one would overrun --seconds. Timings are the
 * medians over passes (wall_s, cpu_s) or requests (request_p50_s).
 *
 * request_p50_s is the median of each kind of request, averaged over
 * the kinds. characterize's two folds take different times, so the
 * median of their union would sit in the gap between them and jump
 * from run to run.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "common.hh"
#include "runners.hh"

namespace paperbench
{

namespace
{

/** Check every cell of a finished suite against @p ref; returns the
 * number of mismatching cells. */
uint64_t
checkSuite(const softcheck::SuiteResult &r, const Reference &ref, int fold,
           bool seeded)
{
    uint64_t bad = 0;
    for (std::size_t wi = 0; wi < r.config.workloads.size(); ++wi) {
        for (std::size_t mi = 0; mi < r.config.modes.size(); ++mi) {
            for (std::size_t si = 0; si < r.seeds.size(); ++si) {
                CellKey key{fold, seeded ? r.seeds[si] : 0,
                            r.config.workloads[wi], r.config.modes[mi]};
                if (!ref.matches(key, cellStats(r.cell(wi, mi, si))))
                    ++bad;
            }
        }
    }
    return bad;
}

/**
 * Set-up of the two cold-grid workloads: one cold trials=0 suite over
 * the 13 x 4 grid (fold 0), the fault-free characterization every
 * campaign pays before its first trial. Returns seconds; cells that
 * differ from @p ref are added to @p bad.
 */
double
characterizeFold0(const std::vector<std::string> &workloads,
                  const Reference &ref, uint64_t &bad)
{
    softcheck::SuiteConfig sc;
    sc.workloads = workloads;
    sc.modes = gridModes();
    sc.base = baseConfig(0, false);
    const double t0 = nowSeconds();
    const softcheck::SuiteResult r = softcheck::runCampaignSuite(sc);
    const double secs = nowSeconds() - t0;
    bad += checkSuite(r, ref, 0, false);
    return secs;
}

/** paper_grid: one cold 13 x 4 x 1000-trial suite per pass. */
class PaperGrid : public WorkloadRunner
{
  public:
    explicit PaperGrid(const Options &opt)
        : opt(opt),
          ref(Reference::load(opt.referenceDir + "/paper_grid.tsv")),
          setupRef(Reference::load(opt.referenceDir + "/characterize.tsv")),
          workloads(gridWorkloads())
    {
    }

    double
    setup() override
    {
        return characterizeFold0(workloads, setupRef, setupBad);
    }

    PassOutcome
    pass(unsigned i) override
    {
        softcheck::SuiteConfig sc;
        sc.workloads = workloads;
        sc.modes = gridModes();
        sc.seeds = {poolSeed(opt.seed + i, kPaperSeedPool)};
        sc.base = baseConfig(kPaperTrials, false);
        PassOutcome out;
        const double c0 = processCpuSeconds();
        const double t0 = nowSeconds();
        const softcheck::SuiteResult r = softcheck::runCampaignSuite(sc);
        out.wall = nowSeconds() - t0;
        out.cpu = processCpuSeconds() - c0;
        out.requests.push_back(out.wall);
        out.suiteCpu = r.cpuSeconds;
        out.suiteWall = r.wallSeconds;
        out.cells = r.cells.size();
        out.failed = checkSuite(r, ref, 0, true);
        out.correct = out.failed == 0 && setupBad == 0;
        return out;
    }

  private:
    const Options &opt;
    Reference ref;
    Reference setupRef;
    std::vector<std::string> workloads;
    uint64_t setupBad = 0; //!< set-up cells that missed the reference
};

/**
 * characterize: both cross-validation folds of the 13 x 4 grid with
 * trials = 0 per pass. The seed only permutes the workload order, anew
 * for each pass: the order moves the DAG's tail, and a run's median
 * over many orders does not hang on one lucky or unlucky order.
 */
class Characterize : public WorkloadRunner
{
  public:
    explicit Characterize(const Options &opt)
        : ref(Reference::load(opt.referenceDir + "/characterize.tsv")),
          workloads(gridWorkloads()), rng(opt.seed)
    {
        std::shuffle(workloads.begin(), workloads.end(), rng);
    }

    double
    setup() override
    {
        return characterizeFold0(workloads, ref, setupBad);
    }

    PassOutcome
    pass(unsigned) override
    {
        std::shuffle(workloads.begin(), workloads.end(), rng);
        PassOutcome out;
        const double c0 = processCpuSeconds();
        const double t0 = nowSeconds();
        for (int fold = 0; fold < 2; ++fold) {
            softcheck::SuiteConfig sc;
            sc.workloads = workloads;
            sc.modes = gridModes();
            sc.base = baseConfig(0, fold == 1);
            const double r0 = nowSeconds();
            const softcheck::SuiteResult r =
                softcheck::runCampaignSuite(sc);
            out.requests.push_back(nowSeconds() - r0);
            out.suiteCpu += r.cpuSeconds;
            out.suiteWall += r.wallSeconds;
            out.cells += r.cells.size();
            out.failed += checkSuite(r, ref, fold, false);
        }
        out.wall = nowSeconds() - t0;
        out.cpu = processCpuSeconds() - c0;
        out.correct = out.failed == 0 && setupBad == 0;
        return out;
    }

  private:
    Reference ref;
    std::vector<std::string> workloads;
    std::mt19937_64 rng;
    uint64_t setupBad = 0; //!< set-up cells that missed the reference
};

} // namespace

std::unique_ptr<WorkloadRunner>
makeRunner(const Options &opt)
{
    if (opt.workload == "paper_grid")
        return std::make_unique<PaperGrid>(opt);
    if (opt.workload == "characterize")
        return std::make_unique<Characterize>(opt);
    return nullptr;
}

RunResult
measureWorkload(const Options &opt)
{
    std::unique_ptr<WorkloadRunner> runner = makeRunner(opt);
    std::vector<double> setups;
    // Set-up repeats so its median is steady.
    constexpr unsigned kSetupRepeats = 5;
    for (unsigned k = 0; k < kSetupRepeats; ++k) {
        setups.push_back(runner->setup());
        std::fprintf(stderr, "paperbench: set-up %u %.6f s\n", k,
                     setups.back());
    }

    RunResult res;
    std::vector<double> walls, cpus, rss;
    /** Latencies of the j-th request of every pass. */
    std::vector<std::vector<double>> requests;
    std::size_t requestCount = 0;
    const double t0 = nowSeconds();
    for (unsigned i = 0;; ++i) {
        resetPeakRss();
        const PassOutcome p = runner->pass(i);
        rss.push_back(peakRssMb());
        std::fprintf(stderr, "paperbench: pass %u wall %.3f s cpu %.3f s "
                     "peak %.1f MB\n", i, p.wall, p.cpu, rss.back());
        walls.push_back(p.wall);
        cpus.push_back(p.cpu);
        requests.resize(p.requests.size());
        for (std::size_t j = 0; j < p.requests.size(); ++j)
            requests[j].push_back(p.requests[j]);
        requestCount += p.requests.size();
        res.attempted += p.cells;
        res.failed += p.failed;
        res.correct = res.correct && p.correct;
        // Stop before a pass that would overrun the run length.
        if (nowSeconds() - t0 + median(walls) > opt.seconds)
            break;
    }
    res.metrics["wall_s"] = {median(walls), "s"};
    res.metrics["cpu_s"] = {median(cpus), "s"};
    res.metrics["setup_s"] = {median(setups), "s"};
    res.metrics["peak_rss_mb"] = {median(rss), "MB"};
    double p50_sum = 0;
    for (const std::vector<double> &kind : requests)
        p50_sum += median(kind);
    res.metrics["request_p50_s"] = {
        p50_sum / static_cast<double>(requests.size()), "s"};
    std::fprintf(stderr,
                 "paperbench: %s seed=%llu passes=%zu requests=%zu\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), walls.size(),
                 requestCount);
    return res;
}

} // namespace paperbench
