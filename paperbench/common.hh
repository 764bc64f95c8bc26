/**
 * @file
 * Shared definitions of the paper-grid benchmark: the grid every
 * workload runs over, the seed pools the references cover, the
 * per-cell statistics the reference check compares, and the result a
 * run prints.
 *
 * Defaults only: the benchmark sets what a campaign runs — workloads,
 * modes, trials, seeds, threads and the swapTrainTest fold — and never
 * how it runs (tier, sampling, placement,
 * checkpoints, lanes, shards, elision, budget). Those stay at the
 * library's CampaignConfig defaults, so a change of default is
 * measured by the benchmark without editing it.
 */

#ifndef PAPERBENCH_COMMON_HH
#define PAPERBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/suite.hh"

namespace paperbench
{

using softcheck::CampaignConfig;
using softcheck::CampaignResult;
using softcheck::HardeningMode;

/** Worker threads of every campaign scheduler the benchmark starts. */
constexpr unsigned kThreads = 4;
/** Trials per cell of paper_grid (the paper's protocol). */
constexpr unsigned kPaperTrials = 1000;
/** Campaign seeds the committed paper_grid reference covers:
 * 1..kPaperSeedPool. */
constexpr uint64_t kPaperSeedPool = 16;

/** The four hardening modes of the paper's grid, in grid order. */
const std::vector<HardeningMode> &gridModes();
/** The 13 registered workloads, in registry order. */
std::vector<std::string> gridWorkloads();
/** Library-default campaign config with only what-to-run fields set. */
CampaignConfig baseConfig(unsigned trials, bool swap_train_test);
/** The i-th campaign seed of a pool of @p pool seeds (1-based). */
uint64_t poolSeed(uint64_t index, uint64_t pool);

/** Deterministic statistics of one cell, in a fixed field order. */
enum CellField : unsigned
{
    kMasked,
    kASDC,
    kUSDC,
    kSWDetect,
    kHWDetect,
    kFailure,
    kUsdcLarge,
    kUsdcSmall,
    kGoldenDynInstrs,
    kGoldenCycles,
    kBaselineCycles,
    kCalibrationCheckFails,
    kDisabledChecks,
    kEqChecks,
    kValueChecks,
    kNumCellFields,
};
using CellStats = std::array<int64_t, kNumCellFields>;

extern const char *const kCellFieldNames[kNumCellFields];

/** Every field of a finished campaign cell. */
CellStats cellStats(const CampaignResult &r);

/** Identity of a cell in a reference: fold, campaign seed (0 when the
 * cell ran no trials), workload, mode. */
struct CellKey
{
    int fold = 0;
    uint64_t seed = 0;
    std::string workload;
    HardeningMode mode = HardeningMode::Original;

    bool operator<(const CellKey &o) const;
};

/** A committed per-cell reference (paperbench/reference/<name>.tsv). */
class Reference
{
  public:
    /** Load @p path; exits with a message when missing or malformed. */
    static Reference load(const std::string &path);

    void add(const CellKey &key, const CellStats &stats);
    void write(const std::string &path) const;

    /**
     * True when @p got matches the reference on every field. A missing
     * reference row is a mismatch. Mismatches are described on stderr.
     */
    bool matches(const CellKey &key, const CellStats &got) const;

  private:
    std::map<CellKey, CellStats> rows;
};

/** Mode name used in reference files. */
const char *modeToken(HardeningMode m);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Directory holding the committed references. */
    std::string referenceDir;
    /** Scratch directory for span files. */
    std::string outDir;
};

/** A printed metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What one run prints as its final JSON line. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
};

/** Untraced run of one workload: every end-to-end metric. */
RunResult measureWorkload(const Options &opt);
/** Traced run of one workload: every per-layer metric, plus the span
 * file written into opt.outDir. */
RunResult traceWorkload(const Options &opt);

// ---- small measurement helpers -------------------------------------------

double nowSeconds();
/** User + system CPU seconds of this process so far. */
double processCpuSeconds();
/** Return freed heap to the system and restart this process's
 * peak-resident-set count at its current resident set (Linux
 * clear_refs; a no-op where unsupported). */
void resetPeakRss();
/** Peak resident set of this process since the last resetPeakRss(),
 * in MiB. */
double peakRssMb();
double median(std::vector<double> v);

} // namespace paperbench

#endif // PAPERBENCH_COMMON_HH
