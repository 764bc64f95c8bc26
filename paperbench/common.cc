#include "common.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

#include "workloads/workload.hh"

namespace paperbench
{

const std::vector<HardeningMode> &
gridModes()
{
    static const std::vector<HardeningMode> modes = {
        HardeningMode::Original, HardeningMode::DupOnly,
        HardeningMode::DupValChks, HardeningMode::FullDup};
    return modes;
}

std::vector<std::string>
gridWorkloads()
{
    std::vector<std::string> names;
    for (const softcheck::Workload *w : softcheck::allWorkloads())
        names.push_back(w->name);
    return names;
}

CampaignConfig
baseConfig(unsigned trials, bool swap_train_test)
{
    CampaignConfig c;
    c.trials = trials;
    c.threads = kThreads;
    c.swapTrainTest = swap_train_test;
    return c;
}

uint64_t
poolSeed(uint64_t index, uint64_t pool)
{
    return 1 + index % pool;
}

const char *const kCellFieldNames[kNumCellFields] = {
    "masked",          "asdc",
    "usdc",            "swdetect",
    "hwdetect",        "failure",
    "usdc_large",      "usdc_small",
    "golden_dyn",      "golden_cycles",
    "baseline_cycles", "calibration_fails",
    "disabled_checks", "eq_checks",
    "value_checks",
};

CellStats
cellStats(const CampaignResult &r)
{
    CellStats s{};
    for (unsigned o = 0; o < softcheck::kNumOutcomes; ++o)
        s[kMasked + o] = static_cast<int64_t>(r.counts[o]);
    s[kUsdcLarge] = static_cast<int64_t>(r.usdcLargeChange);
    s[kUsdcSmall] = static_cast<int64_t>(r.usdcSmallChange);
    s[kGoldenDynInstrs] = static_cast<int64_t>(r.goldenDynInstrs);
    s[kGoldenCycles] = static_cast<int64_t>(r.goldenCycles);
    s[kBaselineCycles] = static_cast<int64_t>(r.baselineCycles);
    s[kCalibrationCheckFails] =
        static_cast<int64_t>(r.calibrationCheckFails);
    s[kDisabledChecks] = r.disabledCheckCount;
    s[kEqChecks] = r.report.eqChecks;
    s[kValueChecks] = r.report.valueChecks;
    return s;
}

bool
CellKey::operator<(const CellKey &o) const
{
    return std::tie(fold, seed, workload, mode) <
           std::tie(o.fold, o.seed, o.workload, o.mode);
}

const char *
modeToken(HardeningMode m)
{
    switch (m) {
    case HardeningMode::Original:
        return "original";
    case HardeningMode::DupOnly:
        return "duponly";
    case HardeningMode::DupValChks:
        return "dupvalchks";
    case HardeningMode::FullDup:
        return "fulldup";
    }
    return "?";
}

namespace
{

[[noreturn]] void
referenceError(const std::string &path, const std::string &what)
{
    std::fprintf(stderr, "paperbench: reference %s: %s\n", path.c_str(),
                 what.c_str());
    std::exit(2);
}

} // namespace

Reference
Reference::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        referenceError(path, "cannot open");
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        CellKey key;
        std::string mode;
        is >> key.fold >> key.seed >> key.workload >> mode;
        bool mode_ok = false;
        for (const HardeningMode m : gridModes()) {
            if (mode == modeToken(m)) {
                key.mode = m;
                mode_ok = true;
            }
        }
        CellStats s{};
        for (int64_t &v : s)
            is >> v;
        if (!is || !mode_ok)
            referenceError(path, "malformed row '" + line + "'");
        ref.rows[key] = s;
    }
    if (ref.rows.empty())
        referenceError(path, "no rows");
    return ref;
}

void
Reference::add(const CellKey &key, const CellStats &stats)
{
    rows[key] = stats;
}

void
Reference::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        referenceError(path, "cannot write");
    out << "# fold seed workload mode";
    for (const char *name : kCellFieldNames)
        out << ' ' << name;
    out << '\n';
    for (const auto &[key, s] : rows) {
        out << key.fold << ' ' << key.seed << ' ' << key.workload << ' '
            << modeToken(key.mode);
        for (const int64_t v : s)
            out << ' ' << v;
        out << '\n';
    }
}

bool
Reference::matches(const CellKey &key, const CellStats &got) const
{
    const auto it = rows.find(key);
    if (it == rows.end()) {
        std::fprintf(stderr,
                     "paperbench: no reference for fold=%d seed=%llu "
                     "%s/%s\n",
                     key.fold, static_cast<unsigned long long>(key.seed),
                     key.workload.c_str(), modeToken(key.mode));
        return false;
    }
    bool ok = true;
    for (unsigned f = 0; f < kNumCellFields; ++f) {
        if (got[f] == it->second[f])
            continue;
        std::fprintf(stderr,
                     "paperbench: MISMATCH fold=%d seed=%llu %s/%s %s: "
                     "got %lld, reference %lld\n",
                     key.fold, static_cast<unsigned long long>(key.seed),
                     key.workload.c_str(), modeToken(key.mode),
                     kCellFieldNames[f], static_cast<long long>(got[f]),
                     static_cast<long long>(it->second[f]));
        ok = false;
    }
    return ok;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void
resetPeakRss()
{
    // Hand freed heap back first, so a pass's peak does not depend on
    // what earlier passes left in the allocator's free lists.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace paperbench
