/**
 * @file
 * paperbench: the SoftCheck benchmark binary (driven by run.py).
 *
 *   paperbench --workload <paper_grid|characterize>
 *              --seed <n> --seconds <s> --trace <0|1>
 *              --reference-dir <dir> --out-dir <dir>
 *   paperbench --make-reference <workload> --reference-dir <dir>
 *
 * A run prints one JSON object as its last stdout line: whether every
 * cell matched the committed reference, operations attempted and
 * failed, and the end-to-end (--trace 0) or per-layer (--trace 1)
 * metrics. --make-reference regenerates a reference from the library
 * defaults.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.hh"

extern char **environ;

namespace paperbench
{

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "paperbench: %s\n"
                 "usage: paperbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --reference-dir <dir> "
                 "--out-dir <dir>\n"
                 "       paperbench --make-reference <name> "
                 "--reference-dir <dir>\n",
                 why);
    std::exit(2);
}

/**
 * SOFTCHECK_* variables are test and bench hooks that change what a
 * campaign does (static-mask validation, shard kills, tier/sampling
 * overrides); a measurement taken under one is not the library's.
 */
void
refuseEnvironmentHooks()
{
    bool found = false;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "SOFTCHECK_", 10) == 0) {
            std::fprintf(stderr,
                         "paperbench: refusing to run with %s set\n", *e);
            found = true;
        }
    }
    if (found)
        std::exit(2);
}

void
makeReference(const std::string &workload, const std::string &dir)
{
    Reference ref;
    auto add_suite = [&ref](softcheck::SuiteConfig sc, int fold) {
        sc.workloads = gridWorkloads();
        sc.modes = gridModes();
        const softcheck::SuiteResult r = softcheck::runCampaignSuite(sc);
        for (std::size_t wi = 0; wi < sc.workloads.size(); ++wi)
            for (std::size_t mi = 0; mi < sc.modes.size(); ++mi)
                for (std::size_t si = 0; si < r.seeds.size(); ++si)
                    ref.add(CellKey{fold,
                                    sc.base.trials ? r.seeds[si] : 0,
                                    sc.workloads[wi], sc.modes[mi]},
                            cellStats(r.cell(wi, mi, si)));
    };
    auto seeded = [](unsigned trials, uint64_t pool) {
        softcheck::SuiteConfig sc;
        sc.base = baseConfig(trials, false);
        for (uint64_t i = 0; i < pool; ++i)
            sc.seeds.push_back(poolSeed(i, pool));
        return sc;
    };
    if (workload == "paper_grid") {
        add_suite(seeded(kPaperTrials, kPaperSeedPool), 0);
    } else if (workload == "characterize") {
        for (int fold = 0; fold < 2; ++fold) {
            softcheck::SuiteConfig sc;
            sc.base = baseConfig(0, fold == 1);
            add_suite(sc, fold);
        }
    } else {
        usage("unknown workload");
    }
    ref.write(dir + "/" + workload + ".tsv");
}

void
printResult(const RunResult &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const char *sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
run(int argc, char **argv)
{
    refuseEnvironmentHooks();
    Options opt;
    std::string make_ref;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::stoull(v);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::stod(v);
        } else if (a == "--trace") {
            opt.trace = v == "1";
        } else if (a == "--reference-dir") {
            opt.referenceDir = v;
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else if (a == "--make-reference") {
            make_ref = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (opt.referenceDir.empty())
        usage("--reference-dir is required");
    if (!make_ref.empty()) {
        makeReference(make_ref, opt.referenceDir);
        return 0;
    }
    if (opt.workload != "paper_grid" && opt.workload != "characterize")
        usage("unknown or missing --workload");
    if (!have_seed || opt.outDir.empty())
        usage("--seed and --out-dir are required");
    std::filesystem::create_directories(opt.outDir);

    printResult(opt.trace ? traceWorkload(opt) : measureWorkload(opt));
    return 0;
}

} // namespace

} // namespace paperbench

int
main(int argc, char **argv)
{
    try {
        return paperbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "paperbench: %s\n", e.what());
        return 1;
    }
}
