/**
 * @file
 * The untraced workload runners, shared by the measured run and by the
 * traced run's untraced reference pass.
 */

#ifndef PAPERBENCH_RUNNERS_HH
#define PAPERBENCH_RUNNERS_HH

#include <memory>
#include <string>
#include <vector>

#include "common.hh"

namespace paperbench
{

/** One timed pass of a workload. */
struct PassOutcome
{
    double wall = 0; //!< seconds
    double cpu = 0;  //!< process user+sys seconds
    /** Latency of each request the pass issued, in order. Every pass
     * of a workload issues the same kinds of request in the same order
     * (one per fold on characterize). */
    std::vector<double> requests;
    /** The suites' own CPU and wall accounting (SuiteResult cpuSeconds
     * and wallSeconds, summed over the pass's requests). */
    double suiteCpu = 0;
    double suiteWall = 0;
    uint64_t cells = 0;  //!< operations attempted
    uint64_t failed = 0; //!< operations failed
    bool correct = true; //!< every checked cell matched the reference
};

class WorkloadRunner
{
  public:
    virtual ~WorkloadRunner() = default;
    /** Prepare a pass; may be called repeatedly. Returns seconds. */
    virtual double setup() = 0;
    /** Run pass @p i (after at least one setup()). */
    virtual PassOutcome pass(unsigned i) = 0;
};

/** The runner of opt.workload, or null for an unknown name. */
std::unique_ptr<WorkloadRunner> makeRunner(const Options &opt);

} // namespace paperbench

#endif // PAPERBENCH_RUNNERS_HH
