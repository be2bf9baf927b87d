/// @file
/// The benchmark's workloads. Each one pins every team size it uses
/// (never `auto` or 0) and fixes the program's own seeds; only the
/// workload seed in Options varies the inputs. Why each workload exists
/// is recorded in perfbench/README.md and repeated in `why` below.
#pragma once

#include "bench.hpp"

#include "walk/engine.hpp"

#include <string>
#include <vector>

namespace perfbench {

struct Workload
{
    const char* name;
    const char* why;
    /// Largest number of threads the workload keeps busy at once; the
    /// benchmark refuses to run when it exceeds the available CPUs.
    unsigned busy_threads;
    /// Every pinned team size, as "role=count" pairs for the record.
    const char* pinned;
    Outcome (*run)(const Options& options);
};

Outcome run_lp_email(const Options& options);
Outcome run_walk_wiki(const Options& options);
Outcome run_serve_mixed(const Options& options);

const std::vector<Workload>& workloads();

/// The metrics every workload reports, by mode. Each is measured on
/// every workload, for that workload's unit of work: one pipeline run
/// (lp-email), one build + walk (walk-wiki), one read request
/// (serve-mixed). Anything else a workload measures goes to
/// Outcome::extra. BENCHMARK.json lists the same names.
inline const std::vector<const char*> kEndToEnd = {
    "setup_s", "cpu_s", "latency_ms", "peak_rss_mb", "ok_frac"};
inline const std::vector<const char*> kPerLayer = {
    "gen.dataset_s",       "graph.build_s",
    "walk.generate_s",     "walk.steps",
    "walk.steps_per_s",    "walk.candidates_scanned",
    "walk.kept_frac",      "walk.cached_frac",
    "walk.batched_frac",   "host.calib_s",
    "trace.overhead_frac"};

/// Add the shared per-layer metrics of graph build and walk: the median
/// self times @p build_s and @p walk_s of their spans, the median rate
/// @p steps_per_s, and the work of one walk, @p profile.
void add_walk_layer(Outcome& outcome, double build_s, double walk_s,
                    double steps_per_s,
                    const tgl::walk::WalkProfile& profile);

/// Run the set-up step @p set_up(rep) for rep = 0, 1, ... at least 3
/// times and until it has used 1 CPU second in all; returns the CPU
/// seconds of each repetition (setup_s is their median). Repetition
/// keeps a cheap set-up's median steady.
template <typename SetUp>
std::vector<double>
repeat_setup(SetUp&& set_up)
{
    std::vector<double> seconds;
    double total = 0.0;
    while (seconds.size() < 3 || total < 1.0) {
        const double begin = process_cpu_seconds();
        set_up(seconds.size());
        seconds.push_back(process_cpu_seconds() - begin);
        total += seconds.back();
    }
    return seconds;
}

} // namespace perfbench
