/// @file
/// tgl_perfbench — the end-to-end benchmark's one command.
///
///   tgl_perfbench --workload <name> --seed <n> --seconds <s>
///                 --trace <0|1> --work-dir <dir>
///
/// Prints a `{"meta": ...}` line recording the host, build and pinned
/// team sizes, an `{"extra": ...}` line with the figures only this
/// workload measures, then, as the last line, one JSON object with the
/// keys correct, attempted, failed and metrics. --trace 0 reports the
/// end-to-end metrics; --trace 1 the per-layer ones from a traced run.
/// The metrics of the last line are the same for every workload.
#include "workloads.hpp"

#include "embed/kernels.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"lp-email",
         "link prediction end to end at the paper's operating point; "
         "word2vec and classifier training dominate, so SGNS and nn "
         "changes show here",
         4, "walk=4 sgns=4 default=4", run_lp_email},
        {"walk-wiki",
         "graph build plus the walk corpus on the wiki-talk stand-in "
         "at scale 0.4 with Fig. 4's budget; the walk is most of the timed "
         "work here but <=5% of any pipeline, and embed and nn do no "
         "work",
         4, "walk=4 default=4", run_walk_wiki},
        {"serve-mixed",
         "open-loop link-score, kNN and reload traffic on tgl_serve; "
         "the only workload for the serve layer, and nn small-batch "
         "inference",
         4, "setup_walk=4 setup_sgns=4 scorers=2 connections=2",
         run_serve_mixed},
    };
    return all;
}

void
add_walk_layer(Outcome& outcome, double build_s, double walk_s,
               double steps_per_s, const tgl::walk::WalkProfile& profile)
{
    const double steps = static_cast<double>(profile.steps_taken);
    outcome.add("graph.build_s", build_s, "s");
    outcome.add("walk.generate_s", walk_s, "s");
    outcome.add("walk.steps", steps, "count");
    outcome.add("walk.steps_per_s", steps_per_s, "1/s");
    outcome.add("walk.candidates_scanned",
                static_cast<double>(profile.candidates_scanned), "count");
    outcome.add("walk.kept_frac",
                static_cast<double>(profile.walks_kept) /
                    static_cast<double>(profile.walks_started),
                "1");
    outcome.add("walk.cached_frac",
                static_cast<double>(profile.cached_steps) / steps, "1");
    outcome.add("walk.batched_frac",
                static_cast<double>(profile.batched_steps) / steps, "1");
}

namespace {

[[noreturn]] void
usage(const std::string& problem)
{
    throw std::invalid_argument(
        problem +
        "\nusage: tgl_perfbench --workload <name> --seed <n> "
        "--seconds <s> --trace <0|1> --work-dir <dir>");
}

Options
parse(int argc, char** argv)
{
    Options options;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            usage(std::string("missing value for ") + argv[i]);
        }
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
            have[1] = true;
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
            have[2] = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usage("--trace expects 0 or 1");
            }
            options.trace = value == "1";
            have[3] = true;
        } else if (flag == "--work-dir") {
            options.work_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have[0] || !have[1] || !have[2] || !have[3] ||
        options.work_dir.empty()) {
        usage("every flag is required");
    }
    if (!(options.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return options;
}

std::string
number(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

/// `"name": {"value": v, "unit": u}, ...` of @p metrics; a non-finite
/// value is recorded as a problem.
std::string
metrics_json(const std::vector<Metric>& metrics,
             std::vector<std::string>& problems)
{
    std::string json;
    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            problems.push_back(m.name + " is not finite");
        }
        json += tgl::util::strcat(json.empty() ? "" : ", ", "\"", m.name,
                                  "\": {\"value\": ", number(m.value),
                                  ", \"unit\": \"", m.unit, "\"}");
    }
    return json;
}

/// Throws unless @p metrics are exactly the mode's shared metrics.
void
require_shared(const std::vector<Metric>& metrics, bool trace)
{
    const std::vector<const char*>& names = trace ? kPerLayer : kEndToEnd;
    std::vector<std::string> want(names.begin(), names.end());
    std::vector<std::string> got;
    for (const Metric& m : metrics) {
        got.push_back(m.name);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (got != want) {
        throw std::logic_error(
            "the workload reports other metrics than the shared set");
    }
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    try {
#ifndef NDEBUG
        throw std::runtime_error(
            "refusing to run: built without NDEBUG (use a Release build)");
#endif
        const Options options = parse(argc, argv);
        const Workload* workload = nullptr;
        for (const Workload& w : workloads()) {
            if (options.workload == w.name) {
                workload = &w;
            }
        }
        if (workload == nullptr) {
            usage("unknown workload " + options.workload);
        }
        const unsigned cpus = available_cpus();
        if (workload->busy_threads > cpus) {
            throw std::runtime_error(tgl::util::strcat(
                "refusing to run: ", options.workload, " pins ",
                workload->busy_threads, " busy threads but only ", cpus,
                " CPUs are available"));
        }
        std::filesystem::create_directories(options.work_dir);
        tgl::util::set_log_level(tgl::util::LogLevel::kWarn);

        const Calibration calib_start = calibrate_host();
        Outcome outcome = workload->run(options);
        const Calibration calib_end = calibrate_host();
        const double calib = (calib_start.cpu + calib_end.cpu) / 2;
        if (options.trace) {
            outcome.add("host.calib_s", calib, "s");
        }

        std::printf(
            "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, "
            "\"seconds\": %s, \"trace\": %d, \"nproc\": %u, "
            "\"pinned\": \"%s\", \"host\": \"%s\", \"isa\": \"%s\", "
            "\"build\": \"%s\", \"calib_cpu_s\": [%s, %s], "
            "\"calib_wall_s\": [%s, %s], \"host.calib_s\": %s, "
            "\"why\": \"%s\"}}\n",
            workload->name,
            static_cast<unsigned long long>(options.seed),
            number(options.seconds).c_str(), options.trace ? 1 : 0, cpus,
            workload->pinned,
            tgl::util::json_escape(tgl::util::host_summary()).c_str(),
            tgl::embed::kernels::simd_sgns_isa(),
            tgl::util::json_escape(PERFBENCH_BUILD_FLAGS).c_str(),
            number(calib_start.cpu).c_str(), number(calib_end.cpu).c_str(),
            number(calib_start.wall).c_str(), number(calib_end.wall).c_str(),
            number(calib).c_str(), tgl::util::json_escape(workload->why).c_str());
        require_shared(outcome.metrics, options.trace);
        const std::string metrics =
            metrics_json(outcome.metrics, outcome.problems);
        const std::string extra = metrics_json(outcome.extra, outcome.problems);
        for (const std::string& problem : outcome.problems) {
            std::fprintf(stderr, "check failed: %s\n", problem.c_str());
        }
        std::printf("{\"extra\": {%s}}\n", extra.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {%s}}\n",
                    outcome.problems.empty() ? "true" : "false",
                    static_cast<unsigned long long>(outcome.attempted),
                    static_cast<unsigned long long>(outcome.failed),
                    metrics.c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "tgl_perfbench: %s\n", error.what());
        return 1;
    }
}
