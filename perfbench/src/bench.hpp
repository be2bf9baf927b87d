/// @file
/// Shared pieces of the end-to-end benchmark: run options, the result
/// a workload returns, the in-memory span recorder of the traced run,
/// and small statistics / host helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end);
double seconds_since(Clock::time_point begin);

/// Command-line options every workload receives.
struct Options
{
    std::string workload;
    /// Workload seed: drives the dataset generator and the request
    /// stream. The program's own walk / SGNS / classifier seeds are
    /// fixed in each workload's definition.
    std::uint64_t seed = 1;
    /// Length of the measured window, in seconds.
    double seconds = 10.0;
    /// false: untraced end-to-end run; true: traced run (per-layer
    /// metrics) interleaved with untraced repetitions.
    bool trace = false;
    /// Directory for files a run writes: the traced run's spans
    /// (spans-<workload>.json, Chrome trace JSON) and serve-mixed's
    /// reload artifact.
    std::string work_dir;
};

/// One named metric, printed with its unit.
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload reports: the operations it attempted, the ones whose
/// output checks failed, and the metrics of the requested mode.
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Human-readable description of every failed check.
    std::vector<std::string> problems;
    /// The mode's shared metrics: every workload reports each of them
    /// (kEndToEnd or kPerLayer in workloads.hpp), in the result line.
    std::vector<Metric> metrics;
    /// Figures only this workload measures, printed on an
    /// `{"extra": ...}` line before the result line.
    std::vector<Metric> extra;

    void add(std::string name, double value, std::string unit);
    void add_extra(std::string name, double value, std::string unit);
    /// Record a check; a false @p ok stores @p what as a problem.
    /// Returns @p ok.
    bool check(bool ok, const std::string& what);
    /// Count one attempted operation, failed when its checks recorded
    /// any problem since @p problems_before.
    void finish_operation(std::size_t problems_before);
    /// ok_frac: operations whose checks passed over those attempted.
    double ok_frac() const;
};

/// In-memory span recorder for the traced run. One span per call into
/// a layer's public entry point: name, start, end, parent span and run
/// id. Spans are written out once, at the end. Not thread-safe: each
/// thread records into its own Tracer and the owner absorbs them.
/// A disabled Tracer records nothing: begin() returns -1, end(-1) does
/// nothing and self_seconds(-1) is 0, so the same code runs untraced.
class Tracer
{
  public:
    explicit Tracer(bool enabled = true) : enabled_(enabled) {}

    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
        std::uint64_t run = 0;
    };

    /// Open a span now; returns its index for end() and as a parent.
    int begin(std::string name, int parent, std::uint64_t run);
    void end(int index);
    /// Record a span whose interval is already known.
    int record(std::string name, Clock::time_point start,
               Clock::time_point end, int parent, std::uint64_t run);
    /// Append @p other's spans. Their parent indices must refer to
    /// spans of this tracer (threads record children of spans the
    /// owner opened before starting them).
    void absorb(const Tracer& other);

    double seconds(int index) const;
    /// Span duration minus the time its direct children cover.
    /// Children of one span are sequential calls, so their durations
    /// add up without overlap.
    double self_seconds(int index) const;
    /// Self time of every span called @p name, in recording order.
    std::vector<double> self_seconds_of(const std::string& name) const;

    /// Chrome trace-event JSON (chrome://tracing, Perfetto).
    void write_chrome_json(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// CPU seconds (user + system, all threads) this process has used.
/// Unlike wall time it leaves out time a virtual machine's CPUs were
/// stolen by its host, which swings wall time from run to run.
double process_cpu_seconds();

/// Time the host stole from this virtual machine's CPUs (the steal
/// column of /proc/stat), in seconds per online CPU; 0 where the kernel
/// does not report it. Wall time minus its growth is the wall time the
/// run would have taken on CPUs of its own, and unlike CPU time it
/// still grows when work stops running in parallel.
double host_steal_seconds_per_cpu();

/// Times one piece of work from construction to read(): CPU seconds
/// of the process (all threads), wall seconds, and wall seconds minus
/// the host's steal per CPU over the same interval.
class Stopwatch
{
  public:
    struct Reading
    {
        double cpu = 0.0;
        double wall = 0.0;
        double own_wall = 0.0;
    };

    Stopwatch();
    Reading read() const;

  private:
    double cpu_;
    Clock::time_point wall_;
    double steal_;
};

/// CPUs this process may run on (sched_getaffinity, like `nproc`).
unsigned available_cpus();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// Fixed single-thread reference loop, timed in CPU seconds and wall
/// seconds. A change in `cpu` between runs is a change in the host's
/// core speed; `wall` also takes in time the host stole.
struct Calibration
{
    double cpu = 0.0;
    double wall = 0.0;
};
Calibration calibrate_host();

} // namespace perfbench
