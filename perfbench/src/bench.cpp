#include "bench.hpp"

#include "util/string_util.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double
seconds_between(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

double
seconds_since(Clock::time_point begin)
{
    return seconds_between(begin, Clock::now());
}

void
Outcome::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Outcome::add_extra(std::string name, double value, std::string unit)
{
    extra.push_back({std::move(name), value, std::move(unit)});
}

bool
Outcome::check(bool ok, const std::string& what)
{
    if (!ok) {
        problems.push_back(what);
    }
    return ok;
}

void
Outcome::finish_operation(std::size_t problems_before)
{
    ++attempted;
    if (problems.size() > problems_before) {
        ++failed;
    }
}

double
Outcome::ok_frac() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
}

int
Tracer::begin(std::string name, int parent, std::uint64_t run)
{
    if (!enabled_) {
        return -1;
    }
    const Clock::time_point now = Clock::now();
    return record(std::move(name), now, now, parent, run);
}

void
Tracer::end(int index)
{
    if (index < 0) {
        return;
    }
    spans_.at(static_cast<std::size_t>(index)).end = Clock::now();
}

int
Tracer::record(std::string name, Clock::time_point start,
               Clock::time_point end, int parent, std::uint64_t run)
{
    if (!enabled_) {
        return -1;
    }
    spans_.push_back({std::move(name), start, end, parent, run});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::absorb(const Tracer& other)
{
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

double
Tracer::seconds(int index) const
{
    const Span& span = spans_.at(static_cast<std::size_t>(index));
    return seconds_between(span.start, span.end);
}

double
Tracer::self_seconds(int index) const
{
    if (index < 0) {
        return 0.0;
    }
    double self = seconds(index);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent == index) {
            self -= seconds(static_cast<int>(i));
        }
    }
    return self;
}

std::vector<double>
Tracer::self_seconds_of(const std::string& name) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) {
            out.push_back(self_seconds(static_cast<int>(i)));
        }
    }
    return out;
}

void
Tracer::write_chrome_json(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write spans to " + path);
    }
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << "  {\"name\": \"" << tgl::util::json_escape(span.name)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.run
            << ", \"ts\": " << seconds_between(origin, span.start) * 1e6
            << ", \"dur\": " << seconds_between(span.start, span.end) * 1e6
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << span.parent << ", \"run\": " << span.run << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out.flush()) {
        throw std::runtime_error("failed writing spans to " + path);
    }
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return std::nan("");
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double frac = position - static_cast<double>(lower);
    return values[lower] + frac * (values[upper] - values[lower]);
}

namespace {

double
cpu_clock_seconds(clockid_t clock)
{
    timespec now{};
    clock_gettime(clock, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

} // namespace

double
process_cpu_seconds()
{
    return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
host_steal_seconds_per_cpu()
{
    // First line: "cpu user nice system idle iowait irq softirq steal".
    std::ifstream stat("/proc/stat");
    std::string label;
    double ticks[8] = {};
    if (!(stat >> label) || label != "cpu") {
        return 0.0;
    }
    for (double& t : ticks) {
        if (!(stat >> t)) {
            return 0.0;
        }
    }
    const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
    const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    return hz > 0.0 && cpus > 0.0 ? ticks[7] / hz / cpus : 0.0;
}

Stopwatch::Stopwatch()
    : cpu_(process_cpu_seconds()), wall_(Clock::now()),
      steal_(host_steal_seconds_per_cpu())
{
}

Stopwatch::Reading
Stopwatch::read() const
{
    const double wall = seconds_since(wall_);
    const double cpu = process_cpu_seconds() - cpu_;
    const double stolen = host_steal_seconds_per_cpu() - steal_;
    return {cpu, wall, wall - stolen};
}

unsigned
available_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
        return 1;
    }
    return static_cast<unsigned>(CPU_COUNT(&set));
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Calibration
calibrate_host()
{
    // Integer hashing plus a dependent floating-point chain over a
    // 64 KiB table: fixed work that touches the core and its L1/L2,
    // never memory bandwidth or other threads.
    std::vector<std::uint32_t> table(16384);
    for (std::size_t i = 0; i < table.size(); ++i) {
        table[i] = static_cast<std::uint32_t>(i * 2654435761U);
    }
    const double cpu_begin = cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
    const Clock::time_point begin = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 30'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999999 + table[x & 16383] * 1e-9;
    }
    const Calibration timed{
        cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu_begin,
        seconds_since(begin)};
    // Keep the loop observable so it cannot be folded away.
    volatile double sink = acc + static_cast<double>(x & 1);
    (void)sink;
    return timed;
}

} // namespace perfbench
