/// @file
/// serve-mixed: an in-process tgl_serve under open-loop load from one
/// process at one fixed rate, well below capacity. The mix is
/// link-score requests (classifier forward over coalesced batches),
/// kNN requests (snapshot scan) and a periodic hot reload, a write
/// beside the reads. The unit of work is one request: cpu_s is the
/// process's CPU time per request sent and latency_ms the median
/// service time of the reads (send to response), which leaves out the
/// backlog behind the host's stalls. Each request is also timed from
/// the moment it was due, so a stall charges the requests queued
/// behind it; slo_frac and the due-time percentiles use that.
#include "workloads.hpp"

#include "embed/trainer.hpp"
#include "gen/catalog.hpp"
#include "graph/builder.hpp"
#include "nn/mlp.hpp"
#include "rng/random.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/parallel_for.hpp"
#include "walk/engine.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

using namespace tgl;

constexpr unsigned kSetupThreads = 4; ///< walk + SGNS team, before serving
constexpr unsigned kScorers = 2;
/// Generator connections; scorers + connections stay within 4 CPUs.
constexpr unsigned kConnections = 2;
static_assert(kScorers + kConnections <= kSetupThreads,
              "serving must not use more threads than the workload pins");
constexpr double kScale = 0.23; ///< ia-email stand-in, ~20k nodes
constexpr double kRate = 2000.0; ///< requests per second
/// Request shape. kNN share: that of the load prototype the rate was
/// chosen on (10%). Pairs per link-score request: bench/micro_serve's
/// 16. k: the default of `tgl_cli neighbors --k`. The reload period has
/// no source in the repository; once a second puts a full snapshot
/// swap, with the old snapshot retired under load, into every few
/// thousand reads.
constexpr double kKnnShare = 0.10;
constexpr std::size_t kPairsPerLink = 16;
constexpr unsigned kKnnK = 10;
constexpr double kReloadPeriodSeconds = 1.0;
/// Latency limit of slo_frac, from the due time: an interactive budget
/// above the host's scheduling tail on a busy shared machine (due-time
/// p99 30-65 ms over ten seeds), so the metric counts failures,
/// overload and long stalls, not wake-up noise.
constexpr double kSloMs = 50.0;
/// Latency limit of fast_frac, from the send time: about 8x the quiet
/// service p50 (0.13 ms) and 3x kNN's. The tightest limit whose share
/// stayed steady over ten seeds; any added per-request wait near 1 ms
/// moves it.
constexpr double kFastMs = 1.0;
constexpr double kWarmupSeconds = 0.5;
/// Every this-many-th link / kNN request is re-checked locally.
constexpr std::size_t kLinkCheckEvery = 16;
constexpr std::size_t kKnnCheckEvery = 4;

enum class Kind : std::uint8_t
{
    kLink,
    kKnn,
    kReload,
};

struct Request
{
    double due = 0.0; ///< seconds after the window starts
    Kind kind = Kind::kLink;
    std::uint32_t node = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
};

struct Answer
{
    double latency_ms = 0.0; ///< response time minus due time
    double late_ms = 0.0;    ///< send time minus due time
    bool ok = false;
    std::vector<float> scores;                          ///< sampled links
    std::vector<std::pair<std::uint32_t, float>> knn;   ///< sampled kNN
    std::uint64_t epoch = 0;                            ///< reloads
};

nn::Mlp
make_classifier(unsigned dim)
{
    // Untrained, fixed weights: request latency does not depend on
    // what the classifier learned.
    rng::Random random(17);
    return nn::make_link_predictor(2 * std::size_t{dim}, 16, random);
}

/// The server, its inputs and the generator's connections.
struct Live
{
    embed::Embedding embedding;
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::Client>> clients;
    double dataset_seconds = 0.0;
    walk::WalkProfile walk_profile;
    embed::TrainStats sgns_stats;
};

/// Make the snapshot and start the server. @p tracer (disabled when the
/// run is untraced) gets one span per layer call under a root span.
Live
set_up(std::uint64_t seed, const std::string& reload_path, Outcome& outcome,
       Tracer& tracer, std::uint64_t run)
{
    Live live;
    const double begin = process_cpu_seconds();
    const gen::Dataset dataset = gen::make_dataset("ia-email", kScale, seed);
    live.dataset_seconds = process_cpu_seconds() - begin;

    // A short SGNS run: serving cost does not depend on training length.
    const int root = tracer.begin("serve-mixed.setup", -1, run);
    int span = tracer.begin("graph.build", root, run);
    const graph::TemporalGraph graph =
        graph::GraphBuilder::build(dataset.edges, {.symmetrize = true});
    tracer.end(span);
    walk::WalkConfig walk_config;
    walk_config.walks_per_node = 10;
    walk_config.max_length = 6;
    walk_config.num_threads = kSetupThreads;
    embed::SgnsConfig sgns;
    sgns.dim = 8;
    sgns.epochs = 1;
    sgns.num_threads = kSetupThreads;
    span = tracer.begin("walk.generate_walks", root, run);
    const walk::Corpus corpus =
        walk::generate_walks(graph, walk_config, &live.walk_profile);
    tracer.end(span);
    span = tracer.begin("embed.train_sgns", root, run);
    live.embedding = embed::train_sgns(corpus, graph.num_nodes(), sgns,
                                       &live.sgns_stats);
    tracer.end(span);
    tracer.end(root);
    live.embedding.save_binary_file(reload_path);

    serve::ServeConfig config;
    config.scorer_threads = kScorers;
    const unsigned dim = live.embedding.dim();
    live.server = std::make_unique<serve::Server>(
        config,
        serve::EmbeddingSnapshot::build(live.embedding,
                                        serve::QuantMode::kFp32, 1, 0),
        [dim] { return make_classifier(dim); });
    live.server->start();
    for (unsigned c = 0; c < kConnections; ++c) {
        live.clients.push_back(std::make_unique<serve::Client>(
            "127.0.0.1", live.server->port()));
        const serve::PingInfo ping = live.clients.back()->ping();
        outcome.check(ping.num_nodes == live.embedding.num_nodes() &&
                          ping.dim == dim,
                      "ping reports the wrong snapshot shape");
    }
    return live;
}

/// The request stream of one window, drawn from the workload seed.
std::vector<Request>
make_schedule(double seconds, std::uint32_t num_nodes, std::uint64_t seed)
{
    rng::Random random(seed);
    const auto count = static_cast<std::size_t>(seconds * kRate);
    std::vector<Request> requests(count);
    double next_reload = kReloadPeriodSeconds / 2;
    for (std::size_t i = 0; i < count; ++i) {
        Request& r = requests[i];
        r.due = static_cast<double>(i) / kRate;
        if (r.due >= next_reload) {
            r.kind = Kind::kReload;
            next_reload += kReloadPeriodSeconds;
        } else if (random.next_bernoulli(kKnnShare)) {
            r.kind = Kind::kKnn;
            r.node = static_cast<std::uint32_t>(random.next_index(num_nodes));
        } else {
            for (std::size_t p = 0; p < kPairsPerLink; ++p) {
                r.pairs.emplace_back(
                    static_cast<std::uint32_t>(random.next_index(num_nodes)),
                    static_cast<std::uint32_t>(random.next_index(num_nodes)));
            }
        }
    }
    return requests;
}

const char*
span_name(Kind kind)
{
    switch (kind) {
    case Kind::kLink:
        return "serve.link_scores";
    case Kind::kKnn:
        return "serve.knn";
    case Kind::kReload:
        return "serve.reload";
    }
    return "serve.request";
}

/// Send @p requests open loop: connection c sends requests c, c + C,
/// ... each at its due time, or at once when it is already late.
std::vector<Answer>
run_window(Live& live, const std::vector<Request>& requests,
           const std::string& reload_path, Tracer* tracer, int parent)
{
    std::vector<Answer> answers(requests.size());
    std::vector<Tracer> spans(kConnections);
    const std::uint16_t port = live.server->port();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            // Minimum timer slack: send at the due time, not up to the
            // default 50 us after it.
            prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            std::unique_ptr<serve::Client>& client = live.clients[c];
            for (std::size_t i = c; i < requests.size(); i += kConnections) {
                const Request& r = requests[i];
                Answer& a = answers[i];
                const Clock::time_point due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(r.due));
                std::this_thread::sleep_until(due);
                const Clock::time_point sent = Clock::now();
                try {
                    if (r.kind == Kind::kLink) {
                        auto scores = client->link_scores(r.pairs);
                        a.ok = scores.size() == r.pairs.size();
                        if (i % kLinkCheckEvery == 0) {
                            a.scores = std::move(scores);
                        }
                    } else if (r.kind == Kind::kKnn) {
                        auto knn = client->knn(r.node, kKnnK);
                        a.ok = true;
                        if (i % kKnnCheckEvery == 0) {
                            a.knn = std::move(knn);
                        }
                    } else {
                        a.epoch = client->reload(reload_path);
                        a.ok = true;
                    }
                } catch (const std::exception&) {
                    a.ok = false;
                    try {
                        client = std::make_unique<serve::Client>(
                            "127.0.0.1", port);
                    } catch (const std::exception&) {
                        // The next request fails too and is counted.
                    }
                }
                const Clock::time_point done = Clock::now();
                a.latency_ms = seconds_between(due, done) * 1e3;
                a.late_ms = seconds_between(due, sent) * 1e3;
                if (tracer != nullptr) {
                    spans[c].record(span_name(r.kind), sent, done, parent,
                                    i + 1);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    if (tracer != nullptr) {
        for (const Tracer& t : spans) {
            tracer->absorb(t);
        }
    }
    return answers;
}

/// Re-check sampled answers: link scores against a local replica
/// forward on the same embedding, kNN against a brute-force cosine scan
/// that excludes the query node, and reload epochs strictly rising.
void
check_window(Outcome& outcome, const Live& live,
             const std::vector<Request>& requests,
             const std::vector<Answer>& answers, std::uint64_t& epoch)
{
    const embed::Embedding& emb = live.embedding;
    const unsigned dim = emb.dim();
    nn::Mlp replica = make_classifier(dim);
    const auto cosine = [&](std::uint32_t u, std::uint32_t v) {
        double dot = 0.0;
        double nu = 0.0;
        double nv = 0.0;
        for (unsigned j = 0; j < dim; ++j) {
            const double a = emb.row(u)[j];
            const double b = emb.row(v)[j];
            dot += a * b;
            nu += a * a;
            nv += b * b;
        }
        return nu > 0.0 && nv > 0.0 ? dot / std::sqrt(nu * nv) : 0.0;
    };

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& r = requests[i];
        const Answer& a = answers[i];
        const std::size_t before = outcome.problems.size();
        outcome.check(a.ok, "request failed");
        if (a.ok && r.kind == Kind::kLink && !a.scores.empty()) {
            nn::Tensor features(r.pairs.size(), 2 * std::size_t{dim});
            for (std::size_t p = 0; p < r.pairs.size(); ++p) {
                std::copy_n(emb.row(r.pairs[p].first).data(), dim,
                            features.row(p).data());
                std::copy_n(emb.row(r.pairs[p].second).data(), dim,
                            features.row(p).data() + dim);
            }
            const nn::Tensor& expected = replica.forward(features);
            for (std::size_t p = 0; p < r.pairs.size(); ++p) {
                outcome.check(std::fabs(expected(p, 0) - a.scores[p]) <= 1e-5f,
                              "served link score differs from the replica");
            }
        } else if (a.ok && r.kind == Kind::kKnn && !a.knn.empty()) {
            std::vector<double> all;
            for (std::uint32_t v = 0; v < emb.num_nodes(); ++v) {
                if (v != r.node) {
                    all.push_back(cosine(r.node, v));
                }
            }
            const std::size_t k = std::min<std::size_t>(kKnnK, all.size());
            std::nth_element(all.begin(), all.begin() + (k - 1), all.end(),
                             std::greater<>());
            const double kth = all[k - 1];
            bool match = a.knn.size() == k;
            for (std::size_t j = 0; match && j < a.knn.size(); ++j) {
                const auto [v, score] = a.knn[j];
                const double truth = cosine(r.node, v);
                match = v != r.node && v < emb.num_nodes() &&
                        std::fabs(truth - static_cast<double>(score)) <= 1e-4 &&
                        truth >= kth - 1e-4 &&
                        (j == 0 || a.knn[j - 1].second >= score - 1e-6f);
            }
            outcome.check(match, "kNN differs from a brute-force scan");
        } else if (a.ok && r.kind == Kind::kReload) {
            outcome.check(a.epoch > epoch, "reload did not bump the epoch");
            epoch = std::max(epoch, a.epoch);
        }
        outcome.finish_operation(before);
    }
}

/// One histogram of the kStats registry JSON.
struct Histogram
{
    std::vector<double> bounds;
    std::vector<double> counts;
    double count = 0.0;
    double sum = 0.0;
};

std::vector<double>
parse_array(const std::string& line, const std::string& key)
{
    std::vector<double> out;
    const std::size_t at = line.find("\"" + key + "\": [");
    if (at == std::string::npos) {
        return out;
    }
    std::istringstream in(line.substr(line.find('[', at) + 1));
    double value = 0.0;
    char separator = ',';
    while (separator == ',' && in >> value) {
        out.push_back(value);
        in >> separator;
    }
    return out;
}

double
parse_number(const std::string& line, const std::string& key)
{
    const std::size_t at = line.find("\"" + key + "\": ");
    return at == std::string::npos
               ? 0.0
               : std::stod(line.substr(at + key.size() + 4));
}

/// Histogram @p name from a kStats reply (one metric per line).
Histogram
parse_histogram(const std::string& stats, const std::string& name)
{
    Histogram h;
    std::istringstream in(stats);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"name\": \"" + name + "\"") != std::string::npos) {
            h.bounds = parse_array(line, "bounds");
            h.counts = parse_array(line, "counts");
            h.count = parse_number(line, "count");
            h.sum = parse_number(line, "sum");
        }
    }
    return h;
}

/// after - before: what the window added.
Histogram
window_delta(const Histogram& after, const Histogram& before)
{
    Histogram d = after;
    for (std::size_t b = 0; b < d.counts.size() && b < before.counts.size();
         ++b) {
        d.counts[b] -= before.counts[b];
    }
    d.count -= before.count;
    d.sum -= before.sum;
    return d;
}

/// Median by linear interpolation inside the bucket holding it.
double
histogram_median(const Histogram& h)
{
    const double target = h.count / 2.0;
    double below = 0.0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
        if (below + h.counts[b] >= target && h.counts[b] > 0.0) {
            const double lower = b == 0 ? 0.0 : h.bounds[b - 1];
            if (b >= h.bounds.size()) {
                return lower;
            }
            return lower + (h.bounds[b] - lower) * (target - below) /
                               h.counts[b];
        }
        below += h.counts[b];
    }
    return std::nan("");
}

/// Client-side figures of one window.
struct WindowStats
{
    /// CPU time of the whole process (server and generator) per request.
    double cpu_us_per_req = 0.0;
    double p50_ms = 0.0; ///< service time: send to response
    double due_p50_ms = 0.0;
    double link_p50_ms = 0.0;
    double knn_p50_ms = 0.0;
    double p99_ms = 0.0;
    double slo_frac = 0.0;
    double fast_frac = 0.0; ///< reads answered within kFastMs of sending
    double reload_s = 0.0;
    double late_max_ms = 0.0;
    double sent = 0.0;
    double failed = 0.0;
};

WindowStats
summarize(const std::vector<Request>& requests,
          const std::vector<Answer>& answers)
{
    std::vector<double> reads;
    std::vector<double> due;
    std::vector<double> links;
    std::vector<double> knns;
    std::vector<double> reloads;
    WindowStats s;
    s.sent = static_cast<double>(requests.size());
    double met = 0.0;
    double fast = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Answer& a = answers[i];
        s.late_max_ms = std::max(s.late_max_ms, a.late_ms);
        if (!a.ok) {
            s.failed += 1.0;
            continue;
        }
        if (requests[i].kind == Kind::kReload) {
            reloads.push_back(a.latency_ms / 1e3);
            continue;
        }
        const double service_ms = a.latency_ms - a.late_ms;
        reads.push_back(service_ms);
        due.push_back(a.latency_ms);
        (requests[i].kind == Kind::kLink ? links : knns)
            .push_back(service_ms);
        met += a.latency_ms <= kSloMs ? 1.0 : 0.0;
        fast += service_ms <= kFastMs ? 1.0 : 0.0;
    }
    const double sent_reads = static_cast<double>(
        requests.size() - static_cast<std::size_t>(std::count_if(
                              requests.begin(), requests.end(),
                              [](const Request& r) {
                                  return r.kind == Kind::kReload;
                              })));
    s.p50_ms = median(reads);
    s.due_p50_ms = median(due);
    s.link_p50_ms = median(links);
    s.knn_p50_ms = median(knns);
    s.p99_ms = quantile(due, 0.99);
    s.slo_frac = met / sent_reads;
    s.fast_frac = fast / sent_reads;
    s.reload_s = median(reloads);
    return s;
}

} // namespace

Outcome
run_serve_mixed(const Options& options)
{
    util::set_default_threads(kSetupThreads);
    Outcome outcome;
    const std::string reload_path =
        std::filesystem::absolute(options.work_dir + "/serve-embedding.tgla")
            .string();

    // Set up several times (the median is setup_s); keep the last.
    Tracer tracer(options.trace);
    std::vector<double> dataset;
    Live live;
    const std::vector<double> setup = repeat_setup([&](std::size_t rep) {
        if (live.server) {
            live.clients.clear();
            live.server->stop();
        }
        live = set_up(options.seed, reload_path, outcome, tracer, rep + 1);
        dataset.push_back(live.dataset_seconds);
    });

    std::uint64_t epoch = 1;
    const auto window = [&](double seconds, std::uint64_t salt,
                            Tracer* spans, int parent) {
        const std::vector<Request> requests = make_schedule(
            seconds, live.embedding.num_nodes(), options.seed * 1000 + salt);
        const double cpu_begin = process_cpu_seconds();
        const std::vector<Answer> answers =
            run_window(live, requests, reload_path, spans, parent);
        const double cpu = process_cpu_seconds() - cpu_begin;
        check_window(outcome, live, requests, answers, epoch);
        WindowStats stats = summarize(requests, answers);
        stats.cpu_us_per_req =
            cpu / static_cast<double>(requests.size()) * 1e6;
        return stats;
    };
    const auto stats = [&] { return live.clients.front()->stats_json(); };

    window(kWarmupSeconds, 0, nullptr, -1);
    WindowStats untraced;
    WindowStats measured;
    std::string stats_before;
    std::string stats_after;
    if (!options.trace) {
        stats_before = stats();
        measured = window(options.seconds, 1, nullptr, -1);
        stats_after = stats();
    } else {
        untraced = window(options.seconds / 2, 1, nullptr, -1);
        stats_before = stats();
        const int root = tracer.begin("serve-mixed.window", -1, 0);
        measured = window(options.seconds / 2, 2, &tracer, root);
        tracer.end(root);
        stats_after = stats();
    }
    outcome.check(live.server->epoch() == epoch,
                  "server epoch differs from the last reload's");
    live.clients.clear();
    live.server->stop();

    outcome.add_extra("slo_frac", measured.slo_frac, "1");
    outcome.add_extra("fast_frac", measured.fast_frac, "1");
    if (!options.trace) {
        outcome.add("setup_s", median(setup), "s");
        outcome.add("cpu_s", measured.cpu_us_per_req / 1e6, "s");
        outcome.add("latency_ms", measured.p50_ms, "ms");
        outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
        outcome.add("ok_frac", outcome.ok_frac(), "1");
        return outcome;
    }

    const auto delta = [&](const char* name) {
        return window_delta(parse_histogram(stats_after, name),
                            parse_histogram(stats_before, name));
    };
    const Histogram batch = delta("serve.batch.pairs");
    const double walk_s = median(tracer.self_seconds_of("walk.generate_walks"));
    const double embed_s = median(tracer.self_seconds_of("embed.train_sgns"));
    outcome.add("gen.dataset_s", median(dataset), "s");
    add_walk_layer(outcome, median(tracer.self_seconds_of("graph.build")),
                   walk_s,
                   static_cast<double>(live.walk_profile.steps_taken) / walk_s,
                   live.walk_profile);
    outcome.add("trace.overhead_frac",
                measured.cpu_us_per_req / untraced.cpu_us_per_req - 1.0, "1");
    outcome.add_extra("embed.train_s", embed_s, "s");
    outcome.add_extra("embed.pairs",
                      static_cast<double>(live.sgns_stats.pairs_trained),
                      "count");
    outcome.add_extra("embed.pairs_per_s",
                      static_cast<double>(live.sgns_stats.pairs_trained) /
                          embed_s,
                      "1/s");
    outcome.add_extra("serve.sent", measured.sent, "count");
    outcome.add_extra("serve.failed", measured.failed, "count");
    outcome.add_extra("serve.lat_p50_ms", measured.p50_ms, "ms");
    outcome.add_extra("serve.due_p50_ms", measured.due_p50_ms, "ms");
    outcome.add_extra("serve.link_p50_ms", measured.link_p50_ms, "ms");
    outcome.add_extra("serve.knn_p50_ms", measured.knn_p50_ms, "ms");
    outcome.add_extra("serve.lat_p99_ms", measured.p99_ms, "ms");
    outcome.add_extra("serve.reload_s", measured.reload_s, "s");
    outcome.add_extra("serve.gen_late_max_ms", measured.late_max_ms, "ms");
    outcome.add_extra(
        "serve.queue_p50_ms",
        histogram_median(delta("serve.stage.queue_seconds")) * 1e3, "ms");
    outcome.add_extra(
        "serve.forward_p50_ms",
        histogram_median(delta("serve.stage.forward_seconds")) * 1e3, "ms");
    outcome.add_extra("serve.batch_pairs_mean", batch.sum / batch.count,
                      "count");
    tracer.write_chrome_json(options.work_dir + "/spans-" +
                             options.workload + ".json");
    return outcome;
}

} // namespace perfbench
