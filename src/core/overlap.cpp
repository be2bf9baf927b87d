#include "core/overlap.hpp"

#include "embed/streaming_trainer.hpp"
#include "walk/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/shard_queue.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"
#include "util/watchdog.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace tgl::core {

OverlapPlan
plan_overlap(const graph::TemporalGraph& graph,
             const PipelineConfig& config)
{
    OverlapPlan plan;
    if (config.overlap == OverlapMode::kOff) {
        plan.decision = "off: sequential requested";
        return plan;
    }

    // Compatibility gates. PipelineConfig::validate() rejects these
    // combinations for kOn up front; kAuto silently falls back.
    const std::vector<std::string> unsupported =
        embed::streaming_unsupported(config.sgns);
    if (!unsupported.empty()) {
        plan.decision = "off: " + unsupported.front();
        return plan;
    }
    const std::size_t total_slots =
        walk::total_walk_slots(graph, config.walk);
    if (total_slots == 0) {
        plan.decision = "off: empty walk-slot space";
        return plan;
    }

    // Rough per-phase cost model (op units per token; the absolute
    // scale cancels in the ratio). Walk: one transition draw per
    // token — a few ops via the prefix-CDF cache or uniform draws,
    // O(mean degree) for the direct exp-weighted scan. Word2vec: every
    // token forms ~window pairs per epoch, each touching
    // (negatives+1) rows of dim floats a handful of times.
    const double tokens =
        static_cast<double>(total_slots) *
        static_cast<double>(walk::expected_tokens_per_walk(config.walk));
    double step_cost;
    if (!config.walk.temporal) {
        step_cost = 4.0;
    } else if (walk::use_transition_cache(config.walk, graph)) {
        step_cost = 12.0;
    } else if (config.walk.transition == walk::TransitionKind::kUniform) {
        step_cost = 6.0;
    } else {
        const double mean_degree =
            graph.num_nodes() > 0
                ? static_cast<double>(graph.num_edges()) /
                      static_cast<double>(graph.num_nodes())
                : 1.0;
        step_cost = 8.0 * std::max(1.0, mean_degree);
    }
    plan.walk_cost_estimate = tokens * step_cost;
    const embed::SgnsConfig& sgns = config.sgns;
    plan.w2v_cost_estimate = tokens * static_cast<double>(sgns.epochs) *
                             static_cast<double>(sgns.window) *
                             (sgns.negatives + 1.0) * sgns.dim * 6.0;
    const double ratio = plan.walk_cost_estimate /
                         std::max(plan.w2v_cost_estimate, 1.0);

    unsigned threads =
        std::max(config.walk.num_threads, config.sgns.num_threads);
    if (threads == 0) {
        threads = util::default_threads();
    }

    if (config.overlap == OverlapMode::kAuto) {
        if (threads < 2) {
            plan.decision = "auto: off (one thread — the phases cannot "
                            "run concurrently)";
            return plan;
        }
        if (ratio < 0.25 || ratio > 4.0) {
            plan.decision = util::strcat(
                "auto: off (walk/w2v cost ratio ",
                util::format_fixed(ratio, 3),
                " outside [0.25, 4] — overlap would only hide the "
                "cheap phase)");
            return plan;
        }
    }

    plan.enabled = true;
    // Split the team proportionally to the estimated per-phase cost so
    // neither side of the queue starves; always keep one thread per
    // side (a forced kOn on one hardware thread oversubscribes 2:1,
    // which is correct, just not faster).
    const double walk_share = ratio / (1.0 + ratio);
    auto producers = static_cast<unsigned>(
        std::lround(static_cast<double>(threads) * walk_share));
    producers =
        std::clamp(producers, 1u, std::max(1u, threads - 1));
    const unsigned consumers = std::max(1u, threads - producers);
    plan.producer_threads = producers;
    plan.consumer_threads = consumers;

    std::size_t shards =
        config.overlap_shards != 0
            ? config.overlap_shards
            : std::clamp<std::size_t>(4 * static_cast<std::size_t>(threads),
                                      8, 64);
    // Batched walkers want shards of at least a few full batches:
    // every shard's ragged tail runs below the configured width, so
    // slicing the slot space into shards smaller than ~4 batches
    // would erode the lockstep speedup the width was chosen for.
    // Lane RNG streams are per-slot, so re-sharding never changes
    // walk output — this is a speed-only adjustment.
    const unsigned batch_width = walk::resolve_batch_width(
        config.walk, graph, walk::use_transition_cache(config.walk, graph));
    std::string batch_note;
    if (batch_width > 1 && config.overlap_shards == 0) {
        const std::size_t max_batched_shards = std::max<std::size_t>(
            1, total_slots / (4 * static_cast<std::size_t>(batch_width)));
        if (shards > max_batched_shards) {
            shards = max_batched_shards;
            batch_note = util::strcat(
                ", shards capped for batch width ", batch_width);
        }
    }
    plan.num_shards = std::max<std::size_t>(
        1, std::min(shards, total_slots));
    plan.queue_capacity =
        std::max<std::size_t>(2, 2 * plan.consumer_threads);
    plan.decision = util::strcat(
        overlap_mode_name(config.overlap), ": on (", producers,
        " producers / ", consumers, " consumers, ", plan.num_shards,
        " shards, walk/w2v cost ratio ", util::format_fixed(ratio, 3),
        batch_note, ")");
    return plan;
}

OverlapFrontEnd
run_overlapped_front_end(const graph::TemporalGraph& graph,
                         const PipelineConfig& config,
                         const walk::TransitionCache* cache,
                         const OverlapPlan& plan,
                         const CheckpointManager* checkpoints,
                         std::uint64_t walk_fingerprint)
{
    TGL_ASSERT(plan.enabled && plan.num_shards > 0);
    TGL_ASSERT(plan.producer_threads > 0 && plan.consumer_threads > 0);

    const obs::Span region_span("pipeline.front_end.overlap");
    util::Timer wall_timer;
    const auto region_begin = std::chrono::steady_clock::now();

    const std::size_t total_slots =
        walk::total_walk_slots(graph, config.walk);
    util::ShardQueue<walk::CorpusShard> queue(plan.queue_capacity);

    // Liveness instrumentation for the stall watchdog: workers post
    // their current phase to the board, and the queue's completed-ops
    // counter plus the board version form the progress heartbeat. When
    // neither advances for the configured deadline, the watchdog dumps
    // this state, requests cooperative cancellation, and closes the
    // queue so every blocked worker unwinds — the run fails with the
    // per-shard checkpoints already on disk instead of hanging.
    util::PhaseBoard board;
    std::optional<util::StallWatchdog> watchdog;
    if (config.watchdog_timeout_seconds > 0.0) {
        util::StallWatchdog::Options options;
        options.deadline = std::chrono::milliseconds(
            static_cast<long>(config.watchdog_timeout_seconds * 1000.0));
        options.name = "overlap front end";
        watchdog.emplace(
            options,
            [&queue, &board] { return queue.ops() + board.version(); },
            [&queue, &board] {
                return util::strcat(
                    board.dump(), "  shard queue: depth ", queue.size(),
                    "/", queue.capacity(), ", ", queue.ops(),
                    " completed ops, ",
                    queue.closed() ? "closed" : "open",
                    ", producer stall ",
                    util::format_fixed(queue.producer_stall_seconds(), 3),
                    "s, consumer stall ",
                    util::format_fixed(queue.consumer_stall_seconds(), 3),
                    "s\n");
            },
            [&queue](const std::string& report) {
                util::warn(report);
                util::request_cancellation(
                    "stall watchdog deadline exceeded");
                queue.close();
            });
    }

    // Producers claim shard indices off a shared counter, generate (or
    // resume) each shard serially, and push it. The last producer out
    // stamps the walk window and closes the queue — the consumers'
    // termination signal.
    std::atomic<std::size_t> shard_counter{0};
    std::atomic<unsigned> active_producers{plan.producer_threads};
    std::atomic<unsigned> shards_loaded{0};
    std::atomic<unsigned> shards_stored{0};
    std::vector<walk::WalkProfile> producer_profiles(
        plan.producer_threads);
    std::vector<std::exception_ptr> producer_errors(
        plan.producer_threads);
    std::mutex walk_end_mutex;
    auto walk_end = region_begin;

    const auto producer = [&](unsigned p) {
        const std::string who = util::strcat("producer-", p);
        try {
            while (true) {
                util::check_cancellation("the overlap producer loop");
                const std::size_t i = shard_counter.fetch_add(
                    1, std::memory_order_relaxed);
                if (i >= plan.num_shards) {
                    break;
                }
                board.set(who, util::strcat("working on shard ", i));
                const walk::SlotRange range = walk::walk_shard_range(
                    total_slots, plan.num_shards, i);
                walk::Corpus shard;
                bool loaded = false;
                if (checkpoints != nullptr) {
                    loaded = checkpoints->load_corpus_shard(
                        shard_fingerprint(walk_fingerprint, i,
                                          plan.num_shards),
                        i, shard);
                }
                if (loaded) {
                    shards_loaded.fetch_add(1,
                                            std::memory_order_relaxed);
                } else {
                    const obs::Span shard_span("overlap.walk.shard");
                    shard = walk::generate_walk_shard(
                        graph, config.walk, cache, range,
                        &producer_profiles[p]);
                    if (checkpoints != nullptr) {
                        checkpoints->store_corpus_shard(
                            shard_fingerprint(walk_fingerprint, i,
                                              plan.num_shards),
                            i, shard);
                        shards_stored.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                }
                board.set(who, util::strcat("pushing shard ", i));
                if (!queue.push({i, std::move(shard)})) {
                    break; // closed under us — the consumer side failed
                }
            }
            board.set(who, "done");
        } catch (...) {
            board.set(who, "failed");
            producer_errors[p] = std::current_exception();
        }
        if (active_producers.fetch_sub(1) == 1) {
            {
                const std::lock_guard<std::mutex> lock(walk_end_mutex);
                walk_end = std::chrono::steady_clock::now();
            }
            queue.close();
        }
    };

    std::vector<std::thread> producers;
    producers.reserve(plan.producer_threads);
    for (unsigned p = 0; p < plan.producer_threads; ++p) {
        producers.emplace_back(producer, p);
    }

    // Epoch-0 negative prior from the CSR alone: walk visit frequency
    // is degree-biased, and the +1 keeps isolated nodes sampleable.
    std::vector<double> prior(graph.num_nodes());
    for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
        prior[v] =
            std::pow(static_cast<double>(graph.out_degree(v)) + 1.0,
                     0.75);
    }

    embed::StreamingSgnsConfig streaming;
    streaming.sgns = config.sgns;
    streaming.consumer_threads = plan.consumer_threads;
    streaming.total_token_estimate =
        static_cast<std::uint64_t>(total_slots) *
        walk::expected_tokens_per_walk(config.walk);

    embed::StreamingResult trained;
    std::exception_ptr trainer_error;
    board.set("trainer", "consuming the shard stream");
    try {
        trained = embed::train_sgns_streaming(queue, graph.num_nodes(),
                                              prior, streaming);
        board.set("trainer", "done");
    } catch (...) {
        board.set("trainer", "failed");
        trainer_error = std::current_exception();
        queue.close(); // unblock producers waiting in push()
    }
    for (std::thread& thread : producers) {
        thread.join();
    }
    if (watchdog) {
        watchdog->stop();
        if (watchdog->fired()) {
            // The stall is the root cause: the cancellation/close it
            // issued is what made the workers throw. Every worker has
            // joined, so clear the watchdog's cancellation request —
            // it must not outlive this run — unless a real signal is
            // also pending. Shards stored before the stall are on
            // disk, so a rerun resumes there.
            if (util::cancellation_signal() == 0) {
                util::reset_cancellation();
            }
            util::fatal(util::strcat(
                "pipeline stalled — ", watchdog->report(),
                "  run aborted with a resumable checkpoint (rerun to "
                "resume from the last stored shard)"));
        }
    }
    // A producer failure is the root cause when both sides threw (the
    // trainer then fails on the shard that never arrived).
    for (const std::exception_ptr& error : producer_errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    if (trainer_error) {
        std::rethrow_exception(trainer_error);
    }

    const auto region_end = std::chrono::steady_clock::now();

    OverlapFrontEnd out;
    out.corpus = std::move(trained.corpus);
    out.embedding = std::move(trained.embedding);
    out.train_stats = trained.stats;
    out.wall_seconds = wall_timer.seconds();
    out.w2v_seconds = trained.stats.seconds;
    {
        const std::lock_guard<std::mutex> lock(walk_end_mutex);
        out.walk_seconds =
            std::chrono::duration<double>(walk_end - region_begin)
                .count();
    }
    out.shards_loaded = shards_loaded.load();
    out.shards_stored = shards_stored.load();

    for (const walk::WalkProfile& local : producer_profiles) {
        walk::accumulate_profile(out.walk_profile, local);
    }
    walk::report_walk_metrics(out.walk_profile);

    // The sequential pipeline records pipeline.walk / pipeline.word2vec
    // back-to-back; overlapped runs record the true concurrent windows
    // (both start at the region begin).
    if (obs::TraceSession* session = obs::TraceSession::current()) {
        session->record("pipeline.walk", region_begin, walk_end);
        session->record("pipeline.word2vec", region_begin, region_end);
    }

    out.stats.used = true;
    out.stats.shards = plan.num_shards;
    out.stats.max_queue_depth = queue.max_depth();
    out.stats.producer_stall_seconds = queue.producer_stall_seconds();
    out.stats.consumer_stall_seconds = queue.consumer_stall_seconds();
    out.stats.decision = plan.decision;

    obs::Registry& registry = obs::Registry::global();
    registry.counter("overlap.shards").add(plan.num_shards);
    registry.counter("overlap.shards.resumed").add(out.shards_loaded);
    registry.gauge("overlap.queue_depth")
        .set(static_cast<double>(out.stats.max_queue_depth));
    registry.gauge("overlap.producer_stall_seconds")
        .set(out.stats.producer_stall_seconds);
    registry.gauge("overlap.consumer_stall_seconds")
        .set(out.stats.consumer_stall_seconds);
    return out;
}

} // namespace tgl::core
