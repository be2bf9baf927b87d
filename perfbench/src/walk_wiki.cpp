/// @file
/// walk-wiki: graph build plus the temporal walk corpus only (the job
/// of `tgl_cli walk`) on the wiki-talk stand-in with Fig. 4's walk
/// budget. The walk is most of the timed work here, where it is at most
/// a few percent of every pipeline.
#include "workloads.hpp"

#include "gen/catalog.hpp"
#include "graph/builder.hpp"
#include "rng/random.hpp"
#include "util/parallel_for.hpp"
#include "walk/engine.hpp"

namespace perfbench {
namespace {

using namespace tgl;

constexpr unsigned kThreads = 4;
/// wiki-talk stand-in at 0.4 of the paper's size: ≈456k nodes, 2.4M
/// edges.
constexpr double kScale = 0.4;
constexpr std::size_t kSampledWalks = 1000;

walk::WalkConfig
make_config()
{
    // `tgl_cli walk` defaults, with Fig. 4's N = 80.
    walk::WalkConfig config;
    config.walks_per_node = 10;
    config.max_length = 80;
    config.seed = 1;
    config.transition_cache = walk::TransitionCacheMode::kAuto;
    config.batch_width = 0;
    config.num_threads = kThreads;
    return config;
}

/// Whether @p tokens can be walked on @p graph: every hop an existing
/// arc, the first at or after the earliest timestamp and each later
/// one strictly after the previous. Taking the earliest qualifying arc
/// at each hop finds such a sequence whenever one exists.
bool
walk_is_temporal_path(const graph::TemporalGraph& graph,
                      std::span<const graph::NodeId> tokens)
{
    graph::Timestamp clock = graph.min_time();
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        bool found = false;
        for (const graph::Neighbor& arc :
             graph.temporal_neighbors(tokens[i], clock, /*strict=*/i > 0)) {
            if (arc.dst == tokens[i + 1]) {
                clock = arc.time;
                found = true;
                break;
            }
        }
        if (!found) {
            return false;
        }
    }
    return true;
}

void
check_corpus(Outcome& outcome, const graph::TemporalGraph& graph,
             const walk::WalkConfig& config, const walk::Corpus& corpus,
             const walk::WalkProfile& profile, std::uint64_t seed)
{
    const std::uint64_t slots =
        std::uint64_t{config.walks_per_node} * graph.num_nodes();
    outcome.check(profile.walks_started == slots &&
                      walk::total_walk_slots(graph, config) == slots,
                  "walk slots != K * |V|");
    outcome.check(corpus.num_walks() == profile.walks_kept,
                  "corpus walk count != walks kept");
    rng::Random random(seed);
    for (std::size_t n = 0; n < kSampledWalks && corpus.num_walks() > 0;
         ++n) {
        const auto tokens =
            corpus.walk(random.next_index(corpus.num_walks()));
        if (!outcome.check(tokens.size() <= config.max_length + 1 &&
                               tokens.size() >= config.min_walk_tokens,
                           "walk length outside [min_walk_tokens, N+1]") ||
            !outcome.check(walk_is_temporal_path(graph, tokens),
                           "walk is not a time-respecting path")) {
            return;
        }
    }
}

} // namespace

Outcome
run_walk_wiki(const Options& options)
{
    util::set_default_threads(kThreads);
    const walk::WalkConfig config = make_config();
    Outcome outcome;

    gen::Dataset dataset;
    const std::vector<double> setup = repeat_setup([&](std::size_t) {
        dataset = gen::make_dataset("wiki-talk", kScale, options.seed);
    });

    Tracer tracer;
    std::vector<double> cpu;
    std::vector<double> wall;
    std::vector<double> own_wall;
    std::vector<double> traced_cpu;
    std::uint64_t run = 0;
    std::uint64_t tokens = 0;
    walk::WalkProfile traced_profile;

    // One repetition: build + walk, then the output checks (untimed).
    const auto rep = [&](bool traced) {
        const std::size_t before = outcome.problems.size();
        walk::WalkProfile profile;
        const int root =
            traced ? tracer.begin("walk-wiki.run", -1, ++run) : -1;
        const Stopwatch stopwatch;
        int span = traced ? tracer.begin("graph.build", root, run) : -1;
        const graph::TemporalGraph graph =
            graph::GraphBuilder::build(dataset.edges, {.symmetrize = true});
        if (traced) {
            tracer.end(span);
            span = tracer.begin("walk.generate_walks", root, run);
        }
        const walk::Corpus corpus =
            walk::generate_walks(graph, config, &profile);
        const Stopwatch::Reading time = stopwatch.read();
        if (traced) {
            tracer.end(span);
            tracer.end(root);
            traced_cpu.push_back(time.cpu);
            traced_profile = profile;
        } else {
            cpu.push_back(time.cpu);
            wall.push_back(time.wall);
            own_wall.push_back(time.own_wall);
        }
        if (tokens == 0) {
            tokens = corpus.num_tokens();
        }
        outcome.check(corpus.num_tokens() == tokens,
                      "corpus size differs between repetitions");
        check_corpus(outcome, graph, config, corpus, profile,
                     options.seed + run + cpu.size());
        outcome.finish_operation(before);
    };

    const Clock::time_point window = Clock::now();
    while (cpu.size() < 3 || seconds_since(window) < options.seconds) {
        rep(false);
        if (options.trace) {
            rep(true);
        }
    }

    outcome.add_extra("run.wall_s", median(wall), "s");
    if (!options.trace) {
        outcome.add("setup_s", median(setup), "s");
        outcome.add("cpu_s", median(cpu), "s");
        outcome.add("latency_ms", median(own_wall) * 1e3, "ms");
        outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
        outcome.add("ok_frac", outcome.ok_frac(), "1");
        return outcome;
    }

    const double walk_s =
        median(tracer.self_seconds_of("walk.generate_walks"));
    outcome.add("gen.dataset_s", median(setup), "s");
    add_walk_layer(outcome, median(tracer.self_seconds_of("graph.build")),
                   walk_s,
                   static_cast<double>(traced_profile.steps_taken) / walk_s,
                   traced_profile);
    outcome.add("trace.overhead_frac",
                median(traced_cpu) / median(cpu) - 1.0, "1");
    tracer.write_chrome_json(options.work_dir + "/spans-" +
                             options.workload + ".json");
    return outcome;
}

} // namespace perfbench
