/// @file
/// lp-email: link prediction end to end on the ia-email stand-in at the
/// paper's operating point. The untraced repetitions call
/// core::run_pipeline as users do; the layered run calls the same
/// layers one by one with the same configuration and must do exactly
/// the same work.
#include "workloads.hpp"

#include "core/pipeline.hpp"
#include "graph/builder.hpp"
#include "rng/splitmix64.hpp"
#include "util/parallel_for.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

using namespace tgl;

constexpr unsigned kThreads = 4; // walk, SGNS and the default team
/// Lowest median test AUC a run may report; a lower one fails the run.
/// Chance is 0.5. Test quality is not among the metrics every workload
/// reports, so this check is what gates it: a speed-up that costs that
/// much quality is a failure, not a trade.
constexpr double kMinTestAuc = 0.55;
/// Datasets per run, each drawn from the workload seed. Quality varies
/// from one generated graph to the next; the median over several keeps
/// test_auc and test_accuracy steady from seed to seed.
constexpr std::size_t kDatasets = 4;

core::PipelineConfig
make_config()
{
    // The auto modes are the ones `tgl_cli pipeline` passes.
    core::PipelineConfig config;
    config.walk.walks_per_node = 10;
    config.walk.max_length = 6;
    config.walk.seed = 1;
    config.walk.transition_cache = walk::TransitionCacheMode::kAuto;
    config.walk.batch_width = 0;
    config.walk.num_threads = kThreads;
    config.sgns.dim = 8;
    config.sgns.epochs = 12;
    config.sgns.seed = 1;
    config.sgns.num_threads = kThreads;
    config.sgns.backend = embed::kernels::SgnsBackend::kAuto;
    config.classifier.max_epochs = 30;
    config.overlap = core::OverlapMode::kAuto;
    return config;
}

/// Exact work counts; the layered run must reproduce the pipeline's.
struct WorkCounts
{
    std::uint64_t walk_steps = 0;
    std::uint64_t corpus_tokens = 0;
    std::uint64_t sgns_pairs = 0;
    unsigned classifier_epochs = 0;

    bool operator==(const WorkCounts&) const = default;
};

std::string
describe(const WorkCounts& w)
{
    char text[160];
    std::snprintf(text, sizeof(text),
                  "steps %llu tokens %llu pairs %llu epochs %u",
                  static_cast<unsigned long long>(w.walk_steps),
                  static_cast<unsigned long long>(w.corpus_tokens),
                  static_cast<unsigned long long>(w.sgns_pairs),
                  w.classifier_epochs);
    return text;
}

void
check_task(Outcome& outcome, const core::TaskResult& task)
{
    const auto unit = [](double x) {
        return std::isfinite(x) && x >= 0.0 && x <= 1.0;
    };
    outcome.check(unit(task.test_auc), "test_auc not finite in [0,1]");
    outcome.check(unit(task.test_accuracy),
                  "test_accuracy not finite in [0,1]");
}

struct Layered
{
    WorkCounts work;
    walk::WalkProfile profile;
    embed::TrainStats sgns;
    core::TaskResult task;
    std::size_t train_examples = 0;
    /// Self time of each layer's span.
    double build_s = 0.0;
    double walk_s = 0.0;
    double embed_s = 0.0;
    double prep_s = 0.0;
};

/// build -> generate_walks -> train_sgns -> prepare_link_splits ->
/// run_link_prediction, one span per call under a root span.
Layered
run_layered(const gen::Dataset& dataset, const core::PipelineConfig& config,
            Tracer& tracer, std::uint64_t run, Outcome& outcome)
{
    Layered out;
    const int root = tracer.begin("lp-email.pipeline", -1, run);

    const int build = tracer.begin("graph.build", root, run);
    const graph::TemporalGraph graph = graph::GraphBuilder::build(
        dataset.edges, {.symmetrize = config.symmetrize_graph});
    tracer.end(build);

    const int walk = tracer.begin("walk.generate_walks", root, run);
    const walk::Corpus corpus =
        walk::generate_walks(graph, config.walk, &out.profile);
    tracer.end(walk);

    const int embed = tracer.begin("embed.train_sgns", root, run);
    const embed::Embedding embedding = embed::train_sgns(
        corpus, graph.num_nodes(), config.sgns, &out.sgns);
    tracer.end(embed);

    const int prep = tracer.begin("core.prepare_link_splits", root, run);
    const core::LinkSplits splits =
        core::prepare_link_splits(dataset.edges, graph, config.split);
    tracer.end(prep);

    const int classify = tracer.begin("core.run_link_prediction", root, run);
    out.task = core::run_link_prediction(splits, embedding,
                                         config.classifier);
    tracer.end(classify);
    tracer.end(root);
    out.build_s = tracer.self_seconds(build);
    out.walk_s = tracer.self_seconds(walk);
    out.embed_s = tracer.self_seconds(embed);
    out.prep_s = tracer.self_seconds(prep);

    bool finite = true;
    for (const float x : embedding.data()) {
        finite = finite && std::isfinite(x);
    }
    outcome.check(finite, "embedding has a non-finite value");
    check_task(outcome, out.task);
    out.train_examples = splits.train.size();
    out.work = {out.profile.steps_taken, corpus.num_tokens(),
                out.sgns.pairs_trained, out.task.epochs_run};
    return out;
}

} // namespace

Outcome
run_lp_email(const Options& options)
{
    util::set_default_threads(kThreads);
    const core::PipelineConfig config = make_config();
    Outcome outcome;

    // One set-up repetition makes every dataset of the run.
    std::vector<gen::Dataset> datasets;
    const std::vector<double> setup = repeat_setup([&](std::size_t) {
        datasets.clear();
        for (std::size_t d = 0; d < kDatasets; ++d) {
            datasets.push_back(gen::make_dataset(
                "ia-email", 0.1, rng::mix_seed(options.seed, d)));
        }
    });
    for (const gen::Dataset& dataset : datasets) {
        if (dataset.edges.empty()) {
            throw std::runtime_error("lp-email: a generated dataset has "
                                     "no edges");
        }
    }

    Tracer tracer;
    Tracer untraced(false);
    std::vector<double> cpu;
    std::vector<double> wall;
    std::vector<double> own_wall;
    std::vector<double> layered_cpu;
    std::vector<double> traced_cpu;
    std::vector<double> auc;
    std::vector<double> accuracy;
    std::vector<Layered> layered;
    std::vector<WorkCounts> pipeline_work(kDatasets);
    std::uint64_t run = 0;

    const auto pipeline_rep = [&](std::size_t d) {
        const std::size_t before = outcome.problems.size();
        const Stopwatch stopwatch;
        const core::PipelineResult result =
            core::run_pipeline(datasets[d], config);
        const Stopwatch::Reading time = stopwatch.read();
        cpu.push_back(time.cpu);
        wall.push_back(time.wall);
        own_wall.push_back(time.own_wall);
        check_task(outcome, result.task);
        if (auc.size() < kDatasets) {
            auc.push_back(result.task.test_auc);
            accuracy.push_back(result.task.test_accuracy);
        }
        const WorkCounts work{result.walk_profile.steps_taken,
                              result.corpus_tokens,
                              result.w2v_stats.pairs_trained,
                              result.task.epochs_run};
        if (cpu.size() <= kDatasets) {
            pipeline_work[d] = work;
        }
        outcome.check(work == pipeline_work[d],
                      "pipeline work differs between repetitions: " +
                          describe(work) + " vs " +
                          describe(pipeline_work[d]));
        outcome.finish_operation(before);
    };
    // The layered run, traced or not; its work must be the pipeline's.
    const auto layered_rep = [&](std::size_t d, bool traced) {
        const std::size_t before = outcome.problems.size();
        const Stopwatch stopwatch;
        Layered l = run_layered(datasets[d], config,
                                traced ? tracer : untraced, ++run, outcome);
        (traced ? traced_cpu : layered_cpu).push_back(stopwatch.read().cpu);
        outcome.check(l.work == pipeline_work[d],
                      "layered work " + describe(l.work) +
                          " != pipeline work " + describe(pipeline_work[d]));
        if (traced) {
            layered.push_back(std::move(l));
        }
        outcome.finish_operation(before);
    };

    // Pipeline repetitions cycle over the datasets until the window is
    // over and each dataset ran once. The traced mode follows each with
    // the same layers called one by one, untraced and then traced, so
    // trace.overhead_frac compares one code path with itself and all
    // three see the same host conditions.
    const Clock::time_point window = Clock::now();
    for (std::size_t rep = 0;
         rep < kDatasets || seconds_since(window) < options.seconds; ++rep) {
        pipeline_rep(rep % kDatasets);
        if (options.trace) {
            layered_rep(rep % kDatasets, false);
            layered_rep(rep % kDatasets, true);
        }
    }
    outcome.check(median(auc) >= kMinTestAuc,
                  "median test_auc below the quality floor");
    outcome.add_extra("test_auc", median(auc), "1");
    outcome.add_extra("test_accuracy", median(accuracy), "1");
    outcome.add_extra("run.wall_s", median(wall), "s");
    if (!options.trace) {
        layered_rep(0, false); // output checks only; not part of any metric
        outcome.add("setup_s", median(setup), "s");
        outcome.add("cpu_s", median(cpu), "s");
        outcome.add("latency_ms", median(own_wall) * 1e3, "ms");
        outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
        outcome.add("ok_frac", outcome.ok_frac(), "1");
        return outcome;
    }

    // Times and rates: medians over every layered run. Counts: the
    // first dataset's, which every run of a seed repeats exactly.
    const auto median_of = [&](auto field) {
        std::vector<double> values;
        for (const Layered& l : layered) {
            values.push_back(static_cast<double>(field(l)));
        }
        return median(values);
    };
    const std::size_t batch = config.classifier.batch_size;
    const auto batches = [batch](const Layered& l) {
        return static_cast<double>(l.task.epochs_run) *
               static_cast<double>((l.train_examples + batch - 1) / batch);
    };
    const Layered& first = layered.front();

    outcome.add("gen.dataset_s", median(setup), "s");
    add_walk_layer(
        outcome, median_of([](auto& l) { return l.build_s; }),
        median_of([](auto& l) { return l.walk_s; }), median_of([](auto& l) {
            return static_cast<double>(l.profile.steps_taken) / l.walk_s;
        }),
        first.profile);
    outcome.add("trace.overhead_frac",
                median(traced_cpu) / median(layered_cpu) - 1.0, "1");
    outcome.add_extra("embed.train_s",
                      median_of([](auto& l) { return l.embed_s; }), "s");
    outcome.add_extra("embed.pairs",
                      static_cast<double>(first.sgns.pairs_trained), "count");
    outcome.add_extra("embed.pairs_per_s", median_of([](auto& l) {
                          return static_cast<double>(l.sgns.pairs_trained) /
                                 l.embed_s;
                      }),
                      "1/s");
    outcome.add_extra("core.data_prep_s",
                      median_of([](auto& l) { return l.prep_s; }), "s");
    outcome.add_extra("core.train_examples",
                      static_cast<double>(first.train_examples), "count");
    outcome.add_extra("nn.train_s",
                      median_of([](auto& l) { return l.task.train_seconds; }),
                      "s");
    outcome.add_extra("nn.epochs", first.task.epochs_run, "count");
    outcome.add_extra("nn.batches", batches(first), "count");
    outcome.add_extra("nn.batch_us", median_of([&](auto& l) {
                          return l.task.train_seconds / batches(l) * 1e6;
                      }),
                      "us");
    outcome.add_extra("nn.test_s",
                      median_of([](auto& l) { return l.task.test_seconds; }),
                      "s");
    tracer.write_chrome_json(options.work_dir + "/spans-" +
                             options.workload + ".json");
    return outcome;
}

} // namespace perfbench
