/// @file
/// Fig. 6 reproduction: cumulative word2vec optimizations.
///
/// The paper stacks four optimizations onto the prior GPU word2vec
/// [86] and reports cumulative speedup on wiki-talk (220.5x end to
/// end, no accuracy loss):
///   baseline  : per-sentence launch, cache-line padding, per-element
///               (uncoalesced) access
///   +Batch    : 16k-sentence batches
///   +No-pad   : remove the cache-line padding (wasteful at d = 8)
///   +Coalesce : threads cooperate across the embedding dimension
///   +Par-red  : parallel reduction for the dot products
///
/// CPU model mapping (see DESIGN.md): padding = row_stride 16 vs 8;
/// Coalesce+Par-red = vectorized contiguous inner loops vs forced
/// scalar; batching = rounds of 16384 sentences vs one sentence per
/// round (SgnsConfig::batch_sentences).
/// Coalesce and Par-red collapse into one toggle here because on a CPU
/// both manifest as SIMD over the dimension.
#include "tgl/tgl.hpp"

#include <cstdio>

int
main(int argc, char** argv)
{
    using namespace tgl;
    util::CliParser cli("fig06_w2v_optimizations",
                        "Fig. 6: cumulative word2vec optimizations");
    cli.add_flag("dataset", "wiki-talk", "catalog dataset");
    cli.add_flag("scale", "0.02", "stand-in scale");
    cli.add_flag("seed", "1", "random seed");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        const auto seed =
            static_cast<std::uint64_t>(cli.get_int("seed"));
        const gen::Dataset dataset = gen::make_dataset(
            cli.get_string("dataset"), cli.get_double("scale"), seed);
        const auto graph = graph::GraphBuilder::build(
            dataset.edges, {.symmetrize = true});
        walk::WalkConfig walk_config;
        walk_config.walks_per_node = 10;
        walk_config.max_length = 6;
        walk_config.seed = seed;
        const walk::Corpus corpus =
            walk::generate_walks(graph, walk_config);
        const core::LinkSplits splits =
            core::prepare_link_splits(dataset.edges, graph, {});

        struct Step
        {
            const char* name;
            std::size_t batch;
            unsigned stride;
            bool vectorized;
        };
        const Step steps[] = {
            {"baseline [86]", 1, 16, false},
            {"+Batch(16k)", 16384, 16, false},
            {"+No-pad", 16384, 0, false},
            {"+Coalesce/Par-red", 16384, 0, true},
        };

        std::printf("# Fig. 6 reproduction — %s stand-in, %s sentences\n",
                    dataset.name.c_str(),
                    util::format_count(corpus.num_walks()).c_str());
        std::printf("%-20s %10s %10s %10s %10s\n", "configuration",
                    "w2v(s)", "speedup", "accuracy", "auc");

        double baseline_seconds = 0.0;
        for (const Step& step : steps) {
            embed::SgnsConfig config;
            config.dim = 8;
            config.epochs = 6;
            config.seed = seed;
            config.row_stride = step.stride;
            config.vectorized = step.vectorized;
            config.batch_sentences = step.batch;
            embed::TrainStats stats;
            const embed::Embedding embedding = embed::train_sgns(
                corpus, graph.num_nodes(), config, &stats);
            if (baseline_seconds == 0.0) {
                baseline_seconds = stats.seconds;
            }
            core::ClassifierConfig classifier;
            classifier.max_epochs = 15;
            const core::TaskResult task =
                core::run_link_prediction(splits, embedding, classifier);
            std::printf("%-20s %10.3f %9.1fx %10.4f %10.4f\n", step.name,
                        stats.seconds, baseline_seconds / stats.seconds,
                        task.test_accuracy, task.test_auc);
        }

        // Reference row: the Hogwild CPU implementation.
        embed::SgnsConfig hogwild;
        hogwild.dim = 8;
        hogwild.epochs = 6;
        hogwild.seed = seed;
        embed::TrainStats stats;
        const embed::Embedding embedding = embed::train_sgns(
            corpus, graph.num_nodes(), hogwild, &stats);
        core::ClassifierConfig classifier;
        classifier.max_epochs = 15;
        const core::TaskResult task =
            core::run_link_prediction(splits, embedding, classifier);
        std::printf("%-20s %10.3f %9.1fx %10.4f %10.4f\n",
                    "hogwild-cpu (ref)", stats.seconds,
                    baseline_seconds / stats.seconds, task.test_accuracy,
                    task.test_auc);

        std::printf("\n# paper shape check: each cumulative row faster "
                    "than the previous, accuracy flat (paper total: "
                    "220.5x on GPU; CPU-model total is smaller).\n");
    } catch (const util::Error& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
