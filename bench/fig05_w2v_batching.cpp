/// @file
/// Fig. 5 reproduction: word2vec sentence batching — speedup and
/// accuracy versus batch size.
///
/// Paper finding (SV-B, Fig. 5): prior GPU word2vec launches one
/// kernel per sentence; with temporal-walk "sentences" of 1-5 tokens
/// that starves the device. Batching B sentences per launch processes
/// them concurrently with stale model reads; 16k-sentence batches gave
/// the paper 124.2x over no batching *without accuracy loss* (updates
/// are sparse, so concurrent staleness rarely collides).
///
/// This harness runs train_sgns with a set round size (the CPU model of
/// that GPU execution: the team trains a round of B sentences with
/// stale reads, then meets at a barrier) across batch sizes and reports
/// time, speedup over batch=1, and the downstream link-prediction AUC
/// as the accuracy check.
#include "tgl/tgl.hpp"

#include <cstdio>

int
main(int argc, char** argv)
{
    using namespace tgl;
    util::CliParser cli("fig05_w2v_batching",
                        "Fig. 5: batching speedup & accuracy");
    cli.add_flag("dataset", "wiki-talk", "catalog dataset");
    cli.add_flag("scale", "0.01", "stand-in scale");
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

        std::printf("# Fig. 5 reproduction — %s stand-in, %s sentences "
                    "(%s tokens)\n",
                    dataset.name.c_str(),
                    util::format_count(corpus.num_walks()).c_str(),
                    util::format_count(corpus.num_tokens()).c_str());
        std::printf("%10s %12s %10s %10s %10s\n", "batch", "w2v(s)",
                    "speedup", "accuracy", "auc");

        const std::size_t batch_sizes[] = {1, 16, 256, 4096, 16384};
        double baseline_seconds = 0.0;
        for (const std::size_t batch : batch_sizes) {
            embed::SgnsConfig config;
            config.dim = 8;
            config.epochs = 6;
            config.seed = seed;
            config.batch_sentences = batch;
            embed::TrainStats stats;
            const embed::Embedding embedding = embed::train_sgns(
                corpus, graph.num_nodes(), config, &stats);
            if (batch == 1) {
                baseline_seconds = stats.seconds;
            }

            core::ClassifierConfig classifier;
            classifier.max_epochs = 15;
            const core::TaskResult task =
                core::run_link_prediction(splits, embedding, classifier);
            std::printf("%10zu %12.3f %9.1fx %10.4f %10.4f\n", batch,
                        stats.seconds, baseline_seconds / stats.seconds,
                        task.test_accuracy, task.test_auc);
        }
        std::printf("\n# paper shape check: monotone speedup with batch "
                    "size (paper: 124.2x at 16k on a GPU; CPU-model "
                    "factors are smaller), accuracy column flat.\n");
    } catch (const util::Error& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
