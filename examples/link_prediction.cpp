/// @file
/// Link prediction on a temporal interaction network — the paper's
/// first downstream task (product recommendation, friend suggestion).
///
/// Works on a `.wel` edge list (`src dst timestamp` per line) or, when
/// no file is given, a synthetic stand-in for one of the Table II
/// datasets. Exposes the paper's hyperparameters as flags.
///
/// Examples:
///   ./link_prediction --dataset wiki-talk --scale 0.02
///   ./link_prediction --input my_graph.wel --walks 10 --length 6
///   ./link_prediction --dataset ia-email --transition uniform
#include "tgl/tgl.hpp"

#include <cstdio>

int
main(int argc, char** argv)
{
    using namespace tgl;
    util::CliParser cli("link_prediction",
                        "temporal-walk link prediction pipeline");
    cli.add_flag("input", "", ".wel edge list (overrides --dataset)");
    cli.add_flag("dataset", "ia-email",
                 "catalog stand-in: ia-email | wiki-talk | stackoverflow");
    cli.add_flag("scale", "0.05", "stand-in scale vs the paper's size");
    cli.add_flag("walks", "10", "K: walks per node");
    cli.add_flag("length", "6", "N: max walk length");
    cli.add_flag("dim", "8", "d: embedding dimension");
    cli.add_flag("transition", "exp",
                 "transition: uniform | exp | exp-decay | linear");
    cli.add_flag("epochs", "20", "classifier training epochs");
    cli.add_flag("threads", "0", "worker threads (0 = hardware)");
    cli.add_flag("seed", "42", "random seed");
    cli.add_switch("batched-w2v",
                   "train word2vec in rounds of 16384 sentences (the "
                   "paper's GPU batch)");
    cli.add_flag("save-embeddings", "", "write embeddings to this path");

    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        if (const long long threads = cli.get_int("threads");
            threads > 0) {
            util::set_default_threads(static_cast<unsigned>(threads));
        }

        graph::EdgeList edges;
        std::string name;
        if (const std::string input = cli.get_string("input");
            !input.empty()) {
            edges = graph::load_wel_file(input);
            name = input;
        } else {
            const gen::Dataset dataset =
                gen::make_dataset(cli.get_string("dataset"),
                                  cli.get_double("scale"),
                                  static_cast<std::uint64_t>(
                                      cli.get_int("seed")));
            if (dataset.task != gen::Task::kLinkPrediction) {
                util::fatal("dataset is a node-classification dataset; "
                            "use ./node_classification");
            }
            edges = std::move(dataset.edges);
            name = dataset.name;
        }
        std::printf("== link prediction on %s: %u nodes, %zu edges ==\n",
                    name.c_str(), edges.num_nodes(), edges.size());

        core::PipelineConfig config;
        config.walk.walks_per_node =
            static_cast<unsigned>(cli.get_int("walks"));
        config.walk.max_length =
            static_cast<unsigned>(cli.get_int("length"));
        config.walk.transition =
            walk::parse_transition(cli.get_string("transition"));
        config.walk.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
        config.sgns.dim = static_cast<unsigned>(cli.get_int("dim"));
        config.sgns.seed = config.walk.seed;
        config.classifier.max_epochs =
            static_cast<unsigned>(cli.get_int("epochs"));
        if (cli.get_switch("batched-w2v")) {
            config.sgns.batch_sentences = embed::kPaperBatchSentences;
        }

        const core::PipelineResult result =
            core::run_link_prediction_pipeline(edges, config);

        std::printf("test accuracy : %.4f\n", result.task.test_accuracy);
        std::printf("test AUC      : %.4f\n", result.task.test_auc);
        std::printf("valid accuracy: %.4f\n", result.task.valid_accuracy);
        std::printf("train loss    : %.4f (%u epochs)\n",
                    result.task.final_train_loss, result.task.epochs_run);
        std::printf("%s\n", core::format_phase_times(result.times).c_str());

        if (const std::string path = cli.get_string("save-embeddings");
            !path.empty()) {
            // Re-run just the front-end to materialize embeddings for
            // the user (the pipeline consumed its own copy).
            const auto graph = graph::GraphBuilder::build(
                edges, {.symmetrize = true});
            const walk::Corpus corpus =
                walk::generate_walks(graph, config.walk);
            const embed::Embedding embedding = embed::train_sgns(
                corpus, graph.num_nodes(), config.sgns);
            embedding.save_file(path);
            std::printf("embeddings written to %s\n", path.c_str());
        }
    } catch (const util::Error& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
