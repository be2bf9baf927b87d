/// End-to-end pipeline integration tests on catalog datasets.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace tgl::core {
namespace {

/// Per-dataset scale keeping every stand-in test-suite fast while
/// leaving enough signal to clear the accuracy bars.
double
dataset_scale(const std::string& name)
{
    if (name == "stackoverflow") {
        return 0.001;
    }
    if (name == "wiki-talk") {
        return 0.005;
    }
    if (name == "ia-email") {
        return 0.02;
    }
    if (name == "brain") {
        return 0.2;
    }
    return 0.3; // dblp3 / dblp5
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return (values[(n - 1) / 2] + values[n / 2]) / 2.0;
}

PipelineConfig
fast_pipeline()
{
    PipelineConfig config;
    config.walk.walks_per_node = 10;
    config.walk.max_length = 6;
    config.walk.seed = 3;
    // The accuracy thresholds below were tuned against the direct
    // sampler's RNG draw sequence. The prefix-CDF cache draws once per
    // step instead of once per candidate — statistically equivalent
    // (tests/test_walk_transition_cache.cpp) but a different corpus at
    // this tiny scale, so pin the sampler the thresholds were set for.
    config.walk.transition_cache = walk::TransitionCacheMode::kOff;
    config.sgns.dim = 8;
    config.sgns.epochs = 12; // small stand-in corpora need more passes
    config.sgns.seed = 3;
    config.classifier.max_epochs = 20;
    return config;
}

TEST(Pipeline, LinkPredictionEndToEnd)
{
    // Quality over 12 seeds (dataset, walk and SGNS seeds together):
    // one seed's accuracy spreads 0.53-0.61 around a median of 0.57, so
    // a single-seed bar is a coin toss. The median bars sit 0.014
    // (accuracy) and 0.035 (AUC) below the lowest 12-seed medians of 5
    // repeats on a 4-core host: 0.564 / 0.635 for the shared-matrix
    // Hogwild trainer, 0.573 / 0.645 with private output copies.
    constexpr std::uint64_t kSeeds = 12;
    std::vector<double> accuracy;
    std::vector<double> auc;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const gen::Dataset dataset =
            gen::make_dataset("ia-email", 0.02, seed);
        PipelineConfig config = fast_pipeline();
        config.walk.seed = seed;
        config.sgns.seed = seed;
        const PipelineResult result = run_pipeline(dataset, config);

        EXPECT_GT(result.num_nodes, 0u);
        EXPECT_GT(result.num_edges, 0u);
        EXPECT_GT(result.corpus_walks, 0u);
        EXPECT_GT(result.corpus_tokens, result.corpus_walks);
        // Phase breakdown populated.
        EXPECT_GT(result.times.random_walk, 0.0);
        EXPECT_GT(result.times.word2vec, 0.0);
        EXPECT_GT(result.times.train, 0.0);
        EXPECT_GT(result.times.total(), 0.0);
        // Every seed beats a coin flip on ranking.
        EXPECT_GT(result.task.test_auc, 0.5) << "seed " << seed;
        accuracy.push_back(result.task.test_accuracy);
        auc.push_back(result.task.test_auc);
    }
    EXPECT_GT(median(accuracy), 0.55);
    EXPECT_GT(median(auc), 0.60);
}

TEST(Pipeline, NodeClassificationEndToEnd)
{
    const gen::Dataset dataset = gen::make_dataset("dblp3", 0.25, 2);
    const PipelineResult result =
        run_pipeline(dataset, fast_pipeline());
    // Chance = 1/3 for dblp3.
    EXPECT_GT(result.task.test_accuracy, 0.5);
    EXPECT_GT(result.task.test_macro_f1, 0.4);
}

TEST(Pipeline, BatchedW2vModeMatchesQuality)
{
    // The Fig. 5 claim: batched execution (stale reads) costs no
    // accuracy relative to Hogwild on the same data.
    const gen::Dataset dataset = gen::make_dataset("ia-email", 0.02, 4);
    PipelineConfig config = fast_pipeline();
    const PipelineResult hogwild = run_pipeline(dataset, config);

    config.w2v_mode = W2vMode::kBatched;
    // Batch well below the corpus size, like the paper's 16k batch vs
    // its multi-million-sentence corpora.
    config.w2v_batch_size = 512;
    const PipelineResult batched = run_pipeline(dataset, config);

    EXPECT_GT(batched.w2v_stats.pairs_trained, 0u);
    EXPECT_GT(batched.task.test_auc, 0.6);
    EXPECT_GT(batched.task.test_auc, hogwild.task.test_auc - 0.05);
    EXPECT_GT(batched.task.test_accuracy,
              hogwild.task.test_accuracy - 0.05);
}

TEST(Pipeline, WalkProfilePopulated)
{
    const gen::Dataset dataset = gen::make_dataset("dblp5", 0.2, 5);
    const PipelineResult result =
        run_pipeline(dataset, fast_pipeline());
    EXPECT_GT(result.walk_profile.walks_started, 0u);
    EXPECT_GT(result.walk_profile.steps_taken, 0u);
    EXPECT_EQ(result.walk_profile.walks_kept, result.corpus_walks);
}

TEST(Pipeline, MoreWalksImproveOrMaintainAccuracy)
{
    // Fig. 8b's qualitative claim, smoke-tested at two points: K = 1
    // vs K = 10 on the same dataset (allowing noise slack).
    const gen::Dataset dataset = gen::make_dataset("ia-email", 0.02, 6);
    PipelineConfig config = fast_pipeline();
    config.walk.walks_per_node = 1;
    const double few =
        run_pipeline(dataset, config).task.test_auc;
    config.walk.walks_per_node = 10;
    const double many =
        run_pipeline(dataset, config).task.test_auc;
    EXPECT_GT(many, few - 0.05);
}

TEST(Pipeline, TemporalWalksBeatStaticOnDriftingGraph)
{
    // On a drifting SBM the current community structure is only
    // visible to time-respecting walks; the static (DeepWalk) baseline
    // blends stale and current edges. Temporal must win decisively on
    // both downstream tasks (see bench/ablation_baselines).
    gen::DriftingSbmParams params;
    params.num_nodes = 400;
    params.num_edges = 12000;
    params.num_communities = 4;
    params.switch_fraction = 0.6;
    params.seed = 9;
    const gen::LabeledGraph drifting = gen::generate_drifting_sbm(params);

    PipelineConfig config = fast_pipeline();
    config.walk.temporal = false;
    const PipelineResult static_result =
        run_node_classification_pipeline(drifting.edges, drifting.labels,
                                         params.num_communities, config);
    config.walk.temporal = true;
    const PipelineResult temporal_result =
        run_node_classification_pipeline(drifting.edges, drifting.labels,
                                         params.num_communities, config);

    EXPECT_GT(temporal_result.task.test_accuracy,
              static_result.task.test_accuracy + 0.1);
    EXPECT_GT(temporal_result.task.test_accuracy, 0.75);
}

TEST(Pipeline, EdgeStartWalksWorkEndToEnd)
{
    const gen::Dataset dataset = gen::make_dataset("ia-email", 0.02, 1);
    PipelineConfig config = fast_pipeline();
    config.walk.start = walk::StartKind::kTemporalEdge;
    const PipelineResult result = run_pipeline(dataset, config);
    EXPECT_GT(result.task.test_auc, 0.6);
}

TEST(Pipeline, ResidualClassifierWorksEndToEnd)
{
    const gen::Dataset dataset = gen::make_dataset("ia-email", 0.02, 1);
    PipelineConfig config = fast_pipeline();
    config.classifier.residual = true;
    config.classifier.lr = 0.02f;
    const PipelineResult result = run_pipeline(dataset, config);
    // Parity-or-near claim only: synthetic stand-ins give the extra
    // capacity nothing to use (see ablation_baselines).
    EXPECT_GT(result.task.test_auc, 0.55);
}

TEST(Pipeline, FormatPhaseTimesMentionsAllPhases)
{
    PhaseTimes times;
    times.random_walk = 1.0;
    const std::string text = format_phase_times(times);
    EXPECT_NE(text.find("rwalk"), std::string::npos);
    EXPECT_NE(text.find("word2vec"), std::string::npos);
    EXPECT_NE(text.find("train"), std::string::npos);
    EXPECT_NE(text.find("test"), std::string::npos);
}

TEST(Pipeline, RunsOnRawEdgeListEntryPoint)
{
    const gen::Dataset dataset = gen::make_dataset("ia-email", 0.01, 7);
    const PipelineResult result = run_link_prediction_pipeline(
        dataset.edges, fast_pipeline());
    EXPECT_GT(result.task.test_accuracy, 0.5);
}

/// Property sweep: the pipeline runs end-to-end on every catalog
/// stand-in and beats chance on its task.
class CatalogPipeline : public ::testing::TestWithParam<const char*>
{
};

TEST_P(CatalogPipeline, BeatsChanceOnEveryDataset)
{
    const gen::Dataset dataset = gen::make_dataset(
        GetParam(), dataset_scale(GetParam()), 3);
    PipelineConfig config = fast_pipeline();
    config.classifier.max_epochs = 15;
    const PipelineResult result = run_pipeline(dataset, config);

    if (dataset.task == gen::Task::kLinkPrediction) {
        EXPECT_GT(result.task.test_auc, 0.55) << GetParam();
    } else {
        const double chance = 1.0 / dataset.num_classes;
        EXPECT_GT(result.task.test_accuracy, chance + 0.15)
            << GetParam();
    }
    EXPECT_GT(result.corpus_walks, 0u);
    EXPECT_GT(result.times.total(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, CatalogPipeline,
                         ::testing::Values("ia-email", "wiki-talk",
                                           "stackoverflow", "dblp3",
                                           "dblp5", "brain"));

TEST(Pipeline, SingleThreadFullyDeterministic)
{
    const gen::Dataset dataset = gen::make_dataset("dblp3", 0.25, 4);
    PipelineConfig config = fast_pipeline();
    config.walk.num_threads = 1;
    config.sgns.num_threads = 1;
    config.sgns.epochs = 4;
    config.classifier.max_epochs = 5;
    const PipelineResult a = run_pipeline(dataset, config);
    const PipelineResult b = run_pipeline(dataset, config);
    EXPECT_DOUBLE_EQ(a.task.test_accuracy, b.task.test_accuracy);
    EXPECT_DOUBLE_EQ(a.task.final_train_loss, b.task.final_train_loss);
    EXPECT_EQ(a.corpus_tokens, b.corpus_tokens);
}

} // namespace
} // namespace tgl::core
