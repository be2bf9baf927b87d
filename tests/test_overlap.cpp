/// Tests for the overlapped walk→word2vec front end: sharded walk
/// generation must be bit-identical to the sequential corpus, the
/// streaming trainer's exact counts must match the vocabulary's, the
/// rebuilt negative table must be statistically equivalent to the
/// sequential one, plan_overlap's gates must fire, and shard
/// checkpoints must round-trip and drive resume.
#include "core/overlap.hpp"

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "embed/negative_table.hpp"
#include "embed/streaming_trainer.hpp"
#include "embed/trainer.hpp"
#include "embed/vocab.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "util/shard_queue.hpp"
#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <unistd.h>

namespace tgl::core {
namespace {

/// A fresh directory unique to this process: ctest runs this binary
/// whole under a label and case by case at the same time.
std::string
scratch_dir(const std::string& name)
{
    const std::string path = testing::TempDir() + "/tgl_overlap_" +
                             std::to_string(getpid()) + "_" + name;
    std::filesystem::remove_all(path);
    return path;
}

/// Ring with chords and increasing timestamps — every node reachable,
/// every walk slot productive.
graph::EdgeList
test_edges(graph::NodeId n = 60)
{
    graph::EdgeList edges;
    for (graph::NodeId u = 0; u < n; ++u) {
        edges.add(u, (u + 1) % n, 0.01 * u);
        edges.add(u, (u + 7) % n, 0.01 * u + 0.005);
        edges.add(u, (u + 13) % n, 0.01 * u + 0.007);
    }
    return edges;
}

graph::TemporalGraph
test_graph(graph::NodeId n = 60)
{
    return graph::GraphBuilder::build(test_edges(n), {.symmetrize = true});
}

walk::WalkConfig
test_walk_config()
{
    walk::WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 8;
    config.seed = 77;
    config.transition_cache = walk::TransitionCacheMode::kOff;
    return config;
}

void
expect_same_corpus(const walk::Corpus& a, const walk::Corpus& b)
{
    ASSERT_EQ(a.num_walks(), b.num_walks());
    ASSERT_EQ(a.num_tokens(), b.num_tokens());
    for (std::size_t s = 0; s < a.num_walks(); ++s) {
        const auto wa = a.walk(s);
        const auto wb = b.walk(s);
        ASSERT_EQ(wa.size(), wb.size()) << "walk " << s;
        for (std::size_t i = 0; i < wa.size(); ++i) {
            ASSERT_EQ(wa[i], wb[i]) << "walk " << s << " token " << i;
        }
    }
}

TEST(WalkShards, RangesPartitionTheSlotSpace)
{
    for (const std::size_t total : {1u, 7u, 64u, 240u}) {
        for (const std::size_t shards : {1u, 3u, 7u, 64u}) {
            if (shards > total) {
                continue;
            }
            std::size_t covered = 0;
            std::size_t expected_begin = 0;
            for (std::size_t i = 0; i < shards; ++i) {
                const walk::SlotRange range =
                    walk::walk_shard_range(total, shards, i);
                EXPECT_EQ(range.begin, expected_begin);
                EXPECT_GT(range.end, range.begin);
                covered += range.size();
                expected_begin = range.end;
            }
            EXPECT_EQ(covered, total);
        }
    }
}

TEST(WalkShards, ConcatenationIsBitIdenticalToSequential)
{
    const auto graph = test_graph();
    const walk::WalkConfig config = test_walk_config();
    const walk::Corpus sequential = walk::generate_walks(graph, config);

    const std::size_t total = walk::total_walk_slots(graph, config);
    for (const std::size_t shards : {1u, 5u, 9u}) {
        walk::Corpus assembled;
        walk::WalkProfile profile;
        for (std::size_t i = 0; i < shards; ++i) {
            assembled.append(walk::generate_walk_shard(
                graph, config, nullptr,
                walk::walk_shard_range(total, shards, i), &profile));
        }
        expect_same_corpus(assembled, sequential);
    }
}

TEST(StreamingTrainer, AssembledCorpusAndCountsMatchSequential)
{
    const auto graph = test_graph();
    const walk::WalkConfig wconfig = test_walk_config();
    const walk::Corpus sequential = walk::generate_walks(graph, wconfig);

    constexpr std::size_t kShards = 6;
    const std::size_t total = walk::total_walk_slots(graph, wconfig);
    util::ShardQueue<walk::CorpusShard> queue(kShards);
    // Push the shards out of order: the assembler must still produce
    // the sequential corpus.
    for (const std::size_t i : {3u, 0u, 5u, 1u, 4u, 2u}) {
        ASSERT_TRUE(queue.push(
            {i, walk::generate_walk_shard(
                    graph, wconfig, nullptr,
                    walk::walk_shard_range(total, kShards, i))}));
    }
    queue.close();

    embed::StreamingSgnsConfig streaming;
    streaming.sgns.dim = 8;
    streaming.sgns.epochs = 2;
    streaming.sgns.seed = 5;
    streaming.consumer_threads = 2;
    streaming.total_token_estimate = sequential.num_tokens();
    std::vector<double> prior(graph.num_nodes(), 1.0);
    const embed::StreamingResult result = embed::train_sgns_streaming(
        queue, graph.num_nodes(), prior, streaming);

    expect_same_corpus(result.corpus, sequential);

    // Exact counts accumulated shard-by-shard == the vocabulary the
    // sequential trainer would have built from the full corpus.
    const embed::Vocab vocab(sequential);
    std::uint64_t total_counted = 0;
    for (graph::NodeId node = 0; node < graph.num_nodes(); ++node) {
        const embed::WordId word = vocab.word_of(node);
        const std::uint64_t expected =
            word == embed::kNoWord ? 0 : vocab.count(word);
        EXPECT_EQ(result.counts[node], expected) << "node " << node;
        total_counted += result.counts[node];
    }
    EXPECT_EQ(total_counted, sequential.num_tokens());
    EXPECT_EQ(result.stats.tokens_processed,
              sequential.num_tokens() * streaming.sgns.epochs);
    EXPECT_EQ(result.embedding.num_nodes(), graph.num_nodes());
}

TEST(StreamingTrainer, RebuiltNegativeTableIsStatisticallyEquivalent)
{
    // The overlap path rebuilds the unigram^0.75 table from exact
    // counts in *node* space; the sequential trainer builds it from
    // the Vocab in *word* space. Draw from both and chi-square each
    // empirical node distribution against the shared analytic one.
    const auto graph = test_graph(40);
    const walk::Corpus corpus =
        walk::generate_walks(graph, test_walk_config());
    const embed::Vocab vocab(corpus);

    std::vector<std::uint64_t> counts(graph.num_nodes(), 0);
    for (const graph::NodeId node : corpus.tokens()) {
        ++counts[node];
    }
    std::vector<double> expected(graph.num_nodes());
    double norm = 0.0;
    for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
        expected[v] = std::pow(static_cast<double>(counts[v]), 0.75);
        norm += expected[v];
    }

    constexpr std::uint64_t kDraws = 200000;
    const auto chi_square = [&](const std::vector<std::uint64_t>& hits) {
        double chi2 = 0.0;
        for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
            const double want = kDraws * expected[v] / norm;
            const double diff = static_cast<double>(hits[v]) - want;
            chi2 += diff * diff / want;
        }
        return chi2;
    };

    const embed::NegativeTable from_counts(counts);
    std::vector<std::uint64_t> count_hits(graph.num_nodes(), 0);
    rng::Random random_a(123);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        ++count_hits[from_counts.sample(random_a)];
    }

    const embed::NegativeTable from_vocab(vocab);
    std::vector<std::uint64_t> vocab_hits(graph.num_nodes(), 0);
    rng::Random random_b(456);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        ++vocab_hits[vocab.node_of(static_cast<embed::WordId>(
            from_vocab.sample(random_b)))];
    }

    // 39 dof, 99.9% critical value ~72.1 — both tables must track the
    // same analytic unigram^0.75 law.
    EXPECT_LT(chi_square(count_hits), 72.1);
    EXPECT_LT(chi_square(vocab_hits), 72.1);
}

TEST(PlanOverlap, GatesAndDecisions)
{
    const auto graph = test_graph();
    PipelineConfig config;
    config.walk = test_walk_config();
    config.sgns.dim = 16;
    config.sgns.epochs = 2;
    config.walk.num_threads = 4;
    config.sgns.num_threads = 4;

    config.overlap = OverlapMode::kOff;
    EXPECT_FALSE(plan_overlap(graph, config).enabled);

    config.overlap = OverlapMode::kOn;
    const OverlapPlan on = plan_overlap(graph, config);
    ASSERT_TRUE(on.enabled);
    EXPECT_GE(on.num_shards, 1u);
    EXPECT_GE(on.producer_threads, 1u);
    EXPECT_GE(on.consumer_threads, 1u);
    EXPECT_EQ(on.producer_threads + on.consumer_threads, 4u);
    EXPECT_GE(on.queue_capacity, 2u);
    EXPECT_FALSE(on.decision.empty());
    EXPECT_LE(on.num_shards,
              walk::total_walk_slots(graph, config.walk));

    // Explicit shard override wins.
    config.overlap_shards = 3;
    EXPECT_EQ(plan_overlap(graph, config).num_shards, 3u);
    config.overlap_shards = 0;

    // Rounds of a set size cannot be cut from a stream.
    config.sgns.batch_sentences = embed::kPaperBatchSentences;
    EXPECT_FALSE(plan_overlap(graph, config).enabled);
    config.sgns.batch_sentences = 0;

    // min-count filtering needs global counts up front.
    config.sgns.min_count = 2;
    EXPECT_FALSE(plan_overlap(graph, config).enabled);
    config.sgns.min_count = 1;

    // kAuto needs a team of at least two.
    config.overlap = OverlapMode::kAuto;
    config.walk.num_threads = 1;
    config.sgns.num_threads = 1;
    const OverlapPlan solo = plan_overlap(graph, config);
    EXPECT_FALSE(solo.enabled);
    EXPECT_NE(solo.decision.find("one thread"), std::string::npos);

    // kAuto backs off when one phase dwarfs the other (heavy w2v).
    config.walk.num_threads = 4;
    config.sgns.num_threads = 4;
    config.sgns.dim = 128;
    config.sgns.epochs = 20;
    config.sgns.window = 10;
    const OverlapPlan skewed = plan_overlap(graph, config);
    EXPECT_FALSE(skewed.enabled);
    EXPECT_NE(skewed.decision.find("ratio"), std::string::npos);
}

TEST(OverlapFrontEnd, CorpusMatchesSequentialAcrossThreadCounts)
{
    const auto graph = test_graph();
    PipelineConfig config;
    config.walk = test_walk_config();
    config.sgns.dim = 8;
    config.sgns.epochs = 1;
    config.sgns.seed = 9;
    config.overlap = OverlapMode::kOn;
    const walk::Corpus sequential =
        walk::generate_walks(graph, config.walk);

    for (const unsigned producers : {1u, 3u}) {
        for (const unsigned consumers : {1u, 2u}) {
            OverlapPlan plan;
            plan.enabled = true;
            plan.num_shards = 7;
            plan.producer_threads = producers;
            plan.consumer_threads = consumers;
            plan.queue_capacity = 2;
            const OverlapFrontEnd out = run_overlapped_front_end(
                graph, config, nullptr, plan, nullptr, 0);
            expect_same_corpus(out.corpus, sequential);
            EXPECT_TRUE(out.stats.used);
            EXPECT_EQ(out.stats.shards, 7u);
            EXPECT_GT(out.wall_seconds, 0.0);
            EXPECT_GE(out.walk_profile.walks_started,
                      sequential.num_walks());
            EXPECT_EQ(out.embedding.num_nodes(), graph.num_nodes());
        }
    }
}

TEST(OverlapFrontEnd, ReportsTheLastAlphaApplied)
{
    // The replay epochs train through train_sgns's round loop, so the
    // gauge reads the pure schedule's rate at the final sentence of the
    // final epoch, not the starting rate.
    const auto graph = test_graph();
    PipelineConfig config;
    config.walk = test_walk_config();
    config.sgns.dim = 8;
    config.sgns.epochs = 3;
    config.sgns.num_threads = 2;
    config.overlap = OverlapMode::kOn;
    OverlapPlan plan;
    plan.enabled = true;
    plan.num_shards = 4;
    plan.producer_threads = 1;
    plan.consumer_threads = 1;
    plan.queue_capacity = 2;

    const OverlapFrontEnd out =
        run_overlapped_front_end(graph, config, nullptr, plan, nullptr, 0);
    const walk::Corpus& corpus = out.corpus;
    const float last_alpha = embed::sgns_alpha(
        config.sgns, config.sgns.epochs - 1,
        corpus.offsets()[corpus.num_walks() - 1], corpus.num_tokens());
    EXPECT_LT(last_alpha, 0.1f * config.sgns.alpha);
    EXPECT_EQ(obs::Registry::global().snapshot().value("sgns.alpha"),
              static_cast<double>(last_alpha));
}

TEST(ShardCheckpoints, FingerprintSeparatesPartitions)
{
    const std::uint64_t base = shard_fingerprint(42, 0, 8);
    EXPECT_NE(base, shard_fingerprint(43, 0, 8)); // walk inputs changed
    EXPECT_NE(base, shard_fingerprint(42, 1, 8)); // different shard
    EXPECT_NE(base, shard_fingerprint(42, 0, 9)); // partition changed
}

TEST(ShardCheckpoints, RoundTripAndStaleRejection)
{
    const CheckpointManager manager(scratch_dir("shards"));
    walk::Corpus shard;
    const graph::NodeId walk1[] = {3, 1, 4, 1, 5};
    const graph::NodeId walk2[] = {9, 2, 6};
    shard.add_walk(walk1);
    shard.add_walk(walk2);

    const std::uint64_t fp = shard_fingerprint(7, 2, 4);
    manager.store_corpus_shard(fp, 2, shard);

    walk::Corpus loaded;
    ASSERT_TRUE(manager.load_corpus_shard(fp, 2, loaded));
    expect_same_corpus(loaded, shard);

    walk::Corpus stale;
    EXPECT_FALSE(manager.load_corpus_shard(
        shard_fingerprint(8, 2, 4), 2, stale)); // different walk inputs
    EXPECT_FALSE(
        manager.load_corpus_shard(fp, 3, stale)); // no such shard file
}

TEST(OverlapFrontEnd, ResumesFromShardCheckpoints)
{
    const auto graph = test_graph();
    PipelineConfig config;
    config.walk = test_walk_config();
    config.sgns.dim = 8;
    config.sgns.epochs = 1;
    config.overlap = OverlapMode::kOn;

    OverlapPlan plan;
    plan.enabled = true;
    plan.num_shards = 5;
    plan.producer_threads = 2;
    plan.consumer_threads = 1;
    plan.queue_capacity = 2;

    const CheckpointManager manager(scratch_dir("resume"));
    const std::uint64_t walk_fp = 4242;
    const OverlapFrontEnd first = run_overlapped_front_end(
        graph, config, nullptr, plan, &manager, walk_fp);
    EXPECT_EQ(first.shards_stored, 5u);
    EXPECT_EQ(first.shards_loaded, 0u);

    const OverlapFrontEnd second = run_overlapped_front_end(
        graph, config, nullptr, plan, &manager, walk_fp);
    EXPECT_EQ(second.shards_loaded, 5u);
    EXPECT_EQ(second.shards_stored, 0u);
    expect_same_corpus(second.corpus, first.corpus);

    // A different partition invalidates every shard artifact.
    OverlapPlan repartitioned = plan;
    repartitioned.num_shards = 4;
    const OverlapFrontEnd third = run_overlapped_front_end(
        graph, config, nullptr, repartitioned, &manager, walk_fp);
    EXPECT_EQ(third.shards_loaded, 0u);
    EXPECT_EQ(third.shards_stored, 4u);
    expect_same_corpus(third.corpus, first.corpus);
}

TEST(Pipeline, OverlapOnMatchesOffEndToEnd)
{
    const graph::EdgeList edges = test_edges(80);
    PipelineConfig config;
    config.walk = test_walk_config();
    config.walk.num_threads = 2;
    config.sgns.dim = 8;
    config.sgns.epochs = 2;
    config.sgns.num_threads = 2;
    config.classifier.max_epochs = 2;

    config.overlap = OverlapMode::kOff;
    const PipelineResult off = run_link_prediction_pipeline(edges, config);
    EXPECT_FALSE(off.overlap.used);
    EXPECT_EQ(off.times.walk_w2v_wall, 0.0);

    config.overlap = OverlapMode::kOn;
    const PipelineResult on = run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(on.overlap.used);
    EXPECT_GT(on.overlap.shards, 0u);
    EXPECT_FALSE(on.overlap.decision.empty());
    EXPECT_GT(on.times.walk_w2v_wall, 0.0);
    // total() must charge the fused wall, not the (overlapping) phase
    // busy times.
    EXPECT_NEAR(on.times.total(),
                on.times.build_graph + on.times.walk_w2v_wall +
                    on.times.data_prep + on.times.train + on.times.test,
                1e-9);

    // Identical corpus → identical split and label sets; accuracy in a
    // sane band even though Hogwild epoch-0 ordering differs.
    EXPECT_EQ(on.corpus_walks, off.corpus_walks);
    EXPECT_EQ(on.corpus_tokens, off.corpus_tokens);
    EXPECT_GT(on.task.test_accuracy, 0.4);
    EXPECT_LE(on.task.test_accuracy, 1.0);
}

TEST(Pipeline, AutoFallsBackToSequentialOnOneThread)
{
    const graph::EdgeList edges = test_edges(40);
    PipelineConfig config;
    config.walk = test_walk_config();
    config.walk.num_threads = 1;
    config.sgns.dim = 8;
    config.sgns.epochs = 1;
    config.sgns.num_threads = 1;
    config.classifier.max_epochs = 2;
    config.overlap = OverlapMode::kAuto;

    const PipelineResult result =
        run_link_prediction_pipeline(edges, config);
    EXPECT_FALSE(result.overlap.used);
    EXPECT_FALSE(result.overlap.decision.empty());
    EXPECT_EQ(result.times.walk_w2v_wall, 0.0);
}

TEST(Pipeline, OverlapModeParsing)
{
    EXPECT_EQ(parse_overlap_mode("off"), OverlapMode::kOff);
    EXPECT_EQ(parse_overlap_mode("on"), OverlapMode::kOn);
    EXPECT_EQ(parse_overlap_mode("auto"), OverlapMode::kAuto);
    EXPECT_FALSE(parse_overlap_mode("sideways").has_value());
    EXPECT_EQ(overlap_mode_name(OverlapMode::kAuto),
              std::string("auto"));
}

TEST(Pipeline, ValidateRejectsIncompatibleOverlapOn)
{
    PipelineConfig config;
    config.overlap = OverlapMode::kOn;
    config.sgns.batch_sentences = embed::kPaperBatchSentences;
    EXPECT_FALSE(config.validate().empty());

    config.sgns.batch_sentences = 0;
    config.sgns.min_count = 2;
    EXPECT_FALSE(config.validate().empty());

    config.sgns.min_count = 1;
    EXPECT_TRUE(config.validate().empty());
}

} // namespace
} // namespace tgl::core
