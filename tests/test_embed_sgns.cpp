/// Behavioral tests for the SGNS trainers: embeddings must place
/// co-occurring nodes close and non-co-occurring nodes far, under the
/// Hogwild trainer, the batched trainer, and every optimization knob.
#include "embed/batched_trainer.hpp"
#include "embed/trainer.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

namespace tgl::embed {
namespace {

constexpr graph::NodeId kNumNodes = 20;

/// Corpus with two disjoint "communities" (0-9 and 10-19): sentences
/// only ever mix nodes within one community.
walk::Corpus
two_community_corpus(std::uint64_t seed, std::size_t sentences = 800)
{
    rng::Random random(seed);
    walk::Corpus corpus;
    std::vector<graph::NodeId> sentence;
    for (std::size_t s = 0; s < sentences; ++s) {
        const graph::NodeId base = (s % 2 == 0) ? 0 : 10;
        sentence.clear();
        for (int i = 0; i < 6; ++i) {
            sentence.push_back(
                base + static_cast<graph::NodeId>(random.next_index(10)));
        }
        corpus.add_walk(sentence);
    }
    return corpus;
}

/// Mean intra-community minus inter-community cosine similarity; a
/// well-trained embedding gives a clearly positive margin.
double
separation_margin(const Embedding& embedding)
{
    double intra = 0.0, inter = 0.0;
    int intra_count = 0, inter_count = 0;
    for (graph::NodeId u = 0; u < kNumNodes; ++u) {
        for (graph::NodeId v = u + 1; v < kNumNodes; ++v) {
            const bool same = (u < 10) == (v < 10);
            const double cos = embedding.cosine(u, v);
            if (same) {
                intra += cos;
                ++intra_count;
            } else {
                inter += cos;
                ++inter_count;
            }
        }
    }
    return intra / intra_count - inter / inter_count;
}

SgnsConfig
fast_config()
{
    SgnsConfig config;
    config.dim = 8;
    config.window = 3;
    config.negatives = 4;
    config.epochs = 8;
    config.seed = 5;
    config.num_threads = 2;
    return config;
}

TEST(Sgns, HogwildSeparatesCommunities)
{
    TrainStats stats;
    const Embedding embedding = train_sgns(
        two_community_corpus(1), kNumNodes, fast_config(), &stats);
    EXPECT_GT(separation_margin(embedding), 0.5);
    EXPECT_GT(stats.pairs_trained, 0u);
    EXPECT_GT(stats.tokens_processed, 0u);
    EXPECT_GT(stats.seconds, 0.0);
}

TEST(Sgns, BatchedSeparatesCommunities)
{
    BatchedSgnsConfig config;
    config.sgns = fast_config();
    config.batch_size = 64;
    TrainStats stats;
    const Embedding embedding = train_sgns_batched(
        two_community_corpus(2), kNumNodes, config, &stats);
    EXPECT_GT(separation_margin(embedding), 0.5);
    EXPECT_GT(stats.pairs_trained, 0u);
}

TEST(Sgns, BatchedQualityInsensitiveToBatchSize)
{
    // The paper's Fig. 5 claim: batching (stale reads) costs no
    // accuracy. Compare tiny and huge batches on the same corpus.
    BatchedSgnsConfig config;
    config.sgns = fast_config();
    config.batch_size = 1;
    const Embedding small_batch = train_sgns_batched(
        two_community_corpus(3), kNumNodes, config);
    config.batch_size = 100000;
    const Embedding large_batch = train_sgns_batched(
        two_community_corpus(3), kNumNodes, config);
    EXPECT_GT(separation_margin(small_batch), 0.5);
    EXPECT_GT(separation_margin(large_batch), 0.5);
}

TEST(Sgns, PaddedRowsMatchQuality)
{
    // Cache-line padding (row_stride 16 at dim 8) changes layout only.
    SgnsConfig config = fast_config();
    config.row_stride = 16;
    const Embedding embedding =
        train_sgns(two_community_corpus(4), kNumNodes, config);
    EXPECT_EQ(embedding.dim(), 8u);
    EXPECT_GT(separation_margin(embedding), 0.5);
}

TEST(Sgns, ScalarPathMatchesQuality)
{
    SgnsConfig config = fast_config();
    config.vectorized = false;
    const Embedding embedding =
        train_sgns(two_community_corpus(5), kNumNodes, config);
    EXPECT_GT(separation_margin(embedding), 0.5);
}

TEST(Sgns, EmbeddingDimensionRespected)
{
    SgnsConfig config = fast_config();
    config.dim = 16;
    config.epochs = 1;
    const Embedding embedding =
        train_sgns(two_community_corpus(6), kNumNodes, config);
    EXPECT_EQ(embedding.dim(), 16u);
    EXPECT_EQ(embedding.num_nodes(), kNumNodes);
}

TEST(Sgns, NodesOutsideCorpusGetZeroRows)
{
    const Embedding embedding = train_sgns(
        two_community_corpus(7), kNumNodes + 5, fast_config());
    for (graph::NodeId u = kNumNodes; u < kNumNodes + 5; ++u) {
        for (float v : embedding.row(u)) {
            EXPECT_EQ(v, 0.0f);
        }
    }
}

TEST(Sgns, TrainedRowsAreNonZero)
{
    const Embedding embedding =
        train_sgns(two_community_corpus(8), kNumNodes, fast_config());
    for (graph::NodeId u = 0; u < kNumNodes; ++u) {
        double norm = 0.0;
        for (float v : embedding.row(u)) {
            norm += static_cast<double>(v) * static_cast<double>(v);
        }
        EXPECT_GT(norm, 0.0) << "node " << u;
    }
}

TEST(Sgns, MinCountExcludesRareNodes)
{
    walk::Corpus corpus = two_community_corpus(9);
    const graph::NodeId rare[] = {25, 26};
    corpus.add_walk(rare);
    SgnsConfig config = fast_config();
    config.min_count = 3;
    const Embedding embedding = train_sgns(corpus, 30, config);
    for (float v : embedding.row(25)) {
        EXPECT_EQ(v, 0.0f);
    }
}

TEST(Sgns, SubsamplingStillTrains)
{
    SgnsConfig config = fast_config();
    config.subsample = 1e-3;
    config.epochs = 40; // subsampling drops most tokens on tiny corpora
    TrainStats stats;
    const Embedding embedding = train_sgns(two_community_corpus(10),
                                           kNumNodes, config, &stats);
    EXPECT_GT(stats.pairs_trained, 0u);
    EXPECT_GT(separation_margin(embedding), 0.2);
}

TEST(Sgns, SharedNegativesMatchQuality)
{
    // The shared-negative-pool optimization must not hurt embedding
    // quality when batches are small relative to the corpus.
    BatchedSgnsConfig config;
    config.sgns = fast_config();
    config.batch_size = 32;
    config.shared_negatives = true;
    TrainStats stats;
    const Embedding embedding = train_sgns_batched(
        two_community_corpus(14), kNumNodes, config, &stats);
    EXPECT_GT(separation_margin(embedding), 0.5);
    EXPECT_GT(stats.pairs_trained, 0u);
}

TEST(Sgns, InvalidConfigThrows)
{
    const walk::Corpus corpus = two_community_corpus(11);
    SgnsConfig config = fast_config();
    config.epochs = 0;
    EXPECT_THROW(train_sgns(corpus, kNumNodes, config), util::Error);
    config = fast_config();
    config.window = 0;
    EXPECT_THROW(train_sgns(corpus, kNumNodes, config), util::Error);
    config = fast_config();
    config.dim = 0;
    EXPECT_THROW(train_sgns(corpus, kNumNodes, config), util::Error);
    config = fast_config();
    config.row_stride = 4; // < dim
    EXPECT_THROW(train_sgns(corpus, kNumNodes, config), util::Error);
}

TEST(Sgns, EmptyCorpusThrows)
{
    EXPECT_THROW(train_sgns(walk::Corpus{}, 10, fast_config()),
                 util::Error);
    BatchedSgnsConfig batched;
    batched.sgns = fast_config();
    EXPECT_THROW(train_sgns_batched(walk::Corpus{}, 10, batched),
                 util::Error);
}

TEST(Sgns, BatchedZeroBatchSizeThrows)
{
    BatchedSgnsConfig config;
    config.sgns = fast_config();
    config.batch_size = 0;
    EXPECT_THROW(
        train_sgns_batched(two_community_corpus(12), kNumNodes, config),
        util::Error);
}

TEST(Sgns, SingleThreadDeterministic)
{
    SgnsConfig config = fast_config();
    config.num_threads = 1;
    const Embedding a =
        train_sgns(two_community_corpus(13), kNumNodes, config);
    const Embedding b =
        train_sgns(two_community_corpus(13), kNumNodes, config);
    EXPECT_EQ(a.data(), b.data());
}

/// FNV-1a over the bit patterns of every embedding value.
std::uint64_t
embedding_hash(const Embedding& embedding)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const float value : embedding.data()) {
        std::uint32_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        hash = (hash ^ bits) * 1099511628211ULL;
    }
    return hash;
}

TEST(Sgns, SingleThreadMatchesGolden)
{
    // The one-thread path is bit-identical to the Hogwild trainer
    // before private output copies existed; the hash was recorded from
    // that trainer. The scalar backend keeps it independent of the
    // host's vector ISA.
    SgnsConfig config = fast_config();
    config.num_threads = 1;
    config.backend = kernels::SgnsBackend::kScalar;
    const Embedding embedding =
        train_sgns(two_community_corpus(13), kNumNodes, config);
    EXPECT_EQ(embedding_hash(embedding), 0x31fc240dffe85efeULL);
}

TEST(Sgns, MergeAddsEveryCopysChange)
{
    // Three rows of two floats; copy a changes row 0, copy b row 2, and
    // both change row 1.
    std::vector<float> master = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
    std::vector<float> a = master;
    std::vector<float> b = master;
    a[0] += 0.5f;
    a[1] -= 0.25f;
    a[2] += 1.0f;
    b[3] += 2.0f;
    b[4] -= 1.5f;
    b[5] += 0.125f;
    float* const copies[] = {a.data(), b.data()};

    // Merge in two slices, the way a team splits it.
    merge_output_copies(master.data(), copies, 0, 4);
    merge_output_copies(master.data(), copies, 4, master.size());

    // Disjoint rows land as if the changes were applied in sequence;
    // the shared row gets both changes.
    const std::vector<float> expected = {1.5f, 1.75f, 4.0f,
                                         6.0f, 3.5f,  6.125f};
    EXPECT_EQ(master, expected);
    EXPECT_EQ(a, expected);
    EXPECT_EQ(b, expected);
}

TEST(Sgns, AlphaScheduleIsLinearInTokenPosition)
{
    SgnsConfig config;
    config.alpha = 0.025f;
    config.epochs = 4;
    constexpr std::uint64_t kTokens = 1000;
    EXPECT_EQ(sgns_alpha(config, 0, 0, kTokens), 0.025f);
    // Halfway through the run: epoch 2 of 4, first token.
    EXPECT_FLOAT_EQ(sgns_alpha(config, 2, 0, kTokens), 0.0125f);
    // 3.5 epochs done: 1/8 of the run left.
    EXPECT_FLOAT_EQ(sgns_alpha(config, 3, 500, kTokens), 0.003125f);
    // The schedule never falls below alpha / 10^4.
    EXPECT_FLOAT_EQ(sgns_alpha(config, 3, kTokens, kTokens),
                    0.025f * 1e-4f);
    for (unsigned epoch = 0; epoch < config.epochs; ++epoch) {
        for (std::uint64_t t = 0; t < kTokens; t += 37) {
            const double done = static_cast<double>(epoch * kTokens + t);
            const double expected = std::max(
                0.025 * (1.0 - done / (4.0 * kTokens)), 0.025 * 1e-4);
            EXPECT_NEAR(sgns_alpha(config, epoch, t, kTokens), expected,
                        1e-8);
        }
    }
}

TEST(Sgns, GaugesReportTheRun)
{
    // Private copies need a team; this host's pool may not have one.
    if (util::ThreadPool::global().size() < 2) {
        GTEST_SKIP() << "one hardware thread: no team to copy for";
    }
    const walk::Corpus corpus = two_community_corpus(15);
    SgnsConfig config = fast_config();
    const auto train_and_scrape = [&](unsigned threads) {
        config.num_threads = threads;
        train_sgns(corpus, kNumNodes, config);
        return obs::Registry::global().snapshot();
    };

    const obs::MetricsSnapshot single = train_and_scrape(1);
    EXPECT_EQ(single.value("sgns.replica_bytes"), 0.0);
    EXPECT_EQ(single.value("sgns.merge_rounds"), 0.0);
    // The last alpha applied: the final sentence of the final epoch.
    const float last_alpha =
        sgns_alpha(config, config.epochs - 1,
                   corpus.offsets()[corpus.num_walks() - 1],
                   corpus.num_tokens());
    EXPECT_LT(last_alpha, 0.01f * config.alpha);
    EXPECT_EQ(single.value("sgns.alpha"), static_cast<double>(last_alpha));

    // 20 words of 8 floats fit any L2: one copy per thread. 800
    // sentences are less than one full round, so every epoch is cut
    // into the minimum of eight rounds of 100 sentences.
    const obs::MetricsSnapshot team = train_and_scrape(2);
    EXPECT_EQ(team.value("sgns.replica_bytes"),
              2.0 * kNumNodes * config.dim * sizeof(float));
    EXPECT_EQ(team.value("sgns.merge_rounds"),
              8.0 * static_cast<double>(config.epochs));
}

TEST(Sgns, BatchedLaunchesMergeCopiesOnlyWhenLargeEnough)
{
    if (util::ThreadPool::global().size() < 2) {
        GTEST_SKIP() << "one hardware thread: no team to copy for";
    }
    const walk::Corpus corpus = two_community_corpus(16);
    BatchedSgnsConfig config;
    config.sgns = fast_config();
    const auto train_and_scrape = [&](std::size_t batch_size) {
        config.batch_size = batch_size;
        train_sgns_batched(corpus, kNumNodes, config);
        return obs::Registry::global().snapshot();
    };

    // 100 sentences of 6 tokens outnumber the 2 x 20 rows of the two
    // copies: every launch merges, eight per epoch.
    const obs::MetricsSnapshot large = train_and_scrape(100);
    EXPECT_EQ(large.value("sgns.replica_bytes"),
              2.0 * kNumNodes * config.sgns.dim * sizeof(float));
    EXPECT_EQ(large.value("sgns.merge_rounds"),
              8.0 * static_cast<double>(config.sgns.epochs));

    // One sentence per launch: merging 40 rows after 6 tokens would
    // cost more than the launch, so the team shares the matrix.
    const obs::MetricsSnapshot small = train_and_scrape(1);
    EXPECT_EQ(small.value("sgns.replica_bytes"), 0.0);
    EXPECT_EQ(small.value("sgns.merge_rounds"), 0.0);
}

TEST(Sgns, FourThreadsSeparateCommunitiesAcrossSeeds)
{
    // Output rows merge at round boundaries, so a team trains from
    // stale output rows; the margin must still clear the single-run
    // bar above on every seed.
    SgnsConfig config = fast_config();
    config.num_threads = 4;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        config.seed = seed;
        const Embedding embedding = train_sgns(
            two_community_corpus(100 + seed), kNumNodes, config);
        EXPECT_GT(separation_margin(embedding), 0.5) << "seed " << seed;
    }
}

} // namespace
} // namespace tgl::embed
