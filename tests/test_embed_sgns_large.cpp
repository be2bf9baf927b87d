/// Tier-2 SGNS tests on matrices too large for per-thread output
/// copies: a team above the copy bound trains the shared output matrix
/// (Hogwild), which no lp-email-sized run reaches.
#include "embed/trainer.hpp"

#include "obs/metrics.hpp"
#include "rng/random.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tgl::embed {
namespace {

constexpr unsigned kDim = 128;
constexpr graph::NodeId kCommunitySize = 10;

/// Words in groups of kCommunitySize; every sentence draws its six
/// words from one group, cycling through the groups.
walk::Corpus
community_corpus(graph::NodeId num_words, std::size_t sentences_per_word,
                 std::uint64_t seed)
{
    rng::Random random(seed);
    walk::Corpus corpus;
    const graph::NodeId groups = num_words / kCommunitySize;
    const std::size_t sentences =
        static_cast<std::size_t>(num_words) * sentences_per_word / 6;
    std::vector<graph::NodeId> sentence;
    for (std::size_t s = 0; s < sentences; ++s) {
        const graph::NodeId base =
            static_cast<graph::NodeId>(s % groups) * kCommunitySize;
        sentence.clear();
        for (int i = 0; i < 6; ++i) {
            sentence.push_back(base + static_cast<graph::NodeId>(
                                          random.next_index(kCommunitySize)));
        }
        corpus.add_walk(sentence);
    }
    return corpus;
}

/// Mean cosine of word pairs in one group minus that of pairs in
/// neighbouring groups, over the first `groups` groups.
double
separation_margin(const Embedding& embedding, graph::NodeId groups)
{
    double intra = 0.0, inter = 0.0;
    int intra_count = 0, inter_count = 0;
    for (graph::NodeId g = 0; g + 1 < groups; ++g) {
        const graph::NodeId base = g * kCommunitySize;
        for (graph::NodeId i = 0; i < kCommunitySize; ++i) {
            for (graph::NodeId j = i + 1; j < kCommunitySize; ++j) {
                intra += embedding.cosine(base + i, base + j);
                ++intra_count;
            }
            inter += embedding.cosine(base + i, base + kCommunitySize + i);
            ++inter_count;
        }
    }
    return intra / intra_count - inter / inter_count;
}

TEST(SgnsSharedOutput, TeamAboveCopyBoundTrainsTheSharedMatrix)
{
    if (util::ThreadPool::global().size() < 2) {
        GTEST_SKIP() << "one hardware thread: no team";
    }
    // Twice the copy bound (4x L2), so the test stays on the shared
    // side if the bound moves a little: 32,770 words at d=128 on a
    // 2 MiB L2.
    const std::size_t matrix_bytes = 8 * util::host_info().l2_bytes;
    const auto num_words = static_cast<graph::NodeId>(
        (matrix_bytes / (kDim * sizeof(float)) / kCommunitySize + 1) *
        kCommunitySize);

    SgnsConfig config;
    config.dim = kDim;
    config.window = 3;
    config.negatives = 4;
    config.epochs = 2;
    config.seed = 7;
    config.num_threads = 4;
    const Embedding embedding =
        train_sgns(community_corpus(num_words, 40, 7), num_words, config);

    const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
    EXPECT_EQ(metrics.value("sgns.replica_bytes"), 0.0);
    EXPECT_EQ(metrics.value("sgns.merge_rounds"), 0.0);
    // Seeds 1-5 measured 0.280-0.296 with a team of four and, to three
    // decimals, the same with one thread: with 32k words the team's
    // races on shared rows are too rare to move the margin.
    EXPECT_GT(separation_margin(embedding, 200), 0.2);
}

} // namespace
} // namespace tgl::embed
