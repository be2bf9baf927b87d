/// Tests for the unigram^0.75 negative-sampling table.
#include "embed/negative_table.hpp"

#include "graph/builder.hpp"
#include "util/error.hpp"
#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

namespace tgl::embed {
namespace {

walk::Corpus
corpus_with_counts(const std::vector<std::pair<graph::NodeId, int>>& spec)
{
    walk::Corpus corpus;
    std::vector<graph::NodeId> walk;
    for (const auto& [node, count] : spec) {
        for (int i = 0; i < count; ++i) {
            walk.push_back(node);
        }
    }
    corpus.add_walk(walk);
    return corpus;
}

TEST(NegativeTable, AliasProbabilitiesFollowThreeQuarterPower)
{
    // counts 16 and 1: weights 16^0.75 = 8 and 1 -> probs 8/9, 1/9.
    const Vocab vocab(corpus_with_counts({{0, 16}, {1, 1}}));
    const NegativeTable table(vocab);
    EXPECT_NEAR(table.probability(0), 8.0 / 9.0, 1e-9);
    EXPECT_NEAR(table.probability(1), 1.0 / 9.0, 1e-9);
}

TEST(NegativeTable, AliasEmpiricalDistribution)
{
    const Vocab vocab(corpus_with_counts({{0, 16}, {1, 1}}));
    const NegativeTable table(vocab);
    rng::Random random(1);
    int zero_draws = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        if (table.sample(random) == 0) {
            ++zero_draws;
        }
    }
    EXPECT_NEAR(zero_draws / static_cast<double>(kDraws), 8.0 / 9.0,
                0.01);
}

TEST(NegativeTable, EmptyVocabThrows)
{
    EXPECT_THROW(NegativeTable(Vocab{}), util::Error);
}

/// Draw-count scale factor for the nightly high-sample rerun:
/// TGL_EQUIV_DRAWS=10 multiplies every statistical sample size by 10.
int
equiv_scale()
{
    const char* env = std::getenv("TGL_EQUIV_DRAWS");
    if (env == nullptr) {
        return 1;
    }
    const long mult = std::strtol(env, nullptr, 10);
    return mult > 1 ? static_cast<int>(mult) : 1;
}

/// Chi-square statistic of @p observed against expectations from
/// @p weights. Zero-weight bins must be empty (asserted exactly).
double
chi_square(const std::vector<int>& observed,
           const std::vector<double>& weights, int draws)
{
    double total = 0.0;
    for (double w : weights) {
        total += w;
    }
    double chi2 = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double expected = draws * weights[i] / total;
        if (expected < 1e-12) {
            EXPECT_EQ(observed[i], 0) << "zero-weight word " << i
                                      << " was sampled";
            continue;
        }
        const double diff = observed[i] - expected;
        chi2 += diff * diff / expected;
    }
    return chi2;
}

// Zero-count words must never be drawn, and the rest must follow the
// count^0.75 law.
TEST(NegativeTable, AliasChiSquareWithZeroCounts)
{
    const std::vector<std::uint64_t> counts = {0, 400, 0, 81, 16, 0, 1};
    std::vector<double> weights(counts.size());
    for (std::size_t w = 0; w < counts.size(); ++w) {
        weights[w] = std::pow(static_cast<double>(counts[w]), 0.75);
    }
    const NegativeTable alias(counts);

    const int draws = 100000 * equiv_scale();
    std::vector<int> alias_hits(counts.size(), 0);
    rng::Random alias_random(11);
    for (int i = 0; i < draws; ++i) {
        ++alias_hits[alias.sample(alias_random)];
    }
    // 4 sampleable words -> 3 degrees of freedom; 18.0 is past the
    // 99.9% critical value 16.3 of chi2(3).
    EXPECT_LT(chi_square(alias_hits, weights, draws), 18.0);
}

TEST(NegativeTable, CountAndVocabTablesMatchUnigramOnWalkCorpus)
{
    // A table built from per-node counts (node space) and one built
    // from the Vocab (word space) must both draw nodes by the same
    // analytic unigram^0.75 law of a real walk corpus.
    graph::EdgeList edges;
    constexpr graph::NodeId kRing = 40;
    for (graph::NodeId u = 0; u < kRing; ++u) {
        edges.add(u, (u + 1) % kRing, 0.01 * u);
        edges.add(u, (u + 7) % kRing, 0.01 * u + 0.005);
        edges.add(u, (u + 13) % kRing, 0.01 * u + 0.007);
    }
    const graph::TemporalGraph graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    walk::WalkConfig walk_config;
    walk_config.walks_per_node = 4;
    walk_config.max_length = 8;
    walk_config.seed = 77;
    walk_config.transition_cache = walk::TransitionCacheMode::kOff;
    const walk::Corpus corpus = walk::generate_walks(graph, walk_config);
    const Vocab vocab(corpus);

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

    const NegativeTable from_counts(counts);
    std::vector<std::uint64_t> count_hits(graph.num_nodes(), 0);
    rng::Random random_a(123);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        ++count_hits[from_counts.sample(random_a)];
    }

    const NegativeTable from_vocab(vocab);
    std::vector<std::uint64_t> vocab_hits(graph.num_nodes(), 0);
    rng::Random random_b(456);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        ++vocab_hits[vocab.node_of(from_vocab.sample(random_b))];
    }

    // 39 dof, 99.9% critical value ~72.1.
    EXPECT_LT(chi_square(count_hits), 72.1);
    EXPECT_LT(chi_square(vocab_hits), 72.1);
}

} // namespace
} // namespace tgl::embed
