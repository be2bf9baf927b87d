/// Tests for the unigram^0.75 negative-sampling table.
#include "embed/negative_table.hpp"

#include "util/error.hpp"

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

// Zero-count words (nodes the streaming trainer's shards never saw)
// must never be drawn, and the rest must follow the count^0.75 law.
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

} // namespace
} // namespace tgl::embed
