/// @file
/// Negative-sampling distribution: unigram frequency raised to 3/4,
/// the standard word2vec choice, drawn from an exact Walker alias
/// table in O(1) per draw.
#pragma once

#include "embed/vocab.hpp"
#include "rng/alias_table.hpp"

#include <cstdint>
#include <vector>

namespace tgl::embed {

/// Draws negative words ~ count^0.75.
class NegativeTable
{
  public:
    NegativeTable() = default;

    /// Build from a vocabulary.
    explicit NegativeTable(const Vocab& vocab);

    /// Build from raw occurrence counts indexed by word id (count^0.75
    /// weighting, like the vocab constructor). Words with zero count
    /// get zero probability; at least one count must be positive.
    explicit NegativeTable(const std::vector<std::uint64_t>& counts);

    /// Draw one negative word.
    WordId sample(rng::Random& random) const { return alias_.sample(random); }

    /// Probability of word w.
    double probability(WordId w) const
    {
        return alias_.outcome_probability(w);
    }

  private:
    rng::AliasTable alias_;
};

} // namespace tgl::embed
