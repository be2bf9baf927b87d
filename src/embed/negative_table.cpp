#include "embed/negative_table.hpp"

#include <cmath>

namespace tgl::embed {

namespace {

std::vector<double>
unigram_weights(const std::vector<std::uint64_t>& counts)
{
    std::vector<double> weights(counts.size());
    for (std::size_t w = 0; w < counts.size(); ++w) {
        weights[w] = std::pow(static_cast<double>(counts[w]), 0.75);
    }
    return weights;
}

} // namespace

NegativeTable::NegativeTable(const Vocab& vocab)
    : NegativeTable(vocab.counts())
{
}

NegativeTable::NegativeTable(const std::vector<std::uint64_t>& counts)
    : alias_(unigram_weights(counts))
{
}

} // namespace tgl::embed
