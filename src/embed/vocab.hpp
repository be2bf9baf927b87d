/// @file
/// Vocabulary over walk corpora.
///
/// In the graph-learning setting a "word" is a node id (SIV-C: the
/// pipeline is feature-less and uses the single-integer vertex id as
/// the feature). The vocabulary maps the node ids that actually occur
/// in the corpus onto dense word indices ordered by descending
/// frequency — the layout the negative-sampling table and the trainers
/// expect (frequent words first keeps their rows hot in cache).
#pragma once

#include "graph/types.hpp"
#include "walk/corpus.hpp"

#include <cstdint>
#include <limits>
#include <vector>

namespace tgl::embed {

/// Dense word index.
using WordId = std::uint32_t;

/// Sentinel for "node not in vocabulary".
inline constexpr WordId kNoWord = std::numeric_limits<WordId>::max();

/// Frequency-ordered vocabulary of node ids.
class Vocab
{
  public:
    Vocab() = default;

    /// Build from a corpus, dropping nodes occurring fewer than
    /// @p min_count times (word2vec's min-count filter).
    Vocab(const walk::Corpus& corpus, std::uint64_t min_count = 1);

    /// Number of distinct in-vocabulary words.
    std::size_t size() const { return counts_.size(); }

    /// Total in-vocabulary token occurrences.
    std::uint64_t total_tokens() const { return total_tokens_; }

    /// Occurrence count of word w.
    std::uint64_t count(WordId w) const { return counts_[w]; }

    /// Node id of word w.
    graph::NodeId node_of(WordId w) const { return nodes_[w]; }

    /// Word index of a node id, or kNoWord.
    WordId
    word_of(graph::NodeId node) const
    {
        return node < node_to_word_.size() ? node_to_word_[node] : kNoWord;
    }

    /// All occurrence counts in word order (for the negative table).
    const std::vector<std::uint64_t>& counts() const { return counts_; }

  private:
    std::vector<std::uint64_t> counts_;      // per word, descending
    std::vector<graph::NodeId> nodes_;       // word -> node id
    std::vector<WordId> node_to_word_;       // node id -> word
    std::uint64_t total_tokens_ = 0;
};

} // namespace tgl::embed
