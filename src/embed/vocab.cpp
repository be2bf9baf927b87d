#include "embed/vocab.hpp"

#include "util/error.hpp"

#include <algorithm>
#include <limits>

namespace tgl::embed {

Vocab::Vocab(const walk::Corpus& corpus, std::uint64_t min_count)
{
    // Raw per-node counts. The id space must stay strictly below the
    // NodeId maximum: raw.size() would otherwise exceed the NodeId
    // range and the scan below could not index it with a NodeId.
    std::vector<std::uint64_t> raw;
    for (graph::NodeId node : corpus.tokens()) {
        if (node >= std::numeric_limits<graph::NodeId>::max()) {
            util::fatal("Vocab: node id " + std::to_string(node) +
                        " exhausts the NodeId range");
        }
        if (raw.size() <= node) {
            raw.resize(static_cast<std::size_t>(node) + 1, 0);
        }
        ++raw[node];
    }

    // Collect surviving nodes and sort by descending count (ties by
    // node id for determinism). The induction variable is size_t, not
    // NodeId: a NodeId counter wraps to 0 before reaching a size() at
    // the top of the id range and the loop never terminates.
    std::vector<graph::NodeId> order;
    for (std::size_t node = 0; node < raw.size(); ++node) {
        if (raw[node] >= min_count && raw[node] > 0) {
            order.push_back(static_cast<graph::NodeId>(node));
        }
    }
    std::sort(order.begin(), order.end(),
              [&](graph::NodeId a, graph::NodeId b) {
                  return raw[a] != raw[b] ? raw[a] > raw[b] : a < b;
              });

    nodes_ = std::move(order);
    counts_.resize(nodes_.size());
    node_to_word_.assign(raw.size(), kNoWord);
    for (WordId w = 0; w < nodes_.size(); ++w) {
        counts_[w] = raw[nodes_[w]];
        node_to_word_[nodes_[w]] = w;
        total_tokens_ += counts_[w];
    }
}

} // namespace tgl::embed
