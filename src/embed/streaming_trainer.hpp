/// @file
/// Streaming (overlapped) SGNS trainer: the consumer half of the
/// sharded walk→word2vec pipeline (core/overlap.hpp).
///
/// The sequential trainer needs the whole corpus twice before the
/// first update: once to build the Vocab and once for the
/// unigram^0.75 negative table. Streaming resolves that dependency in
/// two steps. The *word space* needs no corpus at all — node ids are
/// known a priori from the CSR, so the model is sized |V| with word id
/// == node id. The *negative distribution* is approximated during
/// epoch 0 by a structural prior supplied by the caller (the CSR's
/// (out_degree+1)^0.75 — walk visit frequency is degree-biased), while
/// exact occurrence counts are accumulated as shards stream past; the
/// exact unigram^0.75 table is rebuilt once before epoch 1 and every
/// later epoch trains the assembled corpus through the sequential
/// trainer's round loop (train_sgns_epochs). A statistical-equivalence
/// test (tests/test_overlap.cpp) checks the rebuilt table against the
/// sequential path's.
#pragma once

#include "embed/embedding.hpp"
#include "embed/sgns_model.hpp"
#include "embed/trainer.hpp"
#include "util/shard_queue.hpp"
#include "walk/corpus.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace tgl::embed {

/// Streaming-trainer knobs on top of the shared SGNS hyperparameters.
struct StreamingSgnsConfig
{
    SgnsConfig sgns;
    /// Epoch-0 consumer team size (>= 1; the calling thread is rank 0).
    unsigned consumer_threads = 1;
    /// Expected tokens of one full corpus pass — the epoch-0 learning-
    /// rate schedule denominator (the exact count only exists once
    /// every shard has arrived). The schedule switches to exact totals
    /// for epochs >= 1.
    std::uint64_t total_token_estimate = 0;
};

/// Everything the streaming trainer produces: the embedding, the
/// corpus reassembled in shard-index order (== the sequential corpus),
/// the exact per-node token counts, and the usual execution stats.
struct StreamingResult
{
    Embedding embedding;
    walk::Corpus corpus;
    std::vector<std::uint64_t> counts;
    TrainStats stats;
};

/// Reasons @p config cannot run on the streaming path (empty when it
/// can). min_count filtering and frequent-word subsampling both need
/// global counts before the first update, which streaming by
/// definition does not have during epoch 0.
std::vector<std::string> streaming_unsupported(const SgnsConfig& config);

/// Train SGNS embeddings from a live shard queue (Hogwild semantics,
/// identity word space). Consumes shards until the queue is closed and
/// drained; epoch 0 trains each shard as it arrives against
/// @p prior_weights (indexed by node id, used verbatim), epochs >= 1
/// train the assembled corpus against the exact rebuilt table.
///
/// @p prior_weights must have one entry per node with at least one
/// positive weight. Fails (tgl::util::Error) on an unsupported config,
/// an empty drained corpus, or training divergence.
StreamingResult train_sgns_streaming(
    util::ShardQueue<walk::CorpusShard>& queue, graph::NodeId num_nodes,
    const std::vector<double>& prior_weights,
    const StreamingSgnsConfig& config);

} // namespace tgl::embed
