/// @file
/// Hogwild skip-gram trainer — the paper's CPU word2vec (RW-P2).
///
/// Threads sweep disjoint dynamic chunks of sentences and update the
/// shared input matrix without synchronization; because each update
/// touches only a handful of rows, collisions are rare and the
/// race-tolerant scheme converges (Recht et al., NIPS 2011 — and the
/// paper leans on the same sparsity argument for its batched GPU
/// variant, SV-B).
///
/// The output matrix is different: at the paper's d = 8 it fits one
/// core's L2, and under shared Hogwild nearly every output-row write
/// becomes a cross-core line transfer. So while it stays near L2 size,
/// each thread trains a private copy for one round (a fixed block of
/// sentences) and the team folds the copies' changes back into the
/// shared matrix at the round boundary — the CPU counterpart of the
/// paper's sentence batching with stale reads (Fig. 5).
#pragma once

#include "embed/embedding.hpp"
#include "embed/sgns_model.hpp"
#include "walk/corpus.hpp"

#include <cstdint>
#include <span>

namespace tgl::embed {

/// Execution statistics of one training run.
struct TrainStats
{
    std::uint64_t pairs_trained = 0;
    std::uint64_t tokens_processed = 0;
    double seconds = 0.0;
};

/// Train SGNS embeddings over a walk corpus (Hogwild, multithreaded).
///
/// @param corpus     walk sentences
/// @param num_nodes  node-id space for the returned embedding
/// @param config     SGNS hyperparameters
/// @param stats      optional execution statistics
Embedding train_sgns(const walk::Corpus& corpus, graph::NodeId num_nodes,
                     const SgnsConfig& config, TrainStats* stats = nullptr);

/// Learning rate of a sentence that starts @p tokens_before tokens into
/// the corpus during @p epoch: word2vec's linear decay from
/// config.alpha to config.alpha / 10^4 over all epochs' tokens. A pure
/// function of the position, so no thread interleaving changes it.
float sgns_alpha(const SgnsConfig& config, unsigned epoch,
                 std::uint64_t tokens_before, std::uint64_t corpus_tokens);

/// Whether a team of @p team threads trains private copies of an
/// output matrix of @p matrix_bytes: only for teams > 1, and only while
/// the matrix is at most 4x the per-core L2 (DESIGN.md §13). The first
/// decision of the process is logged with both sizes.
bool use_private_copies(unsigned team, std::size_t matrix_bytes);

/// Floats of a matrix of @p matrix_floats that each of @p team ranks
/// merges: an equal share, rounded up to whole cache lines.
std::size_t merge_slice_floats(std::size_t matrix_floats, unsigned team);

/// Fold private output copies into the shared matrix over floats
/// [begin, end): master += sum over copies of (copy - master), then
/// reset every copy to the merged value. Changes to disjoint rows land
/// as if applied in sequence; changes to the same row add.
void merge_output_copies(float* master, std::span<float* const> copies,
                         std::size_t begin, std::size_t end);

} // namespace tgl::embed
