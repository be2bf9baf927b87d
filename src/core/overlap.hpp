/// @file
/// Overlapped walk→word2vec front end.
///
/// The paper's time breakdown (Fig. 3, Table 3) shows the temporal
/// walk (RW-P1) and word2vec (RW-P2) phases dominate end-to-end
/// runtime, and the sequential pipeline runs them strictly
/// back-to-back. Here the walk-slot space is partitioned into S corpus
/// shards; producer threads generate shards serially (per-slot RNG
/// streams keep the assembled corpus bit-identical to the sequential
/// one) and push them through a bounded MPMC queue
/// (util/shard_queue.hpp) while the streaming Hogwild trainer
/// (embed/streaming_trainer.hpp) trains epoch 0 on each shard as it
/// lands. See DESIGN.md §9.
#pragma once

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"

#include <cstdint>
#include <string>

namespace tgl::core {

/// The resolved overlap decision for one pipeline run.
struct OverlapPlan
{
    bool enabled = false;
    /// Human-readable decision trace ("auto: walk/w2v estimates within
    /// 4x", "off: min_count > 1 ...", ...).
    std::string decision;
    std::size_t num_shards = 0;
    unsigned producer_threads = 0;
    unsigned consumer_threads = 0;
    std::size_t queue_capacity = 0;
    /// Rough per-phase cost estimates (arbitrary op units) driving the
    /// kAuto within-4x rule.
    double walk_cost_estimate = 0.0;
    double w2v_cost_estimate = 0.0;
};

/// Decide whether (and how) to overlap for this graph + configuration.
/// kOn enables whenever the configuration is compatible (pipeline
/// validation rejects incompatible kOn configs up front); kAuto
/// additionally requires >= 2 threads and phase cost estimates within
/// 4x of each other.
OverlapPlan plan_overlap(const graph::TemporalGraph& graph,
                         const PipelineConfig& config);

/// Everything the fused region produces.
struct OverlapFrontEnd
{
    walk::Corpus corpus;
    embed::Embedding embedding;
    walk::WalkProfile walk_profile;
    embed::TrainStats train_stats;
    /// Producer-side busy window (first shard started → last shard
    /// done), the overlap analogue of the sequential walk phase time.
    double walk_seconds = 0.0;
    /// Trainer window (== the fused region: the trainer starts with
    /// the producers and ends last).
    double w2v_seconds = 0.0;
    /// Wall clock of the whole fused region.
    double wall_seconds = 0.0;
    OverlapStats stats;
    unsigned shards_loaded = 0; ///< shards resumed from checkpoints
    unsigned shards_stored = 0; ///< shards newly checkpointed
};

/// Run the fused walk+word2vec region according to @p plan (which must
/// be enabled). @p cache may be null (direct transition sampling);
/// @p checkpoints may be null (no shard artifacts). Emits walk.*,
/// sgns.* and overlap.* registry metrics plus pipeline.walk /
/// pipeline.word2vec trace spans covering the real (concurrent) phase
/// windows.
OverlapFrontEnd run_overlapped_front_end(
    const graph::TemporalGraph& graph, const PipelineConfig& config,
    const walk::TransitionCache* cache, const OverlapPlan& plan,
    const CheckpointManager* checkpoints, std::uint64_t walk_fingerprint);

} // namespace tgl::core
