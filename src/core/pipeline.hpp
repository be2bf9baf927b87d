/// @file
/// End-to-end pipeline runner: temporal random walk -> word2vec ->
/// data preparation -> classifier, with per-phase wall-clock timing —
/// the four RW-P1..P4 phases whose breakdown Table III reports.
#pragma once

#include "core/checkpoint.hpp"
#include "core/link_prediction.hpp"
#include "core/node_classification.hpp"
#include "embed/trainer.hpp"
#include "gen/catalog.hpp"
#include "walk/engine.hpp"

#include <optional>
#include <string>
#include <string_view>

namespace tgl::core {

/// Whether the walk and word2vec phases run overlapped (sharded walk
/// producers feeding the streaming Hogwild trainer, core/overlap.hpp)
/// or strictly back-to-back.
enum class OverlapMode
{
    kOff,  ///< sequential phases (the paper's execution model)
    kOn,   ///< always overlap; invalid for incompatible configs
    kAuto, ///< overlap when phase cost estimates are within 4x and the
           ///< configuration is compatible, else fall back to kOff
};

/// Parse "on"/"off"/"auto" (case-sensitive); nullopt on anything else.
std::optional<OverlapMode> parse_overlap_mode(std::string_view text);

/// "on"/"off"/"auto".
const char* overlap_mode_name(OverlapMode mode);

/// Execution statistics of the overlapped front end (all zero when the
/// phases ran sequentially).
struct OverlapStats
{
    bool used = false;
    std::size_t shards = 0;
    std::size_t max_queue_depth = 0;
    double producer_stall_seconds = 0.0;
    double consumer_stall_seconds = 0.0;
    /// Why overlap was or wasn't used (the auto decision trace).
    std::string decision;
};

/// All pipeline hyperparameters. Defaults are the paper's optimal
/// operating point: K = 10 walks, length 6, d = 8 (SVII-A).
struct PipelineConfig
{
    walk::WalkConfig walk;
    embed::SgnsConfig sgns;
    SplitConfig split;
    ClassifierConfig classifier;
    bool symmetrize_graph = true;
    /// Overlapped walk→word2vec execution. The library default stays
    /// kOff (sequential, byte-stable with earlier releases); tgl_cli
    /// passes kAuto.
    OverlapMode overlap = OverlapMode::kOff;
    /// Corpus shards for overlapped execution; 0 sizes the partition
    /// automatically from the thread count.
    std::size_t overlap_shards = 0;
    /// Directory for crash-safe phase checkpoints (empty disables
    /// checkpointing). On restart, artifacts whose fingerprints match
    /// the current configuration and input are reloaded and their
    /// phases skipped; stale or corrupt artifacts are regenerated
    /// (corrupt ones quarantined as *.corrupt.<ts>).
    std::string checkpoint_dir;
    /// Stall-watchdog deadline for the overlapped front end, in
    /// seconds: when the shard queue and worker phase board make no
    /// progress for this long, the run dumps per-thread state and
    /// fails with a resumable checkpoint instead of hanging.
    /// 0 disables the watchdog.
    double watchdog_timeout_seconds = 0.0;

    /// All configuration problems across every sub-config, each
    /// prefixed with its section ("walk.", "sgns.", ...). The pipeline
    /// entry points refuse to run (tgl::util::Error listing every
    /// diagnostic) when this is non-empty.
    std::vector<std::string> validate() const;
};

/// Wall-clock seconds per phase (Table III columns).
struct PhaseTimes
{
    double build_graph = 0.0;
    double random_walk = 0.0;
    double word2vec = 0.0;
    double data_prep = 0.0;
    double train = 0.0;
    double train_per_epoch = 0.0;
    double test = 0.0;
    /// Measured wall clock of the fused walk+word2vec region when the
    /// phases ran overlapped (0 when sequential). With overlap on,
    /// random_walk and word2vec report the per-phase busy windows,
    /// which together EXCEED this wall time — that gap is the overlap
    /// win, and total() uses the wall time.
    double walk_w2v_wall = 0.0;

    double
    total() const
    {
        const double front = walk_w2v_wall > 0.0
                                 ? walk_w2v_wall
                                 : random_walk + word2vec;
        return build_graph + front + data_prep + train + test;
    }
};

/// Which phase artifacts were restored from / persisted to the
/// checkpoint directory (all false when checkpointing is disabled).
struct CheckpointStatus
{
    bool corpus_loaded = false;
    bool corpus_stored = false;
    /// Overlapped runs checkpoint per shard instead of (in addition
    /// to) the assembled corpus.
    unsigned corpus_shards_loaded = 0;
    unsigned corpus_shards_stored = 0;
    bool cache_loaded = false;
    bool cache_stored = false;
    bool embedding_loaded = false;
    bool embedding_stored = false;
    bool classifier_loaded = false;
    bool classifier_stored = false;
    /// Corrupt artifacts quarantined (renamed *.corrupt.<ts>) during
    /// this run; each one was regenerated from scratch.
    unsigned artifacts_quarantined = 0;
    /// Artifacts that failed to load (corrupt or unreadable) and were
    /// regenerated.
    unsigned artifacts_regenerated = 0;
};

/// Everything a pipeline run produces.
struct PipelineResult
{
    PhaseTimes times;
    TaskResult task;
    walk::WalkProfile walk_profile;
    embed::TrainStats w2v_stats;
    CheckpointStatus checkpoints;
    OverlapStats overlap;
    std::size_t corpus_walks = 0;
    std::size_t corpus_tokens = 0;
    graph::NodeId num_nodes = 0;
    graph::EdgeId num_edges = 0;
};

/// Run the full link-prediction pipeline on a temporal edge list.
PipelineResult run_link_prediction_pipeline(const graph::EdgeList& edges,
                                            const PipelineConfig& config);

/// Run the full node-classification pipeline.
PipelineResult run_node_classification_pipeline(
    const graph::EdgeList& edges, const std::vector<std::uint32_t>& labels,
    std::uint32_t num_classes, const PipelineConfig& config);

/// Run whichever task a catalog dataset defines.
PipelineResult run_pipeline(const gen::Dataset& dataset,
                            const PipelineConfig& config);

/// One-line phase-time summary.
std::string format_phase_times(const PhaseTimes& times);

} // namespace tgl::core
