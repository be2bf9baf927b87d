#include "core/checkpoint.hpp"

#include "core/link_prediction.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/retry.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

namespace tgl::core {

std::uint64_t
fingerprint_edges(const graph::EdgeList& edges)
{
    util::Fingerprint fp;
    fp.mix(static_cast<std::uint64_t>(edges.size()));
    for (const graph::TemporalEdge& e : edges) {
        fp.mix(e.src);
        fp.mix(e.dst);
        fp.mix(e.time);
    }
    return fp.value();
}

std::uint64_t
shard_fingerprint(std::uint64_t walk_fingerprint, std::size_t index,
                  std::size_t num_shards)
{
    util::Fingerprint fp;
    fp.mix(std::string_view("corpus-shard"));
    fp.mix(walk_fingerprint);
    fp.mix(static_cast<std::uint64_t>(index));
    fp.mix(static_cast<std::uint64_t>(num_shards));
    return fp.value();
}

void
mix_config(util::Fingerprint& fp, const walk::WalkConfig& config)
{
    fp.mix(std::string_view("walk"));
    fp.mix(config.walks_per_node);
    fp.mix(config.max_length);
    fp.mix(static_cast<std::uint32_t>(config.transition));
    fp.mix(static_cast<std::uint32_t>(config.start));
    fp.mix(static_cast<std::uint8_t>(config.temporal));
    fp.mix(static_cast<std::uint8_t>(config.strict_time));
    fp.mix(config.min_walk_tokens);
    fp.mix(config.seed);
    // The transition-cache mode is NOT speed-only: the cached sampler
    // consumes one RNG draw per step where the direct scan consumes
    // one per candidate, so the two modes produce different (equally
    // distributed) corpora from the same seed.
    fp.mix(static_cast<std::uint32_t>(config.transition_cache));
    // Same story for the batch width: widths > 1 consume the per-lane
    // RNG streams differently from the scalar sampler (one uniform
    // per step vs the kind-dependent scalar pattern), so the width is
    // output-affecting and a resumed pipeline must not mix corpora
    // generated under different widths.
    fp.mix(config.batch_width);
    // num_threads and linear_neighbor_search change only speed: walks
    // are seeded per (walk, vertex) and both neighbor searches select
    // the same edges.
}

void
mix_config(util::Fingerprint& fp, const embed::SgnsConfig& config)
{
    fp.mix(std::string_view("sgns"));
    fp.mix(config.dim);
    fp.mix(config.window);
    fp.mix(config.negatives);
    fp.mix(config.epochs);
    fp.mix(config.alpha);
    fp.mix(config.min_count);
    fp.mix(config.subsample);
    fp.mix(config.seed);
    fp.mix(config.row_stride);
    // num_threads is mixed because multi-threaded training depends on
    // the team size (a round is a fixed number of sentences per
    // thread) and on thread interleaving through the shared input
    // matrix; only one thread reproduces bit for bit.
    fp.mix(config.num_threads);
    // Teams train private output copies merged at round boundaries
    // (train_sgns) or launch ends (batched trainer), a different
    // algorithm from the earlier shared-matrix Hogwild loops; the tag
    // keeps an embedding trained by those loops from resuming as this
    // one. One thread runs the same loop as before, so its fingerprint
    // stays unchanged.
    if (config.num_threads != 1) {
        fp.mix(std::string_view("sgns-round-merge"));
    }
    // The kernel backend is output-affecting: the simd kernels
    // reassociate the dot reduction into vector partial sums, so
    // backends agree in law but not bitwise. The *resolved* backend is
    // mixed (name + compiled ISA) so `auto` fingerprints identically
    // to the backend it resolves to on this build, and a checkpoint
    // trained under one backend is never resumed under another.
    const embed::kernels::SgnsBackendOps& ops =
        embed::sgns_kernel_ops(config);
    fp.mix(std::string_view(ops.name));
    fp.mix(std::string_view(ops.isa));
}

void
mix_config(util::Fingerprint& fp, const SplitConfig& config)
{
    fp.mix(std::string_view("split"));
    fp.mix(config.train_fraction);
    fp.mix(config.valid_fraction);
    fp.mix(config.test_fraction);
    fp.mix(config.negatives_per_positive);
    fp.mix(config.max_negative_attempts);
    fp.mix(config.seed);
}

void
mix_config(util::Fingerprint& fp, const ClassifierConfig& config)
{
    fp.mix(std::string_view("classifier"));
    fp.mix(config.hidden_dim);
    fp.mix(config.hidden1);
    fp.mix(config.hidden2);
    fp.mix(config.max_epochs);
    fp.mix(config.batch_size);
    fp.mix(config.lr);
    fp.mix(config.momentum);
    fp.mix(config.weight_decay);
    fp.mix(config.target_valid_accuracy);
    fp.mix(static_cast<std::uint8_t>(config.residual));
    fp.mix(config.residual_blocks);
    fp.mix(config.seed);
}

CheckpointManager::CheckpointManager(std::string directory)
    : directory_(std::move(directory))
{
    if (directory_.empty()) {
        util::fatal("CheckpointManager: checkpoint directory is empty");
    }
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        util::fatal(util::strcat("cannot create checkpoint directory ",
                                 directory_, ": ", ec.message()));
    }
}

std::string
CheckpointManager::corpus_path() const
{
    return (std::filesystem::path(directory_) / "corpus.tgla").string();
}

std::string
CheckpointManager::embedding_path() const
{
    return (std::filesystem::path(directory_) / "embedding.tgla").string();
}

std::string
CheckpointManager::classifier_path(const std::string& name) const
{
    return (std::filesystem::path(directory_) / (name + ".tgla")).string();
}

std::string
CheckpointManager::transition_cache_path() const
{
    return (std::filesystem::path(directory_) / "transition_cache.tgla")
        .string();
}

namespace {

/// Flip one byte near the middle of @p path — the `corrupt` failpoint
/// action damages the real on-disk artifact so the CRC/validation and
/// quarantine machinery is exercised end to end, not simulated.
void
corrupt_file_in_place(const std::string& path)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    if (!file) {
        return; // nothing to corrupt; the load will report "missing"
    }
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    if (size <= 0) {
        return;
    }
    const std::streamoff pos = size / 2;
    char byte = 0;
    file.seekg(pos);
    file.read(&byte, 1);
    byte ^= 0x5a;
    file.seekp(pos);
    file.write(&byte, 1);
}

/// Bump the shared recovery.regenerated counter (the metric the chaos
/// harness asserts on) alongside the per-manager count.
void
note_regenerated(std::atomic<unsigned>& regenerated)
{
    static const obs::Counter counter =
        obs::Registry::global().counter("recovery.regenerated");
    counter.inc();
    regenerated.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

/// Run @p loader against @p path, mapping every non-resume outcome
/// (absent file, stale fingerprint, failed container validation) to
/// false so the caller regenerates. @p loader receives the open stream
/// and the expected fingerprint and returns whether it matched.
/// Transient I/O failures are retried with bounded backoff; container
/// validation failures quarantine the damaged file; cancellation
/// propagates untouched.
template <typename Loader>
bool
CheckpointManager::load_checkpoint(const std::string& path,
                                   std::uint64_t fingerprint,
                                   const char* what,
                                   const Loader& loader) const
{
    enum Outcome { kMissing, kStale, kLoaded };
    const auto attempt = [&]() -> Outcome {
        if (util::fault_point("checkpoint.load") ==
            util::FailpointAction::kCorrupt) {
            corrupt_file_in_place(path);
        }
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            return kMissing; // nothing checkpointed yet
        }
        return loader(in, fingerprint) ? kLoaded : kStale;
    };

    util::RetryPolicy policy;
    policy.seed =
        util::Fingerprint().mix(std::string_view(path)).value();
    Outcome outcome;
    try {
        outcome = util::retry_transient(
            policy, util::strcat(what, " checkpoint load"), attempt);
    } catch (const util::Cancelled&) {
        throw; // a cancelled run must stop, not silently rebuild
    } catch (const util::FaultInjected& error) {
        // Injected terminal fault: the artifact on disk is fine, so
        // regenerate without quarantining it.
        util::warn(util::strcat("checkpoint ", path, " is unusable (",
                                error.what(), ") — regenerating"));
        note_regenerated(regenerated_);
        return false;
    } catch (const util::TransientError& error) {
        // Retry budget exhausted: treat like an unusable read and
        // rebuild — a flaky disk must cost time, never the run.
        util::warn(util::strcat("checkpoint ", path, " is unreadable (",
                                error.what(), ") — regenerating"));
        note_regenerated(regenerated_);
        return false;
    } catch (const util::Error& error) {
        // Container validation failed (truncation, checksum mismatch,
        // wrong kind): move the damaged file aside and rebuild.
        util::quarantine_artifact(path, error.what());
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        note_regenerated(regenerated_);
        return false;
    }

    switch (outcome) {
    case kMissing:
        return false;
    case kStale:
        util::inform(util::strcat("checkpoint ", path, " is stale (",
                                  what, " inputs changed) — regenerating"));
        return false;
    case kLoaded:
        break;
    }
    util::inform(util::strcat("resumed ", what, " from checkpoint ", path));
    return true;
}

bool
CheckpointManager::load_corpus(std::uint64_t fingerprint,
                               walk::Corpus& out) const
{
    return load_checkpoint(
        corpus_path(), fingerprint, "walk corpus",
        [&](std::istream& in, std::uint64_t expected) {
            std::uint64_t stored = 0;
            walk::Corpus corpus = walk::Corpus::load_binary(in, &stored);
            if (stored != expected) {
                return false;
            }
            out = std::move(corpus);
            return true;
        });
}

void
CheckpointManager::store_corpus(std::uint64_t fingerprint,
                                const walk::Corpus& corpus) const
{
    corpus.save_binary_file(corpus_path(), fingerprint);
}

std::string
CheckpointManager::corpus_shard_path(std::size_t index) const
{
    return (std::filesystem::path(directory_) /
            util::strcat("corpus_shard_", index, ".tgla"))
        .string();
}

bool
CheckpointManager::load_corpus_shard(std::uint64_t fingerprint,
                                     std::size_t index,
                                     walk::Corpus& out) const
{
    return load_checkpoint(
        corpus_shard_path(index), fingerprint, "walk corpus shard",
        [&](std::istream& in, std::uint64_t expected) {
            std::uint64_t stored = 0;
            walk::Corpus shard = walk::Corpus::load_binary(in, &stored);
            if (stored != expected) {
                return false;
            }
            out = std::move(shard);
            return true;
        });
}

void
CheckpointManager::store_corpus_shard(std::uint64_t fingerprint,
                                      std::size_t index,
                                      const walk::Corpus& shard) const
{
    shard.save_binary_file(corpus_shard_path(index), fingerprint);
}

bool
CheckpointManager::load_transition_cache(std::uint64_t fingerprint,
                                         walk::TransitionCache& out) const
{
    return load_checkpoint(
        transition_cache_path(), fingerprint, "transition cache",
        [&](std::istream& in, std::uint64_t expected) {
            std::uint64_t stored = 0;
            walk::TransitionCache cache =
                walk::TransitionCache::load_binary(in, &stored);
            if (stored != expected) {
                return false;
            }
            out = std::move(cache);
            return true;
        });
}

void
CheckpointManager::store_transition_cache(
    std::uint64_t fingerprint, const walk::TransitionCache& cache) const
{
    cache.save_binary_file(transition_cache_path(), fingerprint);
}

bool
CheckpointManager::load_embedding(std::uint64_t fingerprint,
                                  embed::Embedding& out) const
{
    return load_checkpoint(
        embedding_path(), fingerprint, "embedding",
        [&](std::istream& in, std::uint64_t expected) {
            std::uint64_t stored = 0;
            embed::Embedding embedding =
                embed::Embedding::load_binary(in, &stored);
            if (stored != expected) {
                return false;
            }
            out = std::move(embedding);
            return true;
        });
}

void
CheckpointManager::store_embedding(std::uint64_t fingerprint,
                                   const embed::Embedding& embedding) const
{
    embedding.save_binary_file(embedding_path(), fingerprint);
}

bool
CheckpointManager::load_classifier(const std::string& name,
                                   std::uint64_t fingerprint,
                                   nn::Mlp& net) const
{
    return load_checkpoint(
        classifier_path(name), fingerprint, "classifier",
        [&](std::istream& in, std::uint64_t expected) {
            // Validate container + fingerprint before load_weights
            // mutates the network: a stale artifact must leave the
            // freshly initialized weights untouched, or the subsequent
            // retraining would start from the stale state.
            {
                util::ArtifactReader probe(in, "mlp");
                if (probe.fingerprint() != expected) {
                    return false;
                }
            }
            in.clear();
            in.seekg(0);
            std::uint64_t stored = 0;
            net.load_weights(in, &stored);
            return stored == expected;
        });
}

void
CheckpointManager::store_classifier(const std::string& name,
                                    std::uint64_t fingerprint,
                                    nn::Mlp& net) const
{
    util::atomic_write_file(
        classifier_path(name),
        [&](std::ostream& out) { net.save_weights(out, fingerprint); },
        /*binary=*/true);
}

} // namespace tgl::core
