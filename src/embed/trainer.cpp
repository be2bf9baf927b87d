#include "embed/trainer.hpp"

#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "util/cancellation.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <vector>

namespace tgl::embed {

namespace {

/// Sentences each team member trains on its private output copy per
/// round. Smaller rounds read fresher output rows but pay more barriers
/// and merges: on lp-email's corpus at 4 threads, CPU per pair rose
/// from 234 ns at 4096 sentences per copy to 277 ns at 256 and 381 ns
/// at 64 (DESIGN.md §13).
constexpr std::size_t kRoundSentencesPerCopy = 4096;

/// Rounds per epoch at least, whatever the corpus size. Copies read
/// output rows up to one round old, and on a corpus smaller than one
/// full round (ia-email@0.01: 8.7k sentences against 4 x 4096) the
/// whole epoch trained from stale rows: 16-seed mean test accuracy
/// 0.529 against 0.539 for the shared matrix. Four rounds recovered
/// 0.538 and eight 0.540; lp-email's corpus goes from 6 to 8 rounds
/// for about 3% more CPU (EXPERIMENTS.md, "SGNS private output copies").
constexpr std::size_t kMinRoundsPerEpoch = 8;

/// Sentences claimed per cursor fetch inside a round.
constexpr std::size_t kGrain = 64;

/// Process every (center, context) pair of one sentence.
void
train_sentence(SgnsModel& model, float* output, const Vocab& vocab,
               const NegativeTable& negatives, const SgnsConfig& config,
               const kernels::SgnsBackendOps& ops,
               std::span<const graph::NodeId> sentence, float alpha,
               rng::Random& random, std::vector<WordId>& words,
               float* scratch, std::uint64_t& pairs)
{
    // Map to word ids, applying min-count filtering and optional
    // frequent-word subsampling.
    words.clear();
    for (graph::NodeId node : sentence) {
        const WordId w = vocab.word_of(node);
        if (w == kNoWord) {
            continue;
        }
        if (config.subsample > 0.0) {
            const double frequency =
                static_cast<double>(vocab.count(w)) /
                static_cast<double>(vocab.total_tokens());
            const double keep =
                (std::sqrt(frequency / config.subsample) + 1.0) *
                (config.subsample / frequency);
            if (keep < 1.0 && !random.next_bernoulli(keep)) {
                continue;
            }
        }
        words.push_back(w);
    }

    const std::size_t len = words.size();
    for (std::size_t pos = 0; pos < len; ++pos) {
        // word2vec shrinks the window uniformly per position.
        const unsigned shrink = static_cast<unsigned>(
            random.next_index(config.window)) ;
        const unsigned effective = config.window - shrink;
        const std::size_t lo =
            pos >= effective ? pos - effective : 0;
        const std::size_t hi = std::min(len, pos + effective + 1);
        for (std::size_t c = lo; c < hi; ++c) {
            if (c == pos) {
                continue;
            }
            sgns_update_pair(model, output, words[c], words[pos],
                             negatives, config.negatives, alpha, ops,
                             random, scratch);
            ++pairs;
        }
    }
}

/// Private output copies pay while a copy stays near a core's L2, so
/// each thread trains mostly from its own cache; the merge's cost grows
/// with the matrix, so past that point sharing wins. Measured at 4
/// threads on a host with a 2 MiB L2 (DESIGN.md §13): copies cut CPU
/// per pair by 44% at 0.1x L2, 22% at 2.1x and 14% at 4.3x, and cost 3%
/// at 5.3x and 12-19% at 10-21x.
constexpr std::size_t kCopyL2Multiple = 4;

} // namespace

bool
use_private_copies(unsigned team, std::size_t matrix_bytes)
{
    if (team <= 1) {
        return false;
    }
    const std::size_t l2_bytes = util::host_info().l2_bytes;
    const bool copies = matrix_bytes <= kCopyL2Multiple * l2_bytes;
    static std::atomic<bool> logged{false};
    if (!logged.exchange(true)) {
        util::inform(util::strcat(
            "sgns output matrix ", matrix_bytes / 1024, " KiB vs L2 ",
            l2_bytes / 1024, " KiB (copies up to ", kCopyL2Multiple,
            "x L2): ",
            copies ? "private copy per thread, merged every round"
                   : "shared by the team (Hogwild)"));
    }
    return copies;
}

std::size_t
merge_slice_floats(std::size_t matrix_floats, unsigned team)
{
    constexpr std::size_t kLineFloats = kCacheLineBytes / sizeof(float);
    return ((matrix_floats + team - 1) / team + kLineFloats - 1) /
           kLineFloats * kLineFloats;
}

float
sgns_alpha(const SgnsConfig& config, unsigned epoch,
           std::uint64_t tokens_before, std::uint64_t corpus_tokens)
{
    const std::uint64_t done =
        static_cast<std::uint64_t>(epoch) * corpus_tokens + tokens_before;
    const std::uint64_t total = corpus_tokens * config.epochs;
    const float progress = static_cast<float>(
        static_cast<double>(done) / static_cast<double>(total));
    return std::max(config.alpha * (1.0f - progress),
                    config.alpha * 1e-4f);
}

void
merge_output_copies(float* master, std::span<float* const> copies,
                    std::size_t begin, std::size_t end)
{
    for (std::size_t i = begin; i < end; ++i) {
        const float base = master[i];
        float merged = base;
        for (const float* copy : copies) {
            merged += copy[i] - base;
        }
        master[i] = merged;
        for (float* copy : copies) {
            copy[i] = merged;
        }
    }
}

Embedding
train_sgns(const walk::Corpus& corpus, graph::NodeId num_nodes,
           const SgnsConfig& config, TrainStats* stats)
{
    if (config.epochs == 0) {
        util::fatal("train_sgns: epochs must be >= 1");
    }
    if (config.window == 0) {
        util::fatal("train_sgns: window must be >= 1");
    }
    obs::Span span("sgns.train");
    util::Timer timer;

    const Vocab vocab(corpus, config.min_count);
    if (vocab.size() == 0) {
        util::fatal("train_sgns: empty vocabulary (corpus too small or "
                    "min_count too high)");
    }
    const NegativeTable negatives(vocab);
    SgnsModel model(vocab, config);
    const kernels::SgnsBackendOps& ops = sgns_kernel_ops(config);

    const std::vector<std::size_t>& offsets = corpus.offsets();
    const std::size_t num_sentences = corpus.num_walks();
    const std::uint64_t corpus_tokens = corpus.num_tokens();

    util::ThreadPool& pool = util::ThreadPool::global();
    const unsigned requested = config.num_threads ? config.num_threads
                                                  : util::default_threads();
    const unsigned team = static_cast<unsigned>(std::min<std::size_t>(
        {requested, pool.size(), num_sentences}));

    // Each rank writes the shared output matrix or its private copy;
    // the input matrix is always shared.
    const std::size_t matrix_floats = model.matrix_floats();
    const bool private_copies =
        use_private_copies(team, matrix_floats * sizeof(float));
    RankBuffers copies(private_copies ? team : 0, matrix_floats);
    std::vector<float*> copy_ptrs;
    for (unsigned rank = 0; private_copies && rank < team; ++rank) {
        copy_ptrs.push_back(copies[rank]);
        std::copy_n(model.output_data(), matrix_floats, copy_ptrs.back());
    }
    const std::size_t round_size =
        private_copies
            ? std::min(kRoundSentencesPerCopy * team,
                       (num_sentences + kMinRoundsPerEpoch - 1) /
                           kMinRoundsPerEpoch)
            : num_sentences;
    // Each rank merges one line-aligned slice of the matrix.
    const std::size_t merge_slice = merge_slice_floats(matrix_floats, team);

    struct alignas(kCacheLineBytes) RankState
    {
        std::vector<WordId> words;
        std::uint64_t pairs = 0;
    };
    std::vector<RankState> ranks(team);
    RankBuffers scratch(team, config.dim);

    // One counter scope spanning all epochs: the rank→worker mapping
    // is stable across dispatches, so each thread's set is opened once
    // and the close() below aggregates the whole training run.
    obs::PerfRankScopes perf_scopes("sgns", team);

    for (unsigned epoch = 0; epoch < config.epochs; ++epoch) {
        util::check_cancellation("the sgns epoch loop");
        const obs::Span epoch_span("sgns.epoch");
        std::atomic<std::size_t> cursor{0};
        std::barrier sync(static_cast<std::ptrdiff_t>(team));
        pool.run(team, [&](unsigned rank) {
            perf_scopes.ensure(rank);
            RankState& state = ranks[rank];
            float* const output =
                private_copies ? copy_ptrs[rank] : model.output_data();
            try {
                for (std::size_t round_begin = 0;
                     round_begin < num_sentences;
                     round_begin += round_size) {
                    const std::size_t round_end =
                        std::min(num_sentences, round_begin + round_size);
                    for (;;) {
                        const std::size_t chunk = cursor.fetch_add(
                            kGrain, std::memory_order_relaxed);
                        if (chunk >= round_end) {
                            break;
                        }
                        const std::size_t chunk_end =
                            std::min(chunk + kGrain, round_end);
                        for (std::size_t s = chunk; s < chunk_end; ++s) {
                            rng::Random random(rng::mix_seed(
                                config.seed,
                                static_cast<std::uint64_t>(epoch) *
                                        num_sentences +
                                    s));
                            train_sentence(
                                model, output, vocab, negatives,
                                config, ops, corpus.walk(s),
                                sgns_alpha(config, epoch, offsets[s],
                                           corpus_tokens),
                                random, state.words, scratch[rank],
                                state.pairs);
                        }
                    }
                    sync.arrive_and_wait(); // the round is trained
                    if (rank == 0) {
                        cursor.store(round_end, std::memory_order_relaxed);
                    }
                    if (private_copies) {
                        const std::size_t begin = std::min(
                            matrix_floats, rank * merge_slice);
                        merge_output_copies(
                            model.output_data(), copy_ptrs, begin,
                            std::min(matrix_floats, begin + merge_slice));
                    }
                    sync.arrive_and_wait(); // copies hold the merge
                }
            } catch (...) {
                // Release the peers still waiting on this rank.
                sync.arrive_and_drop();
                throw;
            }
        });

        // Divergence screen: a runaway alpha turns the Hogwild updates
        // into inf/NaN well before training ends; fail with context
        // instead of emitting a poisoned embedding.
        if (!model.all_finite()) {
            util::fatal(util::strcat(
                "train_sgns: non-finite model weights after epoch ",
                epoch + 1, " of ", config.epochs,
                " — training diverged (alpha = ", config.alpha, ")"));
        }
    }

    std::uint64_t pairs = 0;
    for (const RankState& state : ranks) {
        pairs += state.pairs;
    }
    const std::uint64_t tokens = corpus_tokens * config.epochs;
    const std::uint64_t merge_rounds =
        private_copies ? static_cast<std::uint64_t>(config.epochs) *
                             ((num_sentences + round_size - 1) / round_size)
                       : 0;
    const double seconds = timer.seconds();
    obs::Registry& registry = obs::Registry::global();
    registry.counter("sgns.pairs").add(pairs);
    registry.counter("sgns.tokens").add(tokens);
    registry.counter("sgns.epochs").add(config.epochs);
    // The schedule's last value: the final sentence of the final epoch.
    registry.gauge("sgns.alpha")
        .set(static_cast<double>(
            sgns_alpha(config, config.epochs - 1,
                       offsets[num_sentences - 1], corpus_tokens)));
    registry.gauge("sgns.replica_bytes")
        .set(static_cast<double>(copy_ptrs.size() * matrix_floats *
                                 sizeof(float)));
    registry.gauge("sgns.merge_rounds")
        .set(static_cast<double>(merge_rounds));
    registry.gauge("sgns.pairs_per_second")
        .set(seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0);

    const obs::PerfSample perf = perf_scopes.close();
    for (const auto& [key, value] : obs::perf_span_args(perf)) {
        span.arg(key, value);
    }

    if (stats != nullptr) {
        stats->pairs_trained = pairs;
        stats->tokens_processed = tokens;
        stats->seconds = seconds;
    }
    return model.to_embedding(vocab, num_nodes);
}

} // namespace tgl::embed
