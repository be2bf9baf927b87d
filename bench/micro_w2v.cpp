/// @file
/// Micro-benchmarks of the SGNS trainers: Hogwild vs batched, padding
/// and vectorization knobs, dimension sweep. Items = training pairs.
///
/// After the google-benchmark suite, two comparison harnesses run:
/// the trainer comparison (Hogwild vs batched plus the negative-table
/// samplers, and the Hogwild 1/2/4-thread axis at d = 8 in ns per
/// pair, best-of-3, BENCH_w2v.json with an `nproc` meta key) and the kernel-backend A/B
/// (scalar vs simd single-pair update loop, cache-hot, per dim
/// 8/32/128, BENCH_w2v_kernels.json with a `simd_isa` meta key so the
/// regression gate skips cross-ISA comparisons) — see bench_json.hpp
/// for the schema.
#include "bench_json.hpp"
#include "tgl/tgl.hpp"
#include "util/timer.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>

namespace {

using namespace tgl;

const walk::Corpus&
shared_corpus()
{
    static const walk::Corpus corpus = [] {
        const auto dataset = gen::make_dataset("ia-email", 0.03, 9);
        const auto graph = graph::GraphBuilder::build(
            dataset.edges, {.symmetrize = true});
        walk::WalkConfig config;
        config.walks_per_node = 5;
        config.max_length = 6;
        config.seed = 21;
        return walk::generate_walks(graph, config);
    }();
    return corpus;
}

/// The perfbench lp-email corpus shape (ia-email@0.1, K = 10, N = 6):
/// large enough that a 4-thread team runs several merge rounds per
/// epoch, which the small shared corpus above does not.
const walk::Corpus&
scaling_corpus()
{
    static const walk::Corpus corpus = [] {
        const auto dataset = gen::make_dataset("ia-email", 0.1, 1);
        const auto graph = graph::GraphBuilder::build(
            dataset.edges, {.symmetrize = true});
        walk::WalkConfig config;
        config.walks_per_node = 10;
        config.max_length = 6;
        config.seed = 1;
        return walk::generate_walks(graph, config);
    }();
    return corpus;
}

graph::NodeId
max_node_plus_one(const walk::Corpus& corpus)
{
    graph::NodeId max_node = 0;
    for (graph::NodeId node : corpus.tokens()) {
        max_node = std::max(max_node, node);
    }
    return max_node + 1;
}

/// Args: dim, team size (0 = default threads). The d = 8 thread axis
/// runs on scaling_corpus() and reports ns of wall time per pair.
void
BM_HogwildTrain(benchmark::State& state)
{
    const unsigned threads = static_cast<unsigned>(state.range(1));
    const walk::Corpus& corpus =
        threads != 0 ? scaling_corpus() : shared_corpus();
    const graph::NodeId nodes = max_node_plus_one(corpus);
    embed::SgnsConfig config;
    config.dim = static_cast<unsigned>(state.range(0));
    config.epochs = 1;
    config.num_threads = threads;
    std::uint64_t pairs = 0;
    for (auto _ : state) {
        embed::TrainStats stats;
        benchmark::DoNotOptimize(
            embed::train_sgns(corpus, nodes, config, &stats));
        pairs += stats.pairs_trained;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
    state.counters["ns_per_pair"] = benchmark::Counter(
        static_cast<double>(pairs) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_HogwildTrain)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 0})
    ->Args({32, 0})
    ->Args({128, 0})
    ->Unit(benchmark::kMillisecond);

void
run_batched(benchmark::State& state, std::size_t batch, unsigned stride,
            bool vectorized)
{
    const walk::Corpus& corpus = shared_corpus();
    const graph::NodeId nodes = max_node_plus_one(corpus);
    embed::BatchedSgnsConfig config;
    config.sgns.dim = 8;
    config.sgns.epochs = 1;
    config.sgns.row_stride = stride;
    config.sgns.vectorized = vectorized;
    config.batch_size = batch;
    std::uint64_t pairs = 0;
    for (auto _ : state) {
        embed::TrainStats stats;
        benchmark::DoNotOptimize(
            embed::train_sgns_batched(corpus, nodes, config, &stats));
        pairs += stats.pairs_trained;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}

void
BM_BatchedBySize(benchmark::State& state)
{
    run_batched(state, static_cast<std::size_t>(state.range(0)), 0, true);
}

BENCHMARK(BM_BatchedBySize)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void
BM_BatchedPadded(benchmark::State& state)
{
    run_batched(state, 16384, 16, true);
}

void
BM_BatchedNoPad(benchmark::State& state)
{
    run_batched(state, 16384, 0, true);
}

void
BM_BatchedScalar(benchmark::State& state)
{
    run_batched(state, 16384, 0, false);
}

void
BM_BatchedSharedNegatives(benchmark::State& state)
{
    const walk::Corpus& corpus = shared_corpus();
    const graph::NodeId nodes = max_node_plus_one(corpus);
    embed::BatchedSgnsConfig config;
    config.sgns.dim = 8;
    config.sgns.epochs = 1;
    config.batch_size = 16384;
    config.shared_negatives = true;
    std::uint64_t pairs = 0;
    for (auto _ : state) {
        embed::TrainStats stats;
        benchmark::DoNotOptimize(
            embed::train_sgns_batched(corpus, nodes, config, &stats));
        pairs += stats.pairs_trained;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}

BENCHMARK(BM_BatchedPadded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchedNoPad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchedScalar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchedSharedNegatives)->Unit(benchmark::kMillisecond);

void
BM_NegativeTableAlias(benchmark::State& state)
{
    const embed::Vocab vocab(shared_corpus());
    const embed::NegativeTable table(vocab,
                                     embed::NegativeTableKind::kAlias);
    rng::Random random(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.sample(random));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_NegativeTableArray(benchmark::State& state)
{
    const embed::Vocab vocab(shared_corpus());
    const embed::NegativeTable table(vocab,
                                     embed::NegativeTableKind::kArray,
                                     1 << 22);
    rng::Random random(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.sample(random));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_NegativeTableAlias);
BENCHMARK(BM_NegativeTableArray);

/// Best-of-N wall time of one full trainer run; returns the pairs
/// trained in the fastest rep via @p pairs so rates use real work.
template <typename TrainFn>
double
time_trainer(TrainFn&& train, std::uint64_t* pairs)
{
    constexpr int kReps = 3;
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        embed::TrainStats stats;
        util::Timer timer;
        const embed::Embedding embedding = train(stats);
        const double seconds = timer.seconds();
        benchmark::DoNotOptimize(embedding.num_nodes());
        if (seconds < best) {
            best = seconds;
            *pairs = stats.pairs_trained;
        }
    }
    return best;
}

/// Hogwild vs batched trainer and alias vs array negative-table
/// draws, written to BENCH_w2v.json for the CI regression gate.
void
run_trainer_comparison()
{
    const walk::Corpus& corpus = shared_corpus();
    const graph::NodeId nodes = max_node_plus_one(corpus);

    embed::SgnsConfig hogwild;
    hogwild.dim = 32;
    hogwild.epochs = 2;
    std::uint64_t hogwild_pairs = 0;
    const double hogwild_s = time_trainer(
        [&](embed::TrainStats& stats) {
            return embed::train_sgns(corpus, nodes, hogwild, &stats);
        },
        &hogwild_pairs);

    embed::BatchedSgnsConfig batched;
    batched.sgns = hogwild;
    batched.batch_size = 16384;
    std::uint64_t batched_pairs = 0;
    const double batched_s = time_trainer(
        [&](embed::TrainStats& stats) {
            return embed::train_sgns_batched(corpus, nodes, batched,
                                             &stats);
        },
        &batched_pairs);

    // Negative-table draw rate: fixed draw count, best-of-3.
    const embed::Vocab vocab(corpus);
    constexpr std::uint64_t kDraws = 1u << 22;
    const auto time_table = [&](embed::NegativeTableKind kind) {
        const embed::NegativeTable table(vocab, kind, 1 << 22);
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            rng::Random random(3);
            std::uint64_t sink = 0;
            util::Timer timer;
            for (std::uint64_t i = 0; i < kDraws; ++i) {
                sink += table.sample(random);
            }
            const double seconds = timer.seconds();
            benchmark::DoNotOptimize(sink);
            best = std::min(best, seconds);
        }
        return best;
    };
    const double alias_s = time_table(embed::NegativeTableKind::kAlias);
    const double array_s = time_table(embed::NegativeTableKind::kArray);

    std::vector<bench::BenchEntry> entries;
    entries.push_back(
        {"w2v/hogwild", hogwild_s,
         hogwild_s > 0.0 ? hogwild_pairs / hogwild_s : 0.0,
         {{"pairs", static_cast<double>(hogwild_pairs)},
          {"dim", static_cast<double>(hogwild.dim)},
          {"epochs", static_cast<double>(hogwild.epochs)}}});
    entries.push_back(
        {"w2v/batched", batched_s,
         batched_s > 0.0 ? batched_pairs / batched_s : 0.0,
         {{"pairs", static_cast<double>(batched_pairs)},
          {"batch_size", static_cast<double>(batched.batch_size)}}});
    entries.push_back({"w2v/negative_alias", alias_s,
                       alias_s > 0.0 ? kDraws / alias_s : 0.0,
                       {{"draws", static_cast<double>(kDraws)}}});
    entries.push_back({"w2v/negative_array", array_s,
                       array_s > 0.0 ? kDraws / array_s : 0.0,
                       {{"draws", static_cast<double>(kDraws)}}});

    std::printf("\n--- SGNS trainer comparison (dim %u, %u epochs) ---\n",
                hogwild.dim, hogwild.epochs);
    std::printf("hogwild %8.4fs | batched %8.4fs | neg alias %8.4fs | "
                "neg array %8.4fs\n",
                hogwild_s, batched_s, alias_s, array_s);

    // Thread scaling at the paper's d = 8 on the lp-email corpus shape:
    // wall and process-CPU ns per pair of the fastest of 3 reps. CPU
    // per pair is what cross-core line transfers inflate.
    const walk::Corpus& scaling = scaling_corpus();
    const graph::NodeId scaling_nodes = max_node_plus_one(scaling);
    for (const unsigned threads : {1u, 2u, 4u}) {
        embed::SgnsConfig config;
        config.dim = 8;
        config.epochs = 1;
        config.num_threads = threads;
        double best = 1e300;
        double best_cpu = 0.0;
        std::uint64_t pairs = 0;
        for (int rep = 0; rep < 3; ++rep) {
            embed::TrainStats stats;
            const std::clock_t cpu_start = std::clock();
            util::Timer timer;
            benchmark::DoNotOptimize(embed::train_sgns(
                scaling, scaling_nodes, config, &stats));
            const double seconds = timer.seconds();
            const double cpu = static_cast<double>(std::clock() -
                                                   cpu_start) /
                               CLOCKS_PER_SEC;
            if (seconds < best) {
                best = seconds;
                best_cpu = cpu;
                pairs = stats.pairs_trained;
            }
        }
        const double per_pair = pairs > 0 ? 1e9 / pairs : 0.0;
        entries.push_back(
            {util::strcat("w2v/hogwild_d8/threads", threads), best,
             best > 0.0 ? pairs / best : 0.0,
             {{"threads", static_cast<double>(threads)},
              {"pairs", static_cast<double>(pairs)},
              {"ns_per_pair", best * per_pair},
              {"cpu_ns_per_pair", best_cpu * per_pair}}});
        std::printf("hogwild d=8 %u thread(s): %8.4fs | %6.1f ns/pair | "
                    "%6.1f cpu ns/pair\n",
                    threads, best, best * per_pair, best_cpu * per_pair);
    }
    bench::write_bench_json(
        "BENCH_w2v.json", "w2v", entries,
        {{"nproc", std::to_string(util::host_info().hardware_threads)}});
}

/// Scalar-vs-simd kernel backend A/B on the cache-hot single-pair
/// update loop: a small identity-space model (fits L2 at every dim)
/// hammered with pre-seeded pair draws, best-of-3 per backend per dim.
/// The speedup metrics and the ratio-unit median entry quantify the
/// tentpole claim (simd >= 1.0x median); the timing entries feed the
/// bench-regression gate.
void
run_kernel_comparison()
{
    constexpr std::size_t kVocab = 512;
    constexpr std::uint64_t kPairs = 300000;
    constexpr unsigned kNegatives = 5;
    const unsigned dims[] = {8, 32, 128};

    // Skewed counts so the negative table is realistic (unigram^0.75
    // over a Zipf-ish law) while every word stays sampleable.
    std::vector<std::uint64_t> counts(kVocab);
    for (std::size_t w = 0; w < kVocab; ++w) {
        counts[w] = 1 + 1000 / (w + 1);
    }
    const embed::NegativeTable negatives(counts);

    std::vector<bench::BenchEntry> entries;
    std::vector<double> speedups;
    for (const unsigned dim : dims) {
        embed::SgnsConfig config;
        config.dim = dim;

        const auto time_backend =
            [&](const embed::kernels::SgnsBackendOps& ops) {
                double best = 1e300;
                for (int rep = 0; rep < 3; ++rep) {
                    embed::SgnsModel model(kVocab, config);
                    std::vector<float> scratch(dim);
                    rng::Random pair_random(11);
                    rng::Random negative_random(13);
                    util::Timer timer;
                    for (std::uint64_t i = 0; i < kPairs; ++i) {
                        const auto context = static_cast<embed::WordId>(
                            pair_random.next_index(kVocab));
                        const auto center = static_cast<embed::WordId>(
                            pair_random.next_index(kVocab));
                        embed::sgns_update_pair(
                            model, model.output_data(), context, center,
                            negatives, kNegatives, 0.025f, ops,
                            negative_random, scratch.data());
                    }
                    const double seconds = timer.seconds();
                    benchmark::DoNotOptimize(model.all_finite());
                    best = std::min(best, seconds);
                }
                return best;
            };

        const double scalar_s =
            time_backend(embed::kernels::scalar_sgns_ops());
        const double simd_s = time_backend(embed::kernels::simd_sgns_ops());
        const double speedup = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
        speedups.push_back(speedup);

        const std::string prefix =
            util::strcat("w2v_kernels/dim", dim, "/");
        entries.push_back(
            {prefix + "scalar", scalar_s,
             scalar_s > 0.0 ? kPairs / scalar_s : 0.0,
             {{"pairs", static_cast<double>(kPairs)},
              {"dim", static_cast<double>(dim)}}});
        entries.push_back({prefix + "simd", simd_s,
                           simd_s > 0.0 ? kPairs / simd_s : 0.0,
                           {{"pairs", static_cast<double>(kPairs)},
                            {"dim", static_cast<double>(dim)},
                            {"speedup_vs_scalar", speedup}}});
        std::printf("w2v kernels dim %3u: scalar %8.4fs | simd %8.4fs "
                    "| speedup %.2fx\n",
                    dim, scalar_s, simd_s, speedup);
    }

    // Median speedup as a non-timing entry: visible to humans and
    // scripts, excluded from the wall-clock regression gate by its
    // unit.
    std::vector<double> sorted = speedups;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    entries.push_back({"w2v_kernels/median_speedup", median, 0.0,
                       {},
                       "ratio"});
    std::printf("w2v kernels median speedup (simd vs scalar): %.2fx\n",
                median);

    bench::write_bench_json(
        "BENCH_w2v_kernels.json", "w2v_kernels", entries,
        {{"simd_isa", embed::kernels::simd_sgns_isa()}});
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    run_trainer_comparison();
    run_kernel_comparison();
    return 0;
}
