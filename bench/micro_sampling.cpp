/// @file
/// Micro-benchmarks of the sampling substrate: PRNG throughput,
/// alias vs CDF tables, one-pass vs two-pass transient sampling, and
/// the full softmax transition draw at varying neighborhood sizes
/// (the inner loop that makes the walk kernel compute-bound, Eq. 1).
///
/// Besides the google-benchmark console suite, the softmax-draw A/B
/// (direct exp-scan vs the prefix-CDF cache) is measured by a
/// dedicated harness and written to BENCH_sampling.json — same schema
/// as micro_walk's BENCH_walk.json (bench_json.hpp).
#include "bench_json.hpp"
#include "graph/builder.hpp"
#include "rng/alias_table.hpp"
#include "rng/discrete_sampler.hpp"
#include "walk/transition_cache.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

using namespace tgl;

void
BM_Xoshiro(benchmark::State& state)
{
    rng::Xoshiro256 engine(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine());
    }
}

BENCHMARK(BM_Xoshiro);

void
BM_NextIndex(benchmark::State& state)
{
    rng::Random random(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(random.next_index(12345));
    }
}

BENCHMARK(BM_NextIndex);

std::vector<double>
skewed_weights(std::size_t n)
{
    std::vector<double> weights(n);
    for (std::size_t i = 0; i < n; ++i) {
        weights[i] = 1.0 / static_cast<double>(i + 1);
    }
    return weights;
}

void
BM_AliasTableSample(benchmark::State& state)
{
    const rng::AliasTable table(
        skewed_weights(static_cast<std::size_t>(state.range(0))));
    rng::Random random(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.sample(random));
    }
}

BENCHMARK(BM_AliasTableSample)->Arg(16)->Arg(1024)->Arg(65536);

void
BM_DiscreteSamplerSample(benchmark::State& state)
{
    const rng::DiscreteSampler sampler(
        skewed_weights(static_cast<std::size_t>(state.range(0))));
    rng::Random random(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sampler.sample(random));
    }
}

BENCHMARK(BM_DiscreteSamplerSample)->Arg(16)->Arg(1024)->Arg(65536);

void
BM_OnePassTransient(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Random random(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng::sample_weighted_one_pass(
            n, [](std::size_t i) { return static_cast<double>(i + 1); },
            random));
    }
}

BENCHMARK(BM_OnePassTransient)->Arg(4)->Arg(32)->Arg(256);

void
BM_TwoPassTransient(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Random random(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng::sample_weighted_two_pass(
            n, [](std::size_t i) { return static_cast<double>(i + 1); },
            random));
    }
}

BENCHMARK(BM_TwoPassTransient)->Arg(4)->Arg(32)->Arg(256);

std::vector<graph::Neighbor>
neighborhood(std::size_t n)
{
    std::vector<graph::Neighbor> result(n);
    for (std::size_t i = 0; i < n; ++i) {
        result[i] = {static_cast<graph::NodeId>(i),
                     static_cast<double>(i) / static_cast<double>(n)};
    }
    return result;
}

void
run_transition(benchmark::State& state, walk::TransitionKind kind)
{
    const auto candidates =
        neighborhood(static_cast<std::size_t>(state.range(0)));
    rng::Random random(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(walk::sample_transition(
            candidates, 0.0, 1.0, kind, random));
    }
}

void
BM_TransitionUniform(benchmark::State& state)
{
    run_transition(state, walk::TransitionKind::kUniform);
}

void
BM_TransitionSoftmax(benchmark::State& state)
{
    run_transition(state, walk::TransitionKind::kExponential);
}

void
BM_TransitionLinear(benchmark::State& state)
{
    run_transition(state, walk::TransitionKind::kLinear);
}

BENCHMARK(BM_TransitionUniform)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_TransitionSoftmax)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_TransitionLinear)->Arg(4)->Arg(32)->Arg(256);

/// Single-draw A/B of the two softmax samplers on a star vertex of
/// degree @p n, best-of-3 over @p draws draws per rep.
void
measure_transition_draw(std::size_t n, walk::TransitionKind kind,
                        std::vector<bench::BenchEntry>& entries)
{
    graph::EdgeList edges;
    for (std::size_t i = 0; i < n; ++i) {
        edges.add(0, static_cast<graph::NodeId>(i + 1),
                  static_cast<double>(i) / static_cast<double>(n));
    }
    const auto graph = graph::GraphBuilder::build(edges);
    const walk::TransitionCache cache =
        walk::TransitionCache::build(graph, kind);
    const auto candidates = graph.out_neighbors(0);
    const double rate = graph.time_range();

    constexpr int kDraws = 200000;
    const double direct =
        bench::best_of(3, [&](int rep, bench::RepTimer& timer) {
            rng::Random random(rep + 1);
            timer.restart();
            for (int i = 0; i < kDraws; ++i) {
                benchmark::DoNotOptimize(walk::sample_transition(
                    candidates, 0.0, rate, kind, random));
            }
        }).seconds;
    const double cached =
        bench::best_of(3, [&](int rep, bench::RepTimer& timer) {
            rng::Random random(rep + 1);
            timer.restart();
            for (int i = 0; i < kDraws; ++i) {
                benchmark::DoNotOptimize(
                    cache.sample(graph, 0, candidates, 0.0, random));
            }
        }).seconds;
    const double speedup = cached > 0.0 ? direct / cached : 0.0;
    const std::string base = std::string("sampling/") +
                             walk::transition_name(kind) + "/d" +
                             std::to_string(n);
    entries.push_back({base + "/direct", direct,
                       direct > 0.0 ? kDraws / direct : 0.0,
                       {{"degree", static_cast<double>(n)}}});
    entries.push_back({base + "/cached", cached,
                       cached > 0.0 ? kDraws / cached : 0.0,
                       {{"degree", static_cast<double>(n)},
                        {"speedup_vs_direct", speedup}}});
    std::printf("%-22s direct %8.1f ns/draw | cached %8.1f ns/draw | "
                "speedup %5.2fx\n",
                base.c_str(), direct * 1e9 / kDraws,
                cached * 1e9 / kDraws, speedup);
}

void
run_sampling_comparison()
{
    std::printf("\n--- prefix-CDF draw vs direct exp-scan (per-draw "
                "cost by degree) ---\n");
    std::vector<bench::BenchEntry> entries;
    for (const walk::TransitionKind kind :
         {walk::TransitionKind::kExponential,
          walk::TransitionKind::kExponentialDecay,
          walk::TransitionKind::kLinear}) {
        for (const std::size_t degree : {4u, 32u, 256u}) {
            measure_transition_draw(degree, kind, entries);
        }
    }
    bench::write_bench_json("BENCH_sampling.json", "sampling", entries);
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
    run_sampling_comparison();
    return 0;
}
