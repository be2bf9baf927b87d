/// Unit + property tests for the temporal walk engine (Algorithm 1).
#include "walk/engine.hpp"

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

namespace tgl::walk {
namespace {

graph::TemporalGraph
toy_graph()
{
    // u=0 -> v=1 @1; v -> x=2 @2; v -> y=3 @3; x -> w=4 @1 (dead end
    // from v at time 2 because 1 < 2).
    graph::EdgeList edges;
    edges.add(0, 1, 1.0);
    edges.add(1, 2, 2.0);
    edges.add(1, 3, 3.0);
    edges.add(2, 4, 1.0);
    return graph::GraphBuilder::build(edges);
}

/// Verify a walk is temporally valid: a monotone edge-time assignment
/// exists along its hops (greedy minimal feasible time).
void
expect_temporally_valid(const graph::TemporalGraph& graph,
                        std::span<const graph::NodeId> walk, bool strict)
{
    double now = -std::numeric_limits<double>::infinity();
    for (std::size_t hop = 0; hop + 1 < walk.size(); ++hop) {
        const graph::NodeId u = walk[hop];
        const graph::NodeId v = walk[hop + 1];
        double best = std::numeric_limits<double>::infinity();
        for (const graph::Neighbor& n : graph.out_neighbors(u)) {
            const bool valid = strict && hop > 0 ? n.time > now
                                                 : n.time >= now;
            if (n.dst == v && valid) {
                best = std::min(best, n.time);
            }
        }
        ASSERT_NE(best, std::numeric_limits<double>::infinity())
            << "hop " << hop << " (" << u << " -> " << v
            << ") has no temporally valid edge";
        now = best;
    }
}

TEST(Engine, WalkCountsMatchKTimesKeptVertices)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 4;
    config.min_walk_tokens = 1; // keep everything
    const Corpus corpus = generate_walks(graph, config);
    EXPECT_EQ(corpus.num_walks(),
              static_cast<std::size_t>(graph.num_nodes()) * 3);
}

TEST(Engine, MinWalkTokensFiltersSingletons)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 4;
    config.min_walk_tokens = 2;
    const Corpus corpus = generate_walks(graph, config);
    // Vertices 3 and 4 have no out-edges -> singleton walks dropped.
    EXPECT_EQ(corpus.num_walks(), 3u);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        EXPECT_GE(corpus.walk_length(i), 2u);
    }
}

TEST(Engine, WalksStartAtTheirVertex)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 3;
    config.min_walk_tokens = 1;
    const Corpus corpus = generate_walks(graph, config);
    // Order is (walk-index, vertex): walk i covers vertex i % n.
    const std::size_t n = graph.num_nodes();
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        EXPECT_EQ(corpus.walk(i)[0], i % n);
    }
}

TEST(Engine, RespectsMaxLength)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 50, .num_edges = 2000, .seed = 1});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 5;
    const Corpus corpus = generate_walks(graph, config);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        EXPECT_LE(corpus.walk_length(i), 6u); // N steps = N+1 tokens
    }
}

TEST(Engine, DeadEndStopsWalk)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 10;
    config.min_walk_tokens = 1;
    config.seed = 9;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_GT(profile.dead_ends, 0u);
    // Walk from vertex 3 (no out-edges) is a singleton.
    EXPECT_EQ(corpus.walk_length(3), 1u);
}

TEST(Engine, ProfileCountsAreConsistent)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 100, .num_edges = 1000, .seed = 2});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 6;
    config.min_walk_tokens = 1;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.walks_started, 400u);
    EXPECT_EQ(profile.walks_kept, corpus.num_walks());
    // tokens = walks + steps when nothing is filtered.
    EXPECT_EQ(corpus.num_tokens(),
              profile.walks_started + profile.steps_taken);
    EXPECT_GT(profile.transition_cost.compute_ops, 0u);
}

TEST(Engine, InvalidConfigThrows)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.max_length = 0;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
    config.max_length = 5;
    config.walks_per_node = 0;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
    config.walks_per_node = 1;
    config.max_length = 255;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
}

TEST(Engine, DeterministicAcrossThreadCounts)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 3, .seed = 4});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.seed = 1234;

    config.num_threads = 1;
    const Corpus serial = generate_walks(graph, config);
    config.num_threads = 8;
    const Corpus parallel = generate_walks(graph, config);

    ASSERT_EQ(serial.num_walks(), parallel.num_walks());
    ASSERT_EQ(serial.num_tokens(), parallel.num_tokens());
    EXPECT_EQ(serial.tokens(), parallel.tokens());
    EXPECT_EQ(serial.offsets(), parallel.offsets());
}

TEST(Engine, CachedSamplerDeterministicAcrossThreadCounts)
{
    // Walks are seeded per (walk, vertex), so with the prefix-CDF
    // cache on the corpus must still be bit-identical for any team
    // size.
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 4, .seed = 31});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.transition = TransitionKind::kExponentialDecay;
    config.transition_cache = TransitionCacheMode::kOn;
    config.seed = 4321;

    config.num_threads = 1;
    const Corpus serial = generate_walks(graph, config);
    for (const unsigned threads : {2u, 8u}) {
        config.num_threads = threads;
        const Corpus parallel = generate_walks(graph, config);
        ASSERT_EQ(serial.num_walks(), parallel.num_walks());
        EXPECT_EQ(serial.tokens(), parallel.tokens()) << threads;
        EXPECT_EQ(serial.offsets(), parallel.offsets()) << threads;
    }
}

TEST(Engine, CacheModeChangesDrawSequenceNotDistribution)
{
    // Documented divergence: the cached sampler consumes one RNG draw
    // per step, the direct scan one per candidate, so the same seed
    // yields *different* (equally distributed) corpora. Both must be
    // complete and temporally valid; bit-equality across modes is NOT
    // part of the contract (which is why the mode is part of the
    // checkpoint fingerprint — see core/checkpoint.cpp).
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 4, .seed = 32});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.transition = TransitionKind::kExponential;
    config.seed = 7;

    config.transition_cache = TransitionCacheMode::kOff;
    const Corpus direct = generate_walks(graph, config);
    config.transition_cache = TransitionCacheMode::kOn;
    const Corpus cached = generate_walks(graph, config);

    EXPECT_EQ(direct.num_walks(), cached.num_walks());
    EXPECT_NE(direct.tokens(), cached.tokens());
    for (std::size_t i = 0; i < cached.num_walks(); ++i) {
        expect_temporally_valid(graph, cached.walk(i), true);
    }
}

TEST(Engine, CachedStepsCountedInProfile)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 100, .num_edges = 1500, .seed = 33});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.transition_cache = TransitionCacheMode::kOn;
    WalkProfile profile;
    generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.cached_steps, profile.steps_taken);

    config.transition_cache = TransitionCacheMode::kOff;
    WalkProfile direct_profile;
    generate_walks(graph, config, &direct_profile);
    EXPECT_EQ(direct_profile.cached_steps, 0u);
}

TEST(Engine, DifferentSeedsGiveDifferentWalks)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 100, .num_edges = 2000, .seed = 5});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.seed = 1;
    const Corpus a = generate_walks(graph, config);
    config.seed = 2;
    const Corpus b = generate_walks(graph, config);
    EXPECT_NE(a.tokens(), b.tokens());
}

TEST(Engine, LinearNeighborSearchMatchesBinarySearchExactly)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 150, .num_edges = 3000, .seed = 6});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.seed = 77;
    config.linear_neighbor_search = false;
    const Corpus binary = generate_walks(graph, config);
    config.linear_neighbor_search = true;
    const Corpus linear = generate_walks(graph, config);
    EXPECT_EQ(binary.tokens(), linear.tokens());
    EXPECT_EQ(binary.offsets(), linear.offsets());
}

/// Property: every emitted walk is temporally valid, across transition
/// kinds, strictness modes, and graph shapes.
struct ValidityCase
{
    TransitionKind transition;
    bool strict;
    // gtest names each case by the object's raw bytes; spell out the
    // tail padding as zeroed members so copies carry no stack garbage
    // and the case names are the same on every run.
    std::uint8_t pad[sizeof(TransitionKind) - sizeof(bool)] = {};
};
static_assert(sizeof(ValidityCase) == 2 * sizeof(TransitionKind));

class WalkValidity : public ::testing::TestWithParam<ValidityCase>
{
};

TEST_P(WalkValidity, AllWalksTemporallyValid)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 3, .seed = 11});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});

    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 10;
    config.transition = GetParam().transition;
    config.strict_time = GetParam().strict;
    config.seed = 99;
    const Corpus corpus = generate_walks(graph, config);
    ASSERT_GT(corpus.num_walks(), 0u);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        expect_temporally_valid(graph, corpus.walk(i),
                                GetParam().strict);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, WalkValidity,
    ::testing::Values(
        ValidityCase{TransitionKind::kUniform, true},
        ValidityCase{TransitionKind::kUniform, false},
        ValidityCase{TransitionKind::kExponential, true},
        ValidityCase{TransitionKind::kExponentialDecay, true},
        ValidityCase{TransitionKind::kLinear, true}));

TEST(Engine, StaticModeIgnoresTimestamps)
{
    // A chain with decreasing timestamps: temporal walks die at the
    // first hop; static walks traverse it fully.
    graph::EdgeList edges;
    edges.add(0, 1, 0.9);
    edges.add(1, 2, 0.5);
    edges.add(2, 3, 0.1);
    const auto graph = graph::GraphBuilder::build(edges);

    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 5;
    config.min_walk_tokens = 1;

    config.temporal = true;
    const Corpus temporal = generate_walks(graph, config);
    EXPECT_EQ(temporal.walk_length(0), 2u); // 0 -> 1, then dead end

    config.temporal = false;
    const Corpus static_walks = generate_walks(graph, config);
    EXPECT_EQ(static_walks.walk_length(0), 4u); // full chain
}

TEST(Engine, StaticModeDeterministicAcrossThreads)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 200, .num_edges = 4000, .seed = 21});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.temporal = false;
    config.seed = 5;
    config.num_threads = 1;
    const Corpus serial = generate_walks(graph, config);
    config.num_threads = 4;
    const Corpus parallel = generate_walks(graph, config);
    EXPECT_EQ(serial.tokens(), parallel.tokens());
}

TEST(Engine, EdgeStartWalksBeginOnRealEdges)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 3, .seed = 22});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.start = StartKind::kTemporalEdge;
    config.min_walk_tokens = 1;
    const Corpus corpus = generate_walks(graph, config);
    EXPECT_EQ(corpus.num_walks(),
              static_cast<std::size_t>(graph.num_nodes()) * 2);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        const auto walk = corpus.walk(i);
        ASSERT_GE(walk.size(), 2u); // the sampled edge's two endpoints
        EXPECT_TRUE(graph.has_edge(walk[0], walk[1]))
            << walk[0] << " -> " << walk[1];
    }
}

TEST(Engine, EdgeStartWalksAreTemporallyValid)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 3, .seed = 23});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.start = StartKind::kTemporalEdge;
    const Corpus corpus = generate_walks(graph, config);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        expect_temporally_valid(graph, corpus.walk(i), true);
    }
}

TEST(Engine, EdgeStartOnEmptyGraphThrows)
{
    graph::EdgeList edges;
    const auto graph =
        graph::GraphBuilder::build(edges, {.min_num_nodes = 5});
    WalkConfig config;
    config.start = StartKind::kTemporalEdge;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
}

TEST(Corpus, AppendMerges)
{
    Corpus a, b;
    const graph::NodeId walk1[] = {1, 2, 3};
    const graph::NodeId walk2[] = {4, 5};
    a.add_walk(walk1);
    b.add_walk(walk2);
    a.append(std::move(b));
    ASSERT_EQ(a.num_walks(), 2u);
    EXPECT_EQ(a.walk(1)[0], 4u);
    EXPECT_EQ(a.walk_length(1), 2u);
    EXPECT_EQ(a.num_tokens(), 5u);
}

TEST(Corpus, StreamRoundTrip)
{
    Corpus original;
    const graph::NodeId w1[] = {1, 2, 3};
    const graph::NodeId w2[] = {42};
    const graph::NodeId w3[] = {7, 7};
    original.add_walk(w1);
    original.add_walk(w2);
    original.add_walk(w3);

    std::stringstream stream;
    original.save(stream);
    const Corpus loaded = Corpus::load(stream);
    ASSERT_EQ(loaded.num_walks(), 3u);
    EXPECT_EQ(loaded.tokens(), original.tokens());
    EXPECT_EQ(loaded.offsets(), original.offsets());
}

TEST(Corpus, LoadSkipsBlankLinesAndRejectsGarbage)
{
    std::istringstream good("1 2 3\n\n4 5\n");
    const Corpus corpus = Corpus::load(good);
    EXPECT_EQ(corpus.num_walks(), 2u);

    std::istringstream bad("1 x 3\n");
    EXPECT_THROW(Corpus::load(bad), util::Error);
    std::istringstream negative("1 -2\n");
    EXPECT_THROW(Corpus::load(negative), util::Error);
}

TEST(Corpus, FileRoundTrip)
{
    Corpus original;
    const graph::NodeId w[] = {9, 8, 7};
    original.add_walk(w);
    const std::string path = testing::TempDir() + "/tgl_corpus.txt";
    original.save_file(path);
    const Corpus loaded = Corpus::load_file(path);
    EXPECT_EQ(loaded.tokens(), original.tokens());
    EXPECT_THROW(Corpus::load_file("/nonexistent/corpus.txt"),
                 util::Error);
}

} // namespace
} // namespace tgl::walk
