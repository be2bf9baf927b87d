/// @file
/// Serving-layer battery (src/serve/, DESIGN.md §14): snapshot
/// epoch-swap consistency under concurrent readers, RCU-style memory
/// reclamation (old snapshots freed exactly when the last reader
/// drops them), int8 quantization error bounds, and the wire protocol
/// end to end — known-answer scores against a locally evaluated
/// classifier, kNN agreement with the snapshot scan, malformed and
/// oversized frames, hot reload with an epoch bump, and the graceful
/// drain. TGL_SERVE_STRESS=1 additionally runs the long concurrent
/// stress mix (the nightly TSan job sets it).
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/request_trace.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

#include "embed/embedding.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"
#include "rng/random.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

/// A file under the test temp dir, unique to this process: ctest runs
/// this binary under several labels at once, and a shared name let one
/// process replace another's reload file mid-test.
std::string
scratch_path(const std::string& name)
{
    return testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

using namespace tgl;

embed::Embedding
make_embedding(graph::NodeId nodes, unsigned dim, std::uint64_t seed)
{
    embed::Embedding embedding(nodes, dim);
    rng::Random random(seed);
    for (graph::NodeId u = 0; u < nodes; ++u) {
        for (float& x : embedding.row(u)) {
            x = random.next_float() * 2.0f - 1.0f;
        }
    }
    return embedding;
}

/// An embedding whose every element equals @p value — a torn read
/// mixing two such snapshots is detectable from any two elements.
embed::Embedding
constant_embedding(graph::NodeId nodes, unsigned dim, float value)
{
    embed::Embedding embedding(nodes, dim);
    for (graph::NodeId u = 0; u < nodes; ++u) {
        for (float& x : embedding.row(u)) {
            x = value;
        }
    }
    return embedding;
}

nn::Mlp
make_classifier(unsigned dim)
{
    rng::Random random(7);
    return nn::make_link_predictor(2 * std::size_t{dim}, 16, random);
}

// ---------------------------------------------------------------------------
// Snapshot store: epoch swaps, torn reads, reclamation

TEST(ServeSnapshot, PublishAcquireRoundtrip)
{
    serve::SnapshotStore store;
    const auto snapshot = serve::EmbeddingSnapshot::build(
        make_embedding(10, 4, 1), serve::QuantMode::kFp32, 3, 0xabcd);
    store.publish(snapshot);
    const auto seen = store.acquire();
    EXPECT_EQ(seen->epoch(), 3u);
    EXPECT_EQ(seen->fingerprint(), 0xabcdu);
    EXPECT_EQ(seen->num_nodes(), 10u);
    EXPECT_EQ(seen->dim(), 4u);
}

TEST(ServeSnapshot, NoTornReadsAcrossConcurrentSwaps)
{
    // Readers gather rows while the writer flips between two constant
    // snapshots. Every gathered row must be internally consistent
    // (all elements from one epoch) and match that snapshot's epoch
    // tag — a torn publish or a reader mixing epochs mid-batch fails.
    const graph::NodeId kNodes = 64;
    const unsigned kDim = 16;
    const auto one = serve::EmbeddingSnapshot::build(
        constant_embedding(kNodes, kDim, 1.0f), serve::QuantMode::kFp32,
        1, 0);
    const auto two = serve::EmbeddingSnapshot::build(
        constant_embedding(kNodes, kDim, 2.0f), serve::QuantMode::kFp32,
        2, 0);

    serve::SnapshotStore store;
    store.publish(one);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> inconsistencies{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&, r] {
            rng::Random random(100 + r);
            std::vector<float> row(kDim);
            while (!stop.load(std::memory_order_relaxed)) {
                const auto snapshot = store.acquire();
                const float expected =
                    snapshot->epoch() == 1 ? 1.0f : 2.0f;
                const auto u = static_cast<graph::NodeId>(
                    random.next_index(kNodes));
                snapshot->gather_row(u, row.data());
                for (const float x : row) {
                    if (x != expected) {
                        inconsistencies.fetch_add(1);
                    }
                }
            }
        });
    }
    for (int swap = 0; swap < 2000; ++swap) {
        store.publish(swap % 2 == 0 ? two : one);
    }
    stop.store(true);
    for (std::thread& reader : readers) {
        reader.join();
    }
    EXPECT_EQ(inconsistencies.load(), 0u);
}

TEST(ServeSnapshot, OldSnapshotFreedAfterLastReaderDrops)
{
    serve::SnapshotStore store;
    auto first = serve::EmbeddingSnapshot::build(
        make_embedding(8, 4, 2), serve::QuantMode::kFp32, 1, 0);
    const std::weak_ptr<const serve::EmbeddingSnapshot> watch = first;
    store.publish(std::move(first));

    // A reader pins the old epoch across the swap...
    auto reader_ref = store.acquire();
    store.publish(serve::EmbeddingSnapshot::build(
        make_embedding(8, 4, 3), serve::QuantMode::kFp32, 2, 0));
    EXPECT_FALSE(watch.expired()); // ...so it must stay alive...
    reader_ref.reset();
    EXPECT_TRUE(watch.expired()); // ...and die with its last reference.
    EXPECT_EQ(store.acquire()->epoch(), 2u);
}

// ---------------------------------------------------------------------------
// int8 quantization

TEST(ServeSnapshot, Int8ErrorWithinPerRowBound)
{
    const embed::Embedding embedding = make_embedding(50, 24, 5);
    const auto q = serve::EmbeddingSnapshot::build(
        embedding, serve::QuantMode::kInt8, 1, 0);

    std::vector<float> served(embedding.dim());
    float worst = 0.0f;
    for (graph::NodeId u = 0; u < embedding.num_nodes(); ++u) {
        float max_abs = 0.0f;
        for (const float x : embedding.row(u)) {
            max_abs = std::max(max_abs, std::fabs(x));
        }
        // Round-to-nearest symmetric quantization: error <= scale / 2.
        const float bound = max_abs / 127.0f * 0.5f + 1e-6f;
        q->gather_row(u, served.data());
        for (unsigned j = 0; j < embedding.dim(); ++j) {
            const float err = std::fabs(served[j] - embedding.row(u)[j]);
            worst = std::max(worst, err);
            EXPECT_LE(err, bound) << "node " << u << " dim " << j;
        }
    }
    EXPECT_FLOAT_EQ(q->max_quant_error(), worst);
    EXPECT_GT(q->max_quant_error(), 0.0f);
}

TEST(ServeSnapshot, Int8DotTracksFp32)
{
    const embed::Embedding embedding = make_embedding(40, 32, 6);
    const auto fp32 = serve::EmbeddingSnapshot::build(
        embedding, serve::QuantMode::kFp32, 1, 0);
    const auto int8 = serve::EmbeddingSnapshot::build(
        embedding, serve::QuantMode::kInt8, 1, 0);
    for (graph::NodeId u = 0; u < 40; ++u) {
        for (graph::NodeId v = u + 1; v < 40; v += 7) {
            // Elementwise error eps_i <= scale/2 per side bounds the
            // dot drift by dim * (|a|_inf eps_b + |b|_inf eps_a) plus
            // second-order terms; for unit-ish rows a loose 2% of dim
            // margin is far above that and far below real regressions.
            EXPECT_NEAR(fp32->dot(u, v), int8->dot(u, v),
                        0.02 * embedding.dim());
        }
    }
}

TEST(ServeSnapshot, Int8ZeroRowStaysExact)
{
    embed::Embedding embedding = make_embedding(4, 8, 7);
    for (float& x : embedding.row(2)) {
        x = 0.0f;
    }
    const auto q = serve::EmbeddingSnapshot::build(
        embedding, serve::QuantMode::kInt8, 1, 0);
    std::vector<float> served(8);
    q->gather_row(2, served.data());
    for (const float x : served) {
        EXPECT_EQ(x, 0.0f);
    }
    EXPECT_EQ(q->dot(2, 1), 0.0f);
}

TEST(ServeSnapshot, ParseQuantMode)
{
    EXPECT_EQ(serve::parse_quant_mode("fp32"), serve::QuantMode::kFp32);
    EXPECT_EQ(serve::parse_quant_mode("int8"), serve::QuantMode::kInt8);
    EXPECT_FALSE(serve::parse_quant_mode("fp16").has_value());
    EXPECT_STREQ(serve::quant_mode_name(serve::QuantMode::kInt8), "int8");
}

// ---------------------------------------------------------------------------
// Server end to end

struct ServerFixture
{
    explicit ServerFixture(serve::QuantMode quant = serve::QuantMode::kFp32,
                           graph::NodeId nodes = 60, unsigned dim = 8)
        : ServerFixture(
              [quant] {
                  serve::ServeConfig config;
                  config.quant = quant;
                  return config;
              }(),
              nodes, dim)
    {
    }

    explicit ServerFixture(serve::ServeConfig config,
                           graph::NodeId nodes = 60, unsigned dim = 8)
        : embedding(make_embedding(nodes, dim, 11))
    {
        config.scorer_threads = 2;
        server = std::make_unique<serve::Server>(
            config,
            serve::EmbeddingSnapshot::build(embedding, config.quant, 1,
                                            0x5eed),
            [dim] { return make_classifier(dim); });
        server->start();
    }

    serve::Client
    client() const
    {
        return serve::Client("127.0.0.1", server->port());
    }

    embed::Embedding embedding;
    std::unique_ptr<serve::Server> server;
};

TEST(ServeServer, PingReportsIdentity)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    const serve::PingInfo info = client.ping();
    EXPECT_EQ(info.epoch, 1u);
    EXPECT_EQ(info.fingerprint, 0x5eedu);
    EXPECT_EQ(info.num_nodes, 60u);
    EXPECT_EQ(info.dim, 8u);
    EXPECT_EQ(info.quant, serve::QuantMode::kFp32);
}

TEST(ServeServer, LinkScoresMatchLocalForward)
{
    // Known answers: the served score for (u, v) must equal running
    // the same classifier on [f(u); f(v)] locally.
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
        {0, 1}, {5, 9}, {12, 3}, {59, 58}, {7, 7}};
    const std::vector<float> scores = client.link_scores(pairs);
    ASSERT_EQ(scores.size(), pairs.size());

    nn::Mlp reference = make_classifier(fixture.embedding.dim());
    const unsigned dim = fixture.embedding.dim();
    nn::Tensor features(pairs.size(), 2 * std::size_t{dim});
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto u = fixture.embedding.row(pairs[i].first);
        const auto v = fixture.embedding.row(pairs[i].second);
        std::copy(u.begin(), u.end(), features.row(i).begin());
        std::copy(v.begin(), v.end(), features.row(i).begin() + dim);
    }
    const nn::Tensor& expected = reference.forward(features);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_NEAR(scores[i], expected(i, 0), 1e-5f) << "pair " << i;
        EXPECT_GE(scores[i], 0.0f);
        EXPECT_LE(scores[i], 1.0f);
    }
}

TEST(ServeServer, CoalescedBatchLargerThanCapStaysCorrect)
{
    // A single request above max_batch_pairs becomes its own batch;
    // many small concurrent requests coalesce. Either way scores must
    // be positionally correct.
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t i = 0; i < 600; ++i) {
        pairs.emplace_back(i % 60, (i * 7 + 3) % 60);
    }
    const std::vector<float> big = client.link_scores(pairs);
    ASSERT_EQ(big.size(), pairs.size());
    // Cross-check a few positions against one-pair requests.
    for (const std::size_t i : {std::size_t{0}, std::size_t{299},
                                std::size_t{599}}) {
        const std::vector<float> single =
            client.link_scores({pairs[i]});
        EXPECT_NEAR(big[i], single[0], 1e-5f) << "position " << i;
    }
}

TEST(ServeServer, KnnMatchesSnapshotScan)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    const auto got = client.knn(4, 6);
    const auto expected =
        serve::EmbeddingSnapshot::build(fixture.embedding,
                                        serve::QuantMode::kFp32, 1, 0)
            ->nearest(4, 6);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, expected[i].first) << "rank " << i;
        EXPECT_NEAR(got[i].second, expected[i].second, 1e-6f);
    }
    // Best-first ordering.
    for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_GE(got[i - 1].second, got[i].second);
    }
}

TEST(ServeServer, RejectsMalformedFrames)
{
    const ServerFixture fixture;

    { // unknown opcode: kBadRequest, then the server closes.
        serve::Client client = fixture.client();
        const serve::Response response = client.roundtrip({0x7f});
        EXPECT_EQ(response.status, serve::Status::kBadRequest);
        EXPECT_NE(response.body_text().find("malformed"),
                  std::string::npos);
    }
    { // zero-length frame.
        serve::Client client = fixture.client();
        const serve::Response response =
            client.send_raw({0, 0, 0, 0});
        EXPECT_EQ(response.status, serve::Status::kBadRequest);
        EXPECT_NE(response.body_text().find("empty frame"),
                  std::string::npos);
    }
    { // link-score body shorter than its pair count claims.
        serve::Client client = fixture.client();
        std::vector<std::uint8_t> payload;
        serve::put_u8(payload,
                      static_cast<std::uint8_t>(serve::Op::kLinkScore));
        serve::put_u32(payload, 4); // promises 4 pairs, delivers 1
        serve::put_u32(payload, 0);
        serve::put_u32(payload, 1);
        const serve::Response response = client.roundtrip(payload);
        EXPECT_EQ(response.status, serve::Status::kBadRequest);
        EXPECT_NE(response.body_text().find("does not match"),
                  std::string::npos);
    }
    { // out-of-range node id.
        serve::Client client = fixture.client();
        EXPECT_THROW(client.link_scores({{0, 1000}}), util::Error);
    }
    { // knn k over the cap.
        serve::Client client = fixture.client();
        EXPECT_THROW(client.knn(0, 100000), util::Error);
    }

    // The server survived all of the above and still answers.
    serve::Client client = fixture.client();
    EXPECT_EQ(client.ping().epoch, 1u);
}

TEST(ServeServer, RejectsOversizedFrameBeforeReadingIt)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    // A length prefix far beyond the cap, with no body following: the
    // server must reject from the header alone, not wait for 256 MiB.
    std::vector<std::uint8_t> header;
    serve::put_u32(header, 256u * 1024 * 1024);
    const serve::Response response = client.send_raw(header);
    EXPECT_EQ(response.status, serve::Status::kBadRequest);
    EXPECT_NE(response.body_text().find("oversized"), std::string::npos);
}

TEST(ServeServer, ReloadBumpsEpochAndSwapsScores)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    const std::vector<float> before = client.link_scores({{0, 1}});

    const std::string path =
        scratch_path("serve_reload_test.tgla");
    const embed::Embedding next =
        make_embedding(fixture.embedding.num_nodes(),
                       fixture.embedding.dim(), 999);
    next.save_binary_file(path, /*fingerprint=*/0xfeed);

    EXPECT_EQ(client.reload(path), 2u);
    const serve::PingInfo info = client.ping();
    EXPECT_EQ(info.epoch, 2u);
    EXPECT_EQ(info.fingerprint, 0xfeedu);

    const std::vector<float> after = client.link_scores({{0, 1}});
    EXPECT_NE(before[0], after[0]); // new embedding, new score
    std::remove(path.c_str());
}

TEST(ServeServer, FailedReloadKeepsServingOldEpoch)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    // Missing file: kServerError, connection stays open, epoch 1 stays
    // published.
    std::vector<std::uint8_t> payload;
    serve::put_u8(payload, static_cast<std::uint8_t>(serve::Op::kReload));
    const std::string path = "/nonexistent/embedding.tgla";
    payload.insert(payload.end(), path.begin(), path.end());
    const serve::Response response = client.roundtrip(payload);
    EXPECT_EQ(response.status, serve::Status::kServerError);
    EXPECT_EQ(client.ping().epoch, 1u);
    // Dim mismatch is equally non-fatal.
    const std::string wrong =
        scratch_path("serve_wrong_dim.tgla");
    make_embedding(10, 4, 1).save_binary_file(wrong);
    payload.clear();
    serve::put_u8(payload, static_cast<std::uint8_t>(serve::Op::kReload));
    payload.insert(payload.end(), wrong.begin(), wrong.end());
    EXPECT_EQ(client.roundtrip(payload).status,
              serve::Status::kServerError);
    EXPECT_EQ(client.ping().epoch, 1u);
    std::remove(wrong.c_str());
}

TEST(ServeServer, Int8ServedScoresNearFp32)
{
    const ServerFixture fp32(serve::QuantMode::kFp32);
    serve::ServeConfig config;
    config.quant = serve::QuantMode::kInt8;
    serve::Server int8_server(
        config,
        serve::EmbeddingSnapshot::build(fp32.embedding,
                                        serve::QuantMode::kInt8, 1, 0),
        [dim = fp32.embedding.dim()] { return make_classifier(dim); });
    int8_server.start();

    serve::Client a = fp32.client();
    serve::Client b("127.0.0.1", int8_server.port());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t i = 0; i < 50; ++i) {
        pairs.emplace_back(i, (i * 13 + 1) % 60);
    }
    const std::vector<float> exact = a.link_scores(pairs);
    const std::vector<float> quantized = b.link_scores(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        // Post-sigmoid scores; int8 feature error is ~1e-3 per
        // element, well inside this tolerance for a 16-hidden MLP.
        EXPECT_NEAR(exact[i], quantized[i], 0.05) << "pair " << i;
    }
    int8_server.stop();
}

TEST(ServeServer, GracefulDrainAnswersInflightThenCloses)
{
    auto fixture = std::make_unique<ServerFixture>();
    const std::uint16_t port = fixture->server->port();

    std::atomic<std::uint64_t> answered{0};
    std::atomic<int> connected{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            // Connect before the drain begins (main waits on
            // `connected`); everything after `go` races with stop().
            serve::Client client("127.0.0.1", port);
            connected.fetch_add(1);
            while (!go.load()) {
            }
            try {
                for (int i = 0; i < 50; ++i) {
                    const auto scores = client.link_scores(
                        {{static_cast<std::uint32_t>(c), 1}});
                    if (!scores.empty()) {
                        answered.fetch_add(1);
                    }
                }
            } catch (const util::Error&) {
                // The drain may close the connection between requests;
                // requests that got responses were already counted.
            }
        });
    }
    while (connected.load() < 4) {
    }
    go.store(true);
    // Wait for proof of forward progress so the drain below always
    // races with live in-flight requests (on a single-core host stop()
    // could otherwise win before any client was even scheduled).
    while (answered.load() == 0) {
    }
    fixture->server->stop(); // concurrent with the request storm
    for (std::thread& client : clients) {
        client.join();
    }
    // Every response that was sent was a complete, valid frame (the
    // client throws on torn frames, failing the test via 0 answers +
    // the catch swallowing everything — require forward progress).
    EXPECT_GT(answered.load(), 0u);
    // After the drain no new connection is accepted.
    EXPECT_THROW(serve::Client("127.0.0.1", port), util::Error);
    EXPECT_NO_THROW(fixture->server->stop()); // idempotent
}

TEST(ServeServer, ConfigValidationCatchesNonsense)
{
    serve::ServeConfig config;
    config.scorer_threads = 0;
    config.max_batch_pairs = 0;
    config.max_frame_bytes = 8;
    config.max_knn = 0;
    EXPECT_EQ(config.validate().size(), 4u);
    EXPECT_TRUE(serve::ServeConfig{}.validate().empty());
}

TEST(ServeServer, StressConcurrentMixedLoadWithReloads)
{
    // Heavy mix for the nightly TSan job; short but real otherwise.
    const bool heavy = [] {
        const char* env = std::getenv("TGL_SERVE_STRESS");
        return env != nullptr && std::string(env) == "1";
    }();
    const int kClients = heavy ? 8 : 3;
    const int kRequests = heavy ? 400 : 40;
    const int kReloads = heavy ? 30 : 5;

    const ServerFixture fixture(serve::QuantMode::kFp32, 80, 8);
    const std::string path =
        scratch_path("serve_stress_reload.tgla");
    make_embedding(80, 8, 31).save_binary_file(path);

    std::atomic<std::uint64_t> scored{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
            serve::Client client = fixture.client();
            rng::Random random(c + 1);
            for (int i = 0; i < kRequests; ++i) {
                if (i % 3 == 0) {
                    client.knn(static_cast<std::uint32_t>(
                                   random.next_index(80)),
                               4);
                } else {
                    std::vector<std::pair<std::uint32_t, std::uint32_t>>
                        pairs(1 + random.next_index(16));
                    for (auto& [u, v] : pairs) {
                        u = static_cast<std::uint32_t>(
                            random.next_index(80));
                        v = static_cast<std::uint32_t>(
                            random.next_index(80));
                    }
                    scored.fetch_add(
                        client.link_scores(pairs).size());
                }
            }
        });
    }
    std::thread reloader([&] {
        serve::Client client = fixture.client();
        for (int i = 0; i < kReloads; ++i) {
            client.reload(path);
        }
    });
    for (std::thread& worker : workers) {
        worker.join();
    }
    reloader.join();
    EXPECT_GT(scored.load(), 0u);
    serve::Client client = fixture.client();
    EXPECT_EQ(client.ping().epoch,
              static_cast<std::uint64_t>(1 + kReloads));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Telemetry: slow-request log, per-request tracing, text/timeseries
// opcodes (DESIGN.md §15)

serve::SlowRequestRecord
slow_record(std::uint64_t id, double total)
{
    serve::SlowRequestRecord record;
    record.request_id = id;
    record.total_seconds = total;
    record.forward_seconds = total;
    return record;
}

TEST(ServeSlowLog, KeepsTopKByTotalLatency)
{
    serve::SlowRequestLog log(3);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        // Totals 0.01 .. 0.06: only the three slowest survive.
        log.record(slow_record(i, 0.01 * static_cast<double>(i)));
    }
    EXPECT_EQ(log.size(), 3u);
    const auto entries = log.entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].request_id, 6u); // slowest first
    EXPECT_EQ(entries[1].request_id, 5u);
    EXPECT_EQ(entries[2].request_id, 4u);
    // A fast request never evicts a slower resident.
    log.record(slow_record(7, 0.001));
    EXPECT_EQ(log.entries()[2].request_id, 4u);
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.to_json(), "[]");
}

TEST(ServeSlowLog, ToJsonCarriesStageBreakdown)
{
    serve::SlowRequestLog log(4);
    serve::SlowRequestRecord record = slow_record(42, 0.25);
    record.epoch = 3;
    record.pairs = 17;
    record.queue_seconds = 0.125;
    log.record(record);
    const std::string json = log.to_json();
    EXPECT_NE(json.find("\"request_id\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"epoch\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"pairs\": 17"), std::string::npos);
    EXPECT_NE(json.find("\"queue_seconds\": 0.125"), std::string::npos);
    EXPECT_NE(json.find("\"total_seconds\": 0.25"), std::string::npos);
}

TEST(ServeTrace, SecondsBetweenGuardsUnsetAndReversed)
{
    const serve::TracePoint unset{};
    const auto now = std::chrono::steady_clock::now();
    const auto later = now + std::chrono::milliseconds(10);
    EXPECT_EQ(serve::RequestTrace::seconds_between(unset, now), 0.0);
    EXPECT_EQ(serve::RequestTrace::seconds_between(now, unset), 0.0);
    EXPECT_EQ(serve::RequestTrace::seconds_between(later, now), 0.0);
    EXPECT_NEAR(serve::RequestTrace::seconds_between(now, later), 0.010,
                1e-6);
    serve::RequestTrace trace;
    EXPECT_FALSE(trace.complete());
    trace.accepted = trace.enqueued = trace.assembled = now;
    trace.forward_done = trace.serialized = later;
    EXPECT_TRUE(trace.complete());
}

TEST(ServeServer, MetricsTextExpositionRoundtrips)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    (void)client.link_scores({{0, 1}, {2, 3}});
    const std::string text = client.metrics_text();
    // Names are sanitized, counters carry _total, histograms expose
    // cumulative buckets with a +Inf terminator.
    EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_epoch gauge"), std::string::npos);
    EXPECT_NE(
        text.find("# TYPE serve_link_latency_seconds histogram"),
        std::string::npos);
    EXPECT_NE(text.find("serve_link_latency_seconds_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("serve_link_latency_seconds_sum"),
              std::string::npos);
    EXPECT_NE(text.find("serve_link_latency_seconds_count"),
              std::string::npos);
    // The tracing stage histograms flow through the same registry.
    EXPECT_NE(text.find("serve_stage_total_seconds_bucket"),
              std::string::npos);
}

TEST(ServeServer, TimeseriesOpcodeReturnsRollups)
{
    serve::ServeConfig config;
    config.sample_interval_ms = 5;
    const ServerFixture fixture(config);
    serve::Client client = fixture.client();
    (void)client.link_scores({{0, 1}});
    // Let the sampler take at least one post-priming sample.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const std::string json = client.timeseries_json();
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"interval_ms\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"windows\": ["), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"serve.requests\""),
              std::string::npos);
    // The drain takes one final sample, so the dump stays available
    // (and covers the shutdown) after stop().
    fixture.server->stop();
    EXPECT_NE(fixture.server->timeseries_json().find("\"samples\""),
              std::string::npos);
}

TEST(ServeServer, TimeseriesDisabledIsServerErrorNotFatal)
{
    serve::ServeConfig config;
    config.timeseries = false;
    const ServerFixture fixture(config);
    serve::Client client = fixture.client();
    const serve::Response response = client.roundtrip(
        {static_cast<std::uint8_t>(serve::Op::kTimeseries)});
    EXPECT_EQ(response.status, serve::Status::kServerError);
    EXPECT_NE(response.body_text().find("disabled"), std::string::npos);
    // The connection survives and keeps serving.
    EXPECT_EQ(client.ping().epoch, 1u);
    EXPECT_EQ(fixture.server->timeseries_json(), "{}\n");
}

TEST(ServeServer, StatsCarriesSlowRequests)
{
    const ServerFixture fixture;
    serve::Client client = fixture.client();
    (void)client.link_scores({{0, 1}, {5, 6}});
    const std::string stats = client.stats_json();
    // The slow log is spliced in as a sibling of "metrics"; a traced
    // request must appear with its stage breakdown.
    EXPECT_NE(stats.find("\"slow_requests\": ["), std::string::npos);
    EXPECT_NE(stats.find("\"request_id\""), std::string::npos);
    EXPECT_NE(stats.find("\"forward_seconds\""), std::string::npos);
    EXPECT_NE(stats.find("\"metrics\""), std::string::npos);
    EXPECT_GE(fixture.server->slow_log().size(), 1u);
}

TEST(ServeServer, TracingOffKeepsSlowLogEmpty)
{
    serve::ServeConfig config;
    config.request_tracing = false;
    const ServerFixture fixture(config);
    serve::Client client = fixture.client();
    (void)client.link_scores({{0, 1}});
    (void)client.link_scores({{2, 3}});
    EXPECT_EQ(fixture.server->slow_log().size(), 0u);
    // The stats splice still emits the (empty) array so consumers can
    // rely on the key's presence.
    EXPECT_NE(client.stats_json().find("\"slow_requests\": []"),
              std::string::npos);
}

TEST(ServeServer, InjectedScorerStallLandsInSlowLog)
{
    serve::ServeConfig config;
    config.slow_log_capacity = 8;
    const ServerFixture fixture(config);
    serve::Client client = fixture.client();
    (void)client.link_scores({{0, 1}}); // fast baseline request
    util::FailpointRegistry::configure("serve.score=delay:60ms@1");
    (void)client.link_scores({{2, 3}}); // stalled in the scorer
    util::FailpointRegistry::clear();
    // The server logs a request only after its response is on the
    // socket. A connection's requests are served in order, so one more
    // round trip guarantees both entries are in before the log is read.
    (void)client.stats_json();
    const auto entries = fixture.server->slow_log().entries();
    ASSERT_GE(entries.size(), 2u);
    // The stalled request tops the log, with the stall attributed to
    // the queue stage (the failpoint fires before batch assembly).
    EXPECT_GE(entries[0].total_seconds, 0.05);
    EXPECT_GE(entries[0].queue_seconds, 0.05);
    EXPECT_GT(entries[0].total_seconds, entries[1].total_seconds);
}

} // namespace
