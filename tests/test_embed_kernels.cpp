/// Tests for the SGNS kernel layer: the SigmoidTable out-of-bounds
/// regression, the simd kernels against the scalar reference loops,
/// backend parsing/resolution, the batched per-pair RNG stream
/// derivation, and the scalar-vs-simd training equivalence battery
/// (backends agree in law — link-prediction-grade separation — not
/// bytes).
#include "embed/kernels.hpp"

#include "embed/sigmoid_table.hpp"
#include "embed/trainer.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

namespace tgl::embed {
namespace {

constexpr graph::NodeId kNumNodes = 20;

/// Draw-count scale factor for the nightly high-sample rerun:
/// TGL_EQUIV_DRAWS=10 multiplies every statistical sample size by 10.
int
equiv_scale()
{
    const char* env = std::getenv("TGL_EQUIV_DRAWS");
    if (env == nullptr) {
        return 1;
    }
    const long mult = std::strtol(env, nullptr, 10);
    return mult > 1 ? static_cast<int>(mult) : 1;
}

/// Corpus with two disjoint "communities" (0-9 and 10-19): sentences
/// only ever mix nodes within one community.
walk::Corpus
two_community_corpus(std::uint64_t seed, std::size_t sentences = 800)
{
    rng::Random random(seed);
    walk::Corpus corpus;
    std::vector<graph::NodeId> sentence;
    for (std::size_t s = 0; s < sentences; ++s) {
        const graph::NodeId base = (s % 2 == 0) ? 0 : 10;
        sentence.clear();
        for (int i = 0; i < 6; ++i) {
            sentence.push_back(
                base + static_cast<graph::NodeId>(random.next_index(10)));
        }
        corpus.add_walk(sentence);
    }
    return corpus;
}

/// Mean intra-community minus inter-community cosine similarity; a
/// well-trained embedding gives a clearly positive margin.
double
separation_margin(const Embedding& embedding)
{
    double intra = 0.0, inter = 0.0;
    int intra_count = 0, inter_count = 0;
    for (graph::NodeId u = 0; u < kNumNodes; ++u) {
        for (graph::NodeId v = u + 1; v < kNumNodes; ++v) {
            const bool same = (u < 10) == (v < 10);
            const double cos = embedding.cosine(u, v);
            if (same) {
                intra += cos;
                ++intra_count;
            } else {
                inter += cos;
                ++inter_count;
            }
        }
    }
    return intra / intra_count - inter / inter_count;
}

/// Every trained coordinate must be finite — NaN/inf poisoning is what
/// the saturation law exists to prevent.
bool
all_finite(const Embedding& embedding)
{
    for (float v : embedding.data()) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

SgnsConfig
fast_config(kernels::SgnsBackend backend)
{
    SgnsConfig config;
    config.dim = 8;
    config.window = 3;
    config.negatives = 4;
    config.epochs = 8;
    config.seed = 5;
    config.num_threads = 2;
    config.backend = backend;
    return config;
}

// ---------------------------------------------------------------------
// Bugfix 1 regression: SigmoidTable out-of-bounds read at the +6 edge.
// For x just below kMaxExp, the f32 sum (x + 6.0f) rounds up to exactly
// 12.0f and the classic word2vec index expression lands one past the
// table. Pre-fix (no clamp in index_for) this test reads values_[1024]
// and fails under AddressSanitizer.

TEST(SigmoidTable, NoOutOfBoundsReadJustInsideTheSaturationEdges)
{
    const SigmoidTable& table = SigmoidTable::instance();
    // Hammer a run of representable floats approaching each edge from
    // inside; every one must hit a valid slot and stay in (0, 1).
    float x = std::nextafter(SigmoidTable::kMaxExp, 0.0f);
    for (int i = 0; i < 64; ++i) {
        ASSERT_LT(SigmoidTable::index_for(x),
                  static_cast<std::size_t>(SigmoidTable::kTableSize));
        const float y = table(x);
        EXPECT_GT(y, 0.5f);
        EXPECT_LE(y, 1.0f);
        x = std::nextafter(x, 0.0f);
    }
    x = std::nextafter(-SigmoidTable::kMaxExp, 0.0f);
    for (int i = 0; i < 64; ++i) {
        ASSERT_LT(SigmoidTable::index_for(x),
                  static_cast<std::size_t>(SigmoidTable::kTableSize));
        const float y = table(x);
        EXPECT_GE(y, 0.0f);
        EXPECT_LT(y, 0.5f);
        x = std::nextafter(x, 0.0f);
    }
}

TEST(SigmoidTable, SaturatesSymmetricallyAtExactlySix)
{
    const SigmoidTable& table = SigmoidTable::instance();
    EXPECT_EQ(table(SigmoidTable::kMaxExp), 1.0f);
    EXPECT_EQ(table(-SigmoidTable::kMaxExp), 0.0f);
    EXPECT_EQ(table(100.0f), 1.0f);
    EXPECT_EQ(table(-100.0f), 0.0f);
    EXPECT_EQ(table(std::numeric_limits<float>::infinity()), 1.0f);
    EXPECT_EQ(table(-std::numeric_limits<float>::infinity()), 0.0f);
}

TEST(SigmoidTable, NanSaturatesInsteadOfIndexing)
{
    // Casting NaN to int is UB; the table must route NaN through the
    // saturation branch (a diverged model yields garbage loss, not an
    // out-of-bounds read).
    const SigmoidTable& table = SigmoidTable::instance();
    EXPECT_EQ(table(std::numeric_limits<float>::quiet_NaN()), 1.0f);
}

TEST(SigmoidTable, MatchesExactSigmoidInsideTheTable)
{
    const SigmoidTable& table = SigmoidTable::instance();
    for (float x = -5.9f; x < 5.9f; x += 0.37f) {
        const float expected = 1.0f / (1.0f + std::exp(-x));
        EXPECT_NEAR(table(x), expected, 0.01f) << "x = " << x;
    }
}

// ---------------------------------------------------------------------
// Kernel-level agreement: the simd dot/axpy/sigmoid_batch kernels
// against the scalar reference ops, across dims that exercise full
// vectors, tails, and sub-vector sizes.

std::vector<float>
random_row(rng::Random& random, unsigned dim)
{
    std::vector<float> row(dim);
    for (float& v : row) {
        v = static_cast<float>(random.next_double()) * 2.0f - 1.0f;
    }
    return row;
}

TEST(SgnsKernels, DotMatchesScalarReference)
{
    const auto& scalar = kernels::scalar_sgns_ops();
    const auto& simd = kernels::simd_sgns_ops();
    rng::Random random(17);
    for (unsigned dim : {1u, 3u, 7u, 8u, 9u, 16u, 31u, 32u, 128u, 131u}) {
        const auto a = random_row(random, dim);
        const auto b = random_row(random, dim);
        const float reference = scalar.dot(a.data(), b.data(), dim);
        const float vectorized = simd.dot(a.data(), b.data(), dim);
        // The simd reduction reassociates; dim * eps covers it easily.
        EXPECT_NEAR(vectorized, reference, 1e-4f * dim) << "dim " << dim;
    }
}

TEST(SgnsKernels, AxpyMatchesScalarReference)
{
    const auto& scalar = kernels::scalar_sgns_ops();
    const auto& simd = kernels::simd_sgns_ops();
    rng::Random random(19);
    for (unsigned dim : {1u, 5u, 8u, 13u, 32u, 128u, 131u}) {
        const auto x = random_row(random, dim);
        auto y_scalar = random_row(random, dim);
        auto y_simd = y_scalar;
        scalar.axpy(0.3f, x.data(), y_scalar.data(), dim);
        simd.axpy(0.3f, x.data(), y_simd.data(), dim);
        for (unsigned i = 0; i < dim; ++i) {
            // No reassociation in axpy: fused-multiply-add is the only
            // permitted difference.
            EXPECT_NEAR(y_simd[i], y_scalar[i], 1e-6f)
                << "dim " << dim << " lane " << i;
        }
    }
}

TEST(SgnsKernels, SigmoidBatchMatchesTableExactlyIncludingSpecials)
{
    const SigmoidTable& table = SigmoidTable::instance();
    const auto& simd = kernels::simd_sgns_ops();
    std::vector<float> inputs = {
        0.0f,
        1.5f,
        -2.25f,
        SigmoidTable::kMaxExp,
        -SigmoidTable::kMaxExp,
        std::nextafter(SigmoidTable::kMaxExp, 0.0f),
        std::nextafter(-SigmoidTable::kMaxExp, 0.0f),
        100.0f,
        -100.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        5.999999f,
        -5.999999f,
    };
    rng::Random random(23);
    for (int i = 0; i < 200; ++i) {
        inputs.push_back(
            static_cast<float>(random.next_double()) * 16.0f - 8.0f);
    }
    std::vector<float> out(inputs.size());
    simd.sigmoid_batch(inputs.data(), out.data(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        // Exact: both sides read the same LUT under the same clamped
        // saturation law (the gather must not differ from the scalar
        // path even at the edges).
        EXPECT_EQ(out[i], table(inputs[i])) << "x = " << inputs[i];
    }
}

TEST(SgnsKernels, UpdateTargetsMatchesScalarReferenceInLaw)
{
    const auto& scalar = kernels::scalar_sgns_ops();
    const auto& simd = kernels::simd_sgns_ops();
    constexpr unsigned dim = 32;
    rng::Random random(29);
    const auto context0 = random_row(random, dim);
    std::vector<std::vector<float>> targets0;
    float labels[kernels::kSgnsTargetChunk] = {1.0f, 0.0f, 0.0f, 0.0f,
                                               0.0f, 1.0f, 0.0f, 0.0f};
    for (std::size_t t = 0; t < kernels::kSgnsTargetChunk; ++t) {
        targets0.push_back(random_row(random, dim));
    }

    const auto run = [&](const kernels::SgnsBackendOps& ops,
                         std::size_t count) {
        auto context = context0;
        auto targets = targets0;
        std::vector<float*> rows;
        for (auto& row : targets) {
            rows.push_back(row.data());
        }
        std::vector<float> scratch(dim, 0.0f);
        ops.update_targets(context.data(), rows.data(), labels, count, dim,
                           0.05f, scratch.data());
        ops.axpy(1.0f, scratch.data(), context.data(), dim);
        std::vector<float> flat = context;
        for (const auto& row : targets) {
            flat.insert(flat.end(), row.begin(), row.end());
        }
        return flat;
    };

    for (std::size_t count : {std::size_t{1}, std::size_t{3},
                              kernels::kSgnsTargetChunk}) {
        const auto a = run(scalar, count);
        const auto b = run(simd, count);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_NEAR(a[i], b[i], 1e-4f)
                << "count " << count << " element " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Backend selection plumbing.

TEST(SgnsKernels, ParseBackendRoundTrips)
{
    using kernels::SgnsBackend;
    EXPECT_EQ(kernels::parse_sgns_backend("auto"), SgnsBackend::kAuto);
    EXPECT_EQ(kernels::parse_sgns_backend("scalar"), SgnsBackend::kScalar);
    EXPECT_EQ(kernels::parse_sgns_backend("simd"), SgnsBackend::kSimd);
    EXPECT_FALSE(kernels::parse_sgns_backend("gpu").has_value());
    EXPECT_FALSE(kernels::parse_sgns_backend("").has_value());
    EXPECT_STREQ(kernels::sgns_backend_name(SgnsBackend::kAuto), "auto");
    EXPECT_STREQ(kernels::sgns_backend_name(SgnsBackend::kScalar),
                 "scalar");
    EXPECT_STREQ(kernels::sgns_backend_name(SgnsBackend::kSimd), "simd");
}

TEST(SgnsKernels, ResolutionHonorsVectorizedAndBackend)
{
    SgnsConfig config;
    config.vectorized = false;
    EXPECT_STREQ(sgns_kernel_ops(config).name, "scalar-modeled");

    config.vectorized = true;
    config.backend = kernels::SgnsBackend::kScalar;
    EXPECT_STREQ(sgns_kernel_ops(config).name, "scalar");

    config.backend = kernels::SgnsBackend::kSimd;
    EXPECT_STREQ(sgns_kernel_ops(config).name, "simd");

    config.backend = kernels::SgnsBackend::kAuto;
    const char* resolved = sgns_kernel_ops(config).name;
    if (std::string_view(kernels::simd_sgns_isa()) == "scalar") {
        EXPECT_STREQ(resolved, "scalar");
    } else {
        EXPECT_STREQ(resolved, "simd");
    }
}

TEST(SgnsKernels, SimdBackendRequiresVectorizedModel)
{
    SgnsConfig config = fast_config(kernels::SgnsBackend::kSimd);
    config.vectorized = false;
    EXPECT_THROW(train_sgns(two_community_corpus(3), kNumNodes, config),
                 util::Error);
}

// ---------------------------------------------------------------------
// Equivalence battery (`ctest -L equivalence`): scalar and simd
// backends must agree in law — both train embeddings that separate the
// two communities to link-prediction-grade margins and stay finite.
// TGL_EQUIV_DRAWS scales the number of independent seeds.

TEST(SgnsKernels, EquivalenceHogwildScalarVsSimd)
{
    const int seeds = 2 * equiv_scale();
    for (int seed = 1; seed <= seeds; ++seed) {
        const walk::Corpus corpus =
            two_community_corpus(static_cast<std::uint64_t>(seed));
        const Embedding scalar = train_sgns(
            corpus, kNumNodes, fast_config(kernels::SgnsBackend::kScalar));
        const Embedding simd = train_sgns(
            corpus, kNumNodes, fast_config(kernels::SgnsBackend::kSimd));
        EXPECT_TRUE(all_finite(scalar)) << "seed " << seed;
        EXPECT_TRUE(all_finite(simd)) << "seed " << seed;
        const double scalar_margin = separation_margin(scalar);
        const double simd_margin = separation_margin(simd);
        EXPECT_GT(scalar_margin, 0.5) << "seed " << seed;
        EXPECT_GT(simd_margin, 0.5) << "seed " << seed;
        EXPECT_NEAR(scalar_margin, simd_margin, 0.35) << "seed " << seed;
    }
}

TEST(SgnsKernels, EquivalenceBatchedScalarVsSimd)
{
    const int seeds = 2 * equiv_scale();
    for (int seed = 1; seed <= seeds; ++seed) {
        const walk::Corpus corpus =
            two_community_corpus(static_cast<std::uint64_t>(seed));
        SgnsConfig config = fast_config(kernels::SgnsBackend::kScalar);
        config.batch_sentences = 64;
        const Embedding scalar = train_sgns(corpus, kNumNodes, config);
        config.backend = kernels::SgnsBackend::kSimd;
        const Embedding simd = train_sgns(corpus, kNumNodes, config);
        EXPECT_TRUE(all_finite(scalar)) << "seed " << seed;
        EXPECT_TRUE(all_finite(simd)) << "seed " << seed;
        const double scalar_margin = separation_margin(scalar);
        const double simd_margin = separation_margin(simd);
        EXPECT_GT(scalar_margin, 0.5) << "seed " << seed;
        EXPECT_GT(simd_margin, 0.5) << "seed " << seed;
        EXPECT_NEAR(scalar_margin, simd_margin, 0.35) << "seed " << seed;
    }
}

} // namespace
} // namespace tgl::embed
