#include "embed/sgns_model.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <string_view>

namespace tgl::embed {

namespace {

constexpr std::size_t kLineFloats = kCacheLineBytes / sizeof(float);

/// The reference per-target SGNS step, templated on the uncoalesced
/// model so both scalar backends share one body. Processing targets
/// strictly in sequence keeps these backends byte-identical to the
/// historic (pre-backend-interface) trainers regardless of how the
/// caller chunks the targets.
template <bool ScalarOnly>
void
scalar_update_targets(float* context_row, float* const* target_rows,
                      const float* labels, std::size_t count, unsigned dim,
                      float alpha, float* scratch)
{
    const SigmoidTable& sigmoid = SigmoidTable::instance();
    for (std::size_t t = 0; t < count; ++t) {
        float* target_row = target_rows[t];
        const float score =
            detail::dot(context_row, target_row, dim, ScalarOnly);
        const float gradient = (labels[t] - sigmoid(score)) * alpha;
        detail::axpy(gradient, target_row, scratch, dim, ScalarOnly);
        detail::axpy(gradient, context_row, target_row, dim, ScalarOnly);
    }
}

template <bool ScalarOnly>
float
scalar_dot(const float* a, const float* b, unsigned dim)
{
    return detail::dot(a, b, dim, ScalarOnly);
}

template <bool ScalarOnly>
void
scalar_axpy(float g, const float* x, float* y, unsigned dim)
{
    detail::axpy(g, x, y, dim, ScalarOnly);
}

void
scalar_sigmoid(const float* x, float* out, std::size_t n)
{
    const SigmoidTable& sigmoid = SigmoidTable::instance();
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = sigmoid(x[i]);
    }
}

} // namespace

const kernels::SgnsBackendOps&
kernels::scalar_sgns_ops()
{
    static const SgnsBackendOps ops{
        "scalar",           "generic",
        scalar_dot<false>,  scalar_axpy<false>,
        scalar_sigmoid,     scalar_update_targets<false>,
    };
    return ops;
}

const kernels::SgnsBackendOps&
kernels::modeled_scalar_sgns_ops()
{
    static const SgnsBackendOps ops{
        "scalar-modeled",  "generic",
        scalar_dot<true>,  scalar_axpy<true>,
        scalar_sigmoid,    scalar_update_targets<true>,
    };
    return ops;
}

const kernels::SgnsBackendOps&
sgns_kernel_ops(const SgnsConfig& config)
{
    const kernels::SgnsBackendOps& ops =
        [&]() -> const kernels::SgnsBackendOps& {
        if (!config.vectorized) {
            // An explicit simd request contradicts the modeled
            // uncoalesced path; validate() reports the same conflict
            // for pipeline configs, this guards direct trainer calls.
            if (config.backend == kernels::SgnsBackend::kSimd) {
                util::fatal("sgns backend 'simd' contradicts vectorized "
                            "= false (the modeled uncoalesced scalar "
                            "path); use backend 'scalar' or 'auto'");
            }
            return kernels::modeled_scalar_sgns_ops();
        }
        switch (config.backend) {
        case kernels::SgnsBackend::kScalar:
            return kernels::scalar_sgns_ops();
        case kernels::SgnsBackend::kSimd:
            return kernels::simd_sgns_ops();
        case kernels::SgnsBackend::kAuto:
        default:
            return std::string_view(kernels::simd_sgns_isa()) == "scalar"
                       ? kernels::scalar_sgns_ops()
                       : kernels::simd_sgns_ops();
        }
    }();

    obs::Registry::global()
        .counter(util::strcat("sgns.backend.", ops.name))
        .add(1);
    static std::atomic<bool> logged{false};
    if (!logged.exchange(true)) {
        util::inform(util::strcat("sgns kernel backend: ", ops.name, " (",
                                  ops.isa, ")"));
    }
    return ops;
}

std::vector<std::string>
SgnsConfig::validate() const
{
    std::vector<std::string> problems;
    if (dim == 0) {
        problems.push_back("dim must be >= 1");
    }
    if (window == 0) {
        problems.push_back("window must be >= 1");
    }
    if (epochs == 0) {
        problems.push_back("epochs must be >= 1");
    }
    if (!(alpha > 0.0f) || !std::isfinite(alpha)) {
        problems.push_back("alpha (learning rate) must be positive and "
                           "finite, got " + std::to_string(alpha));
    }
    if (!(subsample >= 0.0) || !std::isfinite(subsample)) {
        problems.push_back("subsample must be >= 0 and finite");
    }
    if (row_stride != 0 && row_stride < dim) {
        problems.push_back("row_stride must be 0 (packed) or >= dim, got " +
                           std::to_string(row_stride));
    }
    if (backend == kernels::SgnsBackend::kSimd && !vectorized) {
        problems.push_back(
            "sgns backend 'simd' contradicts vectorized = false (the "
            "modeled uncoalesced scalar path); use backend 'scalar' or "
            "'auto'");
    }
    return problems;
}

SgnsModel::SgnsModel(const Vocab& vocab, const SgnsConfig& config)
    : SgnsModel(vocab.size(), config)
{
}

SgnsModel::SgnsModel(std::size_t vocab_size, const SgnsConfig& config)
    : dim_(config.dim),
      stride_(config.row_stride == 0 ? config.dim : config.row_stride),
      vocab_size_(vocab_size)
{
    if (dim_ == 0) {
        util::fatal("SgnsModel: dim must be >= 1");
    }
    if (stride_ < dim_) {
        util::fatal("SgnsModel: row_stride must be >= dim");
    }
    input_.assign(vocab_size_ * stride_, 0.0f);
    output_.assign(vocab_size_ * stride_, 0.0f);

    // word2vec initialization: input uniform in (-0.5/dim, 0.5/dim),
    // output zero.
    rng::Random random(config.seed ^ 0x5bd1e995u);
    for (std::size_t w = 0; w < vocab_size_; ++w) {
        float* row = input_.data() + w * stride_;
        for (unsigned i = 0; i < dim_; ++i) {
            row[i] = (random.next_float() - 0.5f) /
                     static_cast<float>(dim_);
        }
    }
}

bool
SgnsModel::all_finite() const
{
    // Only the live dim_ columns matter; stride padding stays zero.
    for (const std::vector<float>* matrix : {&input_, &output_}) {
        for (std::size_t w = 0; w < vocab_size_; ++w) {
            const float* row = matrix->data() + w * stride_;
            for (unsigned i = 0; i < dim_; ++i) {
                if (!std::isfinite(row[i])) {
                    return false;
                }
            }
        }
    }
    return true;
}

Embedding
SgnsModel::to_embedding(graph::NodeId num_nodes) const
{
    TGL_ASSERT(vocab_size_ >= num_nodes);
    Embedding embedding(num_nodes, dim_);
    for (graph::NodeId node = 0; node < num_nodes; ++node) {
        auto out = embedding.row(node);
        const float* in = input_row(static_cast<WordId>(node));
        for (unsigned i = 0; i < dim_; ++i) {
            out[i] = in[i];
        }
    }
    return embedding;
}

Embedding
SgnsModel::to_embedding(const Vocab& vocab, graph::NodeId num_nodes) const
{
    Embedding embedding(num_nodes, dim_);
    for (WordId w = 0; w < vocab.size(); ++w) {
        const graph::NodeId node = vocab.node_of(w);
        TGL_ASSERT(node < num_nodes);
        auto out = embedding.row(node);
        const float* in = input_row(w);
        for (unsigned i = 0; i < dim_; ++i) {
            out[i] = in[i];
        }
    }
    return embedding;
}

RankBuffers::RankBuffers(unsigned ranks, std::size_t floats)
    : stride_((floats + kLineFloats - 1) / kLineFloats * kLineFloats),
      storage_(ranks * stride_ + kLineFloats, 0.0f)
{
    void* begin = storage_.data();
    std::size_t space = storage_.size() * sizeof(float);
    base_ = static_cast<float*>(std::align(
        kCacheLineBytes, ranks * stride_ * sizeof(float), begin, space));
    TGL_ASSERT(base_ != nullptr);
}

void
sgns_update_pair(SgnsModel& model, float* output, WordId context,
                 WordId center, const NegativeTable& negatives,
                 unsigned num_negatives, float alpha,
                 const kernels::SgnsBackendOps& ops, rng::Random& random,
                 float* scratch)
{
    const unsigned dim = model.dim();
    const std::size_t stride = model.stride();

    float* context_row = model.input_row(context);
    for (unsigned i = 0; i < dim; ++i) {
        scratch[i] = 0.0f;
    }

    // Positive target plus `num_negatives` sampled negatives, buffered
    // into chunks so the simd backend batches the sigmoid across them.
    // The negatives are drawn in the same RNG order as the reference
    // kernel, so the target sequence is backend-independent.
    float* rows[kernels::kSgnsTargetChunk];
    float labels[kernels::kSgnsTargetChunk];
    std::size_t count = 0;
    for (unsigned n = 0; n <= num_negatives; ++n) {
        WordId target;
        float label;
        if (n == 0) {
            target = center;
            label = 1.0f;
        } else {
            target = negatives.sample(random);
            if (target == center) {
                continue;
            }
            label = 0.0f;
        }
        rows[count] = output + target * stride;
        labels[count] = label;
        if (++count == kernels::kSgnsTargetChunk) {
            ops.update_targets(context_row, rows, labels, count, dim,
                               alpha, scratch);
            count = 0;
        }
    }
    if (count > 0) {
        ops.update_targets(context_row, rows, labels, count, dim, alpha,
                           scratch);
    }
    ops.axpy(1.0f, scratch, context_row, dim);
}

void
sgns_update_pair_shared(SgnsModel& model, float* output, WordId context,
                        WordId center,
                        std::span<const WordId> shared_negatives,
                        float alpha, const kernels::SgnsBackendOps& ops,
                        float* scratch)
{
    const unsigned dim = model.dim();
    const std::size_t stride = model.stride();

    float* context_row = model.input_row(context);
    for (unsigned i = 0; i < dim; ++i) {
        scratch[i] = 0.0f;
    }

    float* rows[kernels::kSgnsTargetChunk];
    float labels[kernels::kSgnsTargetChunk];
    std::size_t count = 0;
    const std::size_t targets = shared_negatives.size() + 1;
    for (std::size_t n = 0; n < targets; ++n) {
        WordId target;
        float label;
        if (n == 0) {
            target = center;
            label = 1.0f;
        } else {
            target = shared_negatives[n - 1];
            if (target == center) {
                continue;
            }
            label = 0.0f;
        }
        rows[count] = output + target * stride;
        labels[count] = label;
        if (++count == kernels::kSgnsTargetChunk) {
            ops.update_targets(context_row, rows, labels, count, dim,
                               alpha, scratch);
            count = 0;
        }
    }
    if (count > 0) {
        ops.update_targets(context_row, rows, labels, count, dim, alpha,
                           scratch);
    }
    ops.axpy(1.0f, scratch, context_row, dim);
}

} // namespace tgl::embed
