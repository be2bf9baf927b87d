/// @file
/// SGNS kernel backends: one interface over the inner loops of the
/// SGNS round loop (embed/trainer.hpp).
///
/// The paper attributes most of the GPU word2vec speedup to coalesced
/// vector access, parallel reduction, and batched sigmoid evaluation
/// (SV-B). On the CPU those map onto SIMD dot/axpy kernels plus a
/// vectorized sigmoid-LUT gather; this header names that contract so
/// the trainer has exactly one implementation of the hot loop and a
/// future GPU/ISPC backend can slot in without touching it.
///
/// Three implementations exist today:
///
///   - "scalar"          — the reference `detail::dot/axpy` loops in
///                         sgns_model.cpp, compiled under the default
///                         target ISA (byte-identical to the historic
///                         trainers).
///   - "scalar-modeled"  — the same loops with compiler barriers,
///                         modeling one-thread-per-element uncoalesced
///                         access (SgnsConfig::vectorized = false, the
///                         paper-faithful un-optimized GPU baseline).
///   - "simd"            — fused chunked kernels in kernels.cpp built
///                         on util/simd.hpp's f32 half; its ISA string
///                         reports which vector backend the PR-7
///                         -DTGL_SIMD=auto|avx2|scalar dispatch chose.
///
/// Backends agree *in law, not bytes*: the simd dot reassociates the
/// reduction into vector partial sums, so trained embeddings match in
/// link-prediction accuracy (the `ctest -L equivalence` battery) but
/// not bitwise, and checkpoint fingerprints include the resolved
/// backend name + ISA.
///
/// This header is intrinsics-free on purpose: the AVX2 instructions
/// live only inside kernels.cpp (the PR-7 one-ISA-flagged-TU pattern),
/// so including this header never leaks vector code into generic TUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tgl::embed::kernels {

/// CLI-selectable backend. kAuto resolves to the simd kernels whenever
/// the build carries real vector lanes and to the scalar reference
/// loops on the scalar-fallback build (where 8-lane emulation would
/// only add overhead).
enum class SgnsBackend : std::uint8_t
{
    kAuto = 0,
    kScalar,
    kSimd,
};

/// Parse a --sgns-backend value ("auto", "scalar", "simd").
std::optional<SgnsBackend> parse_sgns_backend(std::string_view name);

/// Flag spelling of a backend value.
const char* sgns_backend_name(SgnsBackend backend);

/// Upper bound on targets handed to one update_targets call. The
/// trainers buffer the positive target plus the sampled negatives into
/// chunks of this many rows so the simd backend can batch the sigmoid
/// evaluation across them (8 = one full AVX2 f32 vector).
inline constexpr std::size_t kSgnsTargetChunk = 8;

/// One SGNS kernel backend. All functions operate on packed rows of
/// `dim` floats; none of them allocate or lock.
struct SgnsBackendOps
{
    /// Stable identity ("scalar", "scalar-modeled", "simd") — mixed
    /// into checkpoint fingerprints.
    const char* name;
    /// Vector ISA the backend was compiled for ("generic" for the
    /// scalar loops, util::simd::kIsaName for the simd kernels).
    const char* isa;
    /// sum(a[i] * b[i]).
    float (*dot)(const float* a, const float* b, unsigned dim);
    /// y[i] += g * x[i].
    void (*axpy)(float g, const float* x, float* y, unsigned dim);
    /// out[i] = sigma(x[i]) with the SigmoidTable saturation law
    /// (x >= 6 -> 1, x <= -6 -> 0, NaN -> 1).
    void (*sigmoid_batch)(const float* x, float* out, std::size_t n);
    /// Fused SGNS step over up to kSgnsTargetChunk targets: per target
    /// t, score = dot(context_row, target_rows[t]); gradient =
    /// (labels[t] - sigma(score)) * alpha; scratch += gradient *
    /// target_rows[t]; target_rows[t] += gradient * context_row. The
    /// context-row update itself stays deferred in scratch (word2vec
    /// reference semantics) — the caller applies it after the last
    /// chunk.
    void (*update_targets)(float* context_row, float* const* target_rows,
                           const float* labels, std::size_t count,
                           unsigned dim, float alpha, float* scratch);
};

/// The vectorized kernels (kernels.cpp, the ISA-flagged TU). On a
/// scalar build these run util/simd.hpp's emulated 8-lane f32 structs.
const SgnsBackendOps& simd_sgns_ops();

/// Vector ISA the simd kernels were compiled for, without pulling
/// util/simd.hpp into the caller's TU.
const char* simd_sgns_isa();

/// The reference loops (sgns_model.cpp, default target ISA).
const SgnsBackendOps& scalar_sgns_ops();

/// The barriered uncoalesced-access model (SgnsConfig::vectorized =
/// false).
const SgnsBackendOps& modeled_scalar_sgns_ops();

} // namespace tgl::embed::kernels
