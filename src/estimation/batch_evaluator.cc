#include "estimation/batch_evaluator.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cqp::estimation {
namespace internal {

#if defined(CQP_HAVE_AVX2_KERNELS)
KernelChoice GetAvx2Kernel();  // batch_kernels_avx2.cc (own -mavx2 TU)
#endif

namespace {

#if defined(__SSE2__)
/// Two-lane SSE2 instantiation. SSE2 has no 64-bit integer compare, so
/// equality is emulated by comparing 32-bit halves and ANDing each half
/// with its swapped neighbour — all-ones only when both halves matched.
struct Sse2Traits {
  static constexpr size_t kWidth = 2;
  using D = __m128d;
  using I = __m128i;
  using M = __m128d;

  static __m128i Eq64(__m128i a, __m128i b) {
    const __m128i e32 = _mm_cmpeq_epi32(a, b);
    return _mm_and_si128(e32, _mm_shuffle_epi32(e32, _MM_SHUFFLE(2, 3, 0, 1)));
  }

  static D Broadcast(double v) { return _mm_set1_pd(v); }
  static I BroadcastI(int64_t v) { return _mm_set1_epi64x(v); }
  static I LoadMasks(const uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static M TestBit(I bits, size_t j) {
    const __m128i bit =
        _mm_set1_epi64x(static_cast<int64_t>(uint64_t{1} << j));
    return _mm_castsi128_pd(Eq64(_mm_and_si128(bits, bit), bit));
  }
  static M CountIsZero(I count) {
    return _mm_castsi128_pd(Eq64(count, _mm_setzero_si128()));
  }
  static D Select(M m, D t, D f) {
    return _mm_or_pd(_mm_and_pd(m, t), _mm_andnot_pd(m, f));
  }
  static D ZeroWhere(M m, D v) { return _mm_andnot_pd(m, v); }
  static D Add(D x, D y) { return _mm_add_pd(x, y); }
  static D Sub(D x, D y) { return _mm_sub_pd(x, y); }
  static D Mul(D x, D y) { return _mm_mul_pd(x, y); }
  static D Min(D x, D y) { return _mm_min_pd(x, y); }
  static I MaskSubI(I count, M m) {
    return _mm_sub_epi64(count, _mm_castpd_si128(m));
  }
  static void Store(double* p, D v) { _mm_storeu_pd(p, v); }
  static void StoreCount(uint32_t* p, I count) {
    alignas(16) uint64_t tmp[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), count);
    p[0] = static_cast<uint32_t>(tmp[0]);
    p[1] = static_cast<uint32_t>(tmp[1]);
  }
};
#endif  // __SSE2__

bool ForceScalar() {
  const char* v = std::getenv("CQP_FORCE_SCALAR_EVAL");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Resolved once per BatchEvaluator construction (not per process) so
/// tests can flip CQP_FORCE_SCALAR_EVAL between evaluators.
KernelChoice PickKernel() {
  if (ForceScalar()) {
    return {&EvalSequenceImpl<ScalarTraits>, ScalarTraits::kWidth,
            "scalar-forced"};
  }
#if defined(CQP_HAVE_AVX2_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2")) {
    return GetAvx2Kernel();
  }
#endif
#if defined(__SSE2__)
  return {&EvalSequenceImpl<Sse2Traits>, Sse2Traits::kWidth, "sse2"};
#else
  return {&EvalSequenceImpl<ScalarTraits>, ScalarTraits::kWidth, "scalar"};
#endif
}

}  // namespace
}  // namespace internal

BatchEvaluator::BatchEvaluator(const QueryBaseEstimate& base,
                               const std::vector<ScoredPreference>& prefs,
                               prefs::ConjunctionModel model)
    : base_(base),
      prefs_(&prefs),
      model_(model),
      kernel_(internal::PickKernel()) {
  const size_t k = prefs.size();
  cost_ms_.reserve(k);
  selectivity_.reserve(k);
  doi_.reserve(k);
  one_minus_doi_.reserve(k);
  identity_seq_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const ScoredPreference& p = prefs[i];
    CQP_CHECK(prefs::IsValidDoi(p.doi));
    CQP_CHECK_GE(p.cost_ms, base_.cost_ms);
    CQP_CHECK_GE(p.selectivity, 0.0);
    CQP_CHECK_LE(p.selectivity, 1.0);
    cost_ms_.push_back(p.cost_ms);
    selectivity_.push_back(p.selectivity);
    doi_.push_back(p.doi);
    one_minus_doi_.push_back(1.0 - p.doi);
    identity_seq_.push_back(static_cast<int32_t>(i));
  }
}

StateParams BatchEvaluator::EmptyState() const {
  StateParams s;
  s.doi = 0.0;
  s.cost_ms = base_.cost_ms;
  s.size = base_.size;
  s.count = 0;
  return s;
}

StateParams BatchEvaluator::ExtendWith(const StateParams& parent,
                                       int32_t i) const {
  const size_t p = static_cast<size_t>(i);
  CQP_CHECK_LT(p, cost_ms_.size());
  StateParams s;
  // Same expressions as StateEvaluator::ExtendWith, for exact parity.
  s.cost_ms = (parent.count == 0 ? 0.0 : parent.cost_ms) + cost_ms_[p];
  s.size = parent.size * selectivity_[p];
  switch (model_) {
    case prefs::ConjunctionModel::kNoisyOr:
      s.doi = 1.0 - (1.0 - parent.doi) * one_minus_doi_[p];
      break;
    case prefs::ConjunctionModel::kSumCapped:
      s.doi = std::min(1.0, parent.doi + doi_[p]);
      break;
  }
  s.count = parent.count + 1;
  return s;
}

void BatchEvaluator::RunKernel(internal::KernelArgs args, size_t n,
                               Results* out) const {
  const size_t width = kernel_.width;
  const size_t padded = PaddedLanes(n);
  out->n = n;
  out->doi.resize(padded);
  out->cost_ms.resize(padded);
  out->size.resize(padded);
  out->count.resize(padded);
  args.cost_ms = cost_ms_.data();
  args.selectivity = selectivity_.data();
  args.doi = doi_.data();
  args.one_minus_doi = one_minus_doi_.data();
  args.sum_capped = model_ == prefs::ConjunctionModel::kSumCapped;
  args.out_doi = out->doi.data();
  args.out_cost_ms = out->cost_ms.data();
  args.out_size = out->size.data();
  args.out_count = out->count.data();
  const size_t full = n / width * width;
  if (full > 0) {
    internal::KernelArgs head = args;
    head.n_lanes = full;
    kernel_.fn(head);
  }
  if (full < n) {
    // The caller's mask array need not be padded: run the last partial
    // pack from a zero-padded stack copy (outputs are padded already).
    uint64_t tail_masks[8] = {0};
    CQP_CHECK_LE(width, sizeof(tail_masks) / sizeof(tail_masks[0]));
    for (size_t i = full; i < n; ++i) {
      tail_masks[i - full] = args.lane_masks[i];
    }
    internal::KernelArgs tail = args;
    tail.lane_masks = tail_masks;
    tail.n_lanes = width;
    tail.out_doi += full;
    tail.out_cost_ms += full;
    tail.out_size += full;
    tail.out_count += full;
    kernel_.fn(tail);
  }
}

void BatchEvaluator::EvaluateMasks(const uint64_t* member_bits, size_t n,
                                   Results* out) const {
  CQP_CHECK_LT(K(), size_t{64});
  const StateParams empty = EmptyState();
  internal::KernelArgs args;
  args.seq = identity_seq_.data();
  args.seq_len = identity_seq_.size();
  args.lane_masks = member_bits;
  args.parent_doi = empty.doi;
  args.parent_cost_ms = empty.cost_ms;
  args.parent_size = empty.size;
  args.parent_count = 0;
  RunKernel(args, n, out);
}

void BatchEvaluator::EvaluateSequence(const StateParams& parent,
                                      const int32_t* seq, size_t seq_len,
                                      const uint64_t* lane_masks, size_t n,
                                      Results* out) const {
  CQP_CHECK_LE(seq_len, size_t{64});
  internal::KernelArgs args;
  args.seq = seq;
  args.seq_len = seq_len;
  args.lane_masks = lane_masks;
  args.parent_doi = parent.doi;
  args.parent_cost_ms = parent.cost_ms;
  args.parent_size = parent.size;
  args.parent_count = parent.count;
  RunKernel(args, n, out);
}

void BatchEvaluator::ExtendBatch(const StateParams& parent,
                                 const int32_t* pref_idx, size_t n,
                                 Results* out) const {
  // One preference per lane needs a gather, not a shared sequence; the
  // scalar ExtendWith expressions are already O(1) per lane and the SoA
  // arrays keep them cache-friendly, so this path stays scalar.
  const size_t padded = PaddedLanes(n);
  out->n = n;
  out->doi.resize(padded);
  out->cost_ms.resize(padded);
  out->size.resize(padded);
  out->count.resize(padded);
  for (size_t l = 0; l < n; ++l) {
    const StateParams s = ExtendWith(parent, pref_idx[l]);
    out->doi[l] = s.doi;
    out->cost_ms[l] = s.cost_ms;
    out->size[l] = s.size;
    out->count[l] = s.count;
  }
}

}  // namespace cqp::estimation
