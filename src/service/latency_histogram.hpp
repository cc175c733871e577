#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

/// \file latency_histogram.hpp
/// A log-bucketed (HDR-style) latency histogram with an *exact*,
/// order-independent merge — the measurement primitive of the service
/// layer (service_harness.hpp, docs/ARCHITECTURE.md §"Service layer").
///
/// Buckets are fixed at construction: 16 sub-buckets per power-of-two
/// octave (values below 16 get one bucket each), covering the full
/// uint64 range in 976 buckets of ~6% relative width.  Recording is one
/// bucket increment plus count/sum/min/max updates; merge() is an
/// element-wise sum of two fixed arrays plus the same aggregate folds.
/// Every operation is integer arithmetic over a fixed layout, so merge
/// is exactly commutative and associative: however a sample stream is
/// split and in whatever order the pieces are merged back, the
/// resulting histogram is byte-identical to recording the stream
/// serially.  That identity — not approximate equality — is what lets
/// the service report's "all" row merge the per-kind histograms without
/// losing a sample (tests/latency_histogram_test.cpp pins it with a
/// randomized split/order property test).
///
/// quantile(q) returns the lower bound of the bucket containing the
/// rank-ceil(q*count) sample, so an estimate is always within one
/// bucket of the exact sorted-sample quantile (also pinned by test).

namespace lr {

/// The log-bucketed latency histogram; see the file comment.
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^4 linear sub-buckets per octave.
  static constexpr std::size_t kSubBits = 4;
  /// Values below this get one exact bucket each (the linear prefix).
  static constexpr std::uint64_t kLinearLimit = 1ull << kSubBits;
  /// Total bucket count covering all of uint64 (16 linear + 60 octaves).
  static constexpr std::size_t kBuckets = kLinearLimit + (64 - kSubBits) * kLinearLimit;

  /// The bucket index of `value` (total order, monotone in value).
  static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value < kLinearLimit) return static_cast<std::size_t>(value);
    const unsigned exponent = 63u - static_cast<unsigned>(std::countl_zero(value));
    const std::uint64_t sub = (value >> (exponent - kSubBits)) & (kLinearLimit - 1);
    return kLinearLimit + (exponent - kSubBits) * kLinearLimit + static_cast<std::size_t>(sub);
  }

  /// The smallest value mapping to bucket `index` (bucket_index's lower
  /// inverse): the value quantile() reports for a bucket.
  static constexpr std::uint64_t bucket_lower_bound(std::size_t index) noexcept {
    if (index < kLinearLimit) return index;
    const unsigned exponent =
        static_cast<unsigned>(kSubBits + (index - kLinearLimit) / kLinearLimit);
    const std::uint64_t sub = (index - kLinearLimit) % kLinearLimit;
    return (kLinearLimit + sub) << (exponent - kSubBits);
  }

  /// Records one sample.
  void record(std::uint64_t value) noexcept;

  /// Folds `other` into this histogram.  Exactly commutative and
  /// associative (element-wise integer sums), hence order- and
  /// split-independent; see the file comment.
  void merge(const LatencyHistogram& other) noexcept;

  /// Recorded sample count.
  std::uint64_t count() const noexcept { return count_; }
  /// Sum of all recorded samples.
  std::uint64_t sum() const noexcept { return sum_; }
  /// Smallest recorded sample (0 when empty).
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  /// Largest recorded sample (0 when empty).
  std::uint64_t max() const noexcept { return max_; }
  /// Mean of the recorded samples (0.0 when empty).
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// The value at quantile `q` in [0, 1]: the lower bound of the bucket
  /// holding the sample of rank ceil(q * count) (rank clamped to
  /// [1, count]).  Returns 0 when empty.  Within one bucket of the exact
  /// sorted-sample quantile by construction.
  std::uint64_t quantile(double q) const noexcept;

  /// FNV-1a over the bucket array and aggregates: the identity the
  /// determinism checks compare.  Equal histograms hash equal; the
  /// service layer treats a fingerprint match across runs as
  /// "byte-identical report".
  std::uint64_t fingerprint() const noexcept;

  /// Exact structural equality (buckets and aggregates).
  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace lr
