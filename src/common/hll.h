#ifndef FABRIC_COMMON_HLL_H_
#define FABRIC_COMMON_HLL_H_

// Mergeable HyperLogLog sketches (Flajolet et al. 2007) for approximate
// distinct counting, modeled on the Criteo vertica-hyperloglog UDx design:
// parameterized precision, dense register array, versioned serialization.
//
// A sketch with precision p holds m = 2^p one-byte registers. Adding a
// 64-bit hash uses the top p bits as the register index and stores the
// maximum rank (leading-zero count + 1) of the remaining bits. Merge is
// the element-wise register maximum, which makes it commutative,
// associative and idempotent — partial sketches can be combined in any
// order, any number of times (shuffle retries, failover re-execution)
// and still yield byte-identical registers, hence identical estimates.
//
// The standard error of the estimate is 1.04 / sqrt(m): ~3.2% at p=10,
// ~1.6% at p=12, ~0.8% at p=14.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace fabric::hll {

inline constexpr int kMinPrecision = 4;
inline constexpr int kMaxPrecision = 18;
inline constexpr int kDefaultPrecision = 12;

inline constexpr bool ValidPrecision(int precision) {
  return precision >= kMinPrecision && precision <= kMaxPrecision;
}

// 1.04 / sqrt(2^p), the theoretical relative standard error.
double StandardError(int precision);

// Serialized sketches carry a version header; loading bytes whose version
// this build does not understand fails with FailedPrecondition and this
// marker in the message, never a garbage estimate.
inline constexpr char kVersionErrorMarker[] = "HLL_VERSION_UNSUPPORTED";

class Sketch {
 public:
  // Default-constructed sketches are invalid placeholders (precision 0);
  // use Create or Deserialize.
  Sketch() = default;

  static Result<Sketch> Create(int precision);

  bool valid() const { return precision_ != 0; }
  int precision() const { return precision_; }
  size_t num_registers() const { return registers_.size(); }

  // Folds one hashed element into the sketch. Callers hash values with a
  // fixed seed shared across all layers so sketches built on different
  // engines merge coherently.
  void AddHash(uint64_t hash);

  // The (register index, rank) a hash lands in at the given precision.
  // Exposed so aggregate executors can update a raw register buffer in
  // place without materializing a Sketch per row; AddHash uses the same
  // computation, which is what keeps all paths register-identical.
  static std::pair<size_t, int> SlotFor(uint64_t hash, int precision);

  // Element-wise register max. Fails on precision mismatch (register
  // arrays of different precisions are not alignable).
  Status Merge(const Sketch& other);

  // Bias-corrected cardinality estimate with the linear-counting
  // small-range correction. Deterministic in the register contents.
  int64_t Estimate() const;

  // Versioned, printable serialization (format v1): "HLL1:<pp>:<hex>"
  // where <pp> is the two-digit precision and <hex> holds two lowercase
  // hex digits per register. Printable bytes survive SQL literals, CSV
  // staging and display-string round-trips unmangled, and re-serializing
  // a deserialized sketch is byte-identical.
  std::string Serialize() const;
  static Result<Sketch> Deserialize(std::string_view bytes);

  // Compact in-memory form for aggregate accumulator states: one
  // precision byte followed by the m raw register bytes. Unlike
  // Serialize(), this form is unversioned and never leaves the process.
  std::string ToRawState() const;
  static Result<Sketch> FromRawState(std::string_view raw);

  friend bool operator==(const Sketch& a, const Sketch& b) {
    return a.precision_ == b.precision_ && a.registers_ == b.registers_;
  }

 private:
  int precision_ = 0;
  std::vector<uint8_t> registers_;
};

// Aggregate accumulators keep sketches in the raw form (precision byte +
// registers) so a per-row update touches one register instead of
// re-encoding the sketch. AddHashToRawState folds a hash into a
// non-empty raw state in place; MergeRawStates takes the register-wise
// max, treating an empty state as "no sketch yet" and failing on a
// precision mismatch.
Status AddHashToRawState(uint64_t hash, std::string* state);
Status MergeRawStates(const std::string& other, std::string* state);

}  // namespace fabric::hll

#endif  // FABRIC_COMMON_HLL_H_
