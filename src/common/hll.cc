#include "common/hll.h"

#include <bit>
#include <cmath>

#include "common/string_util.h"

namespace fabric::hll {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

// Alpha constant of the raw HLL estimator (Flajolet et al., Figure 3).
double AlphaFor(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

double StandardError(int precision) {
  return 1.04 / std::sqrt(static_cast<double>(uint64_t{1} << precision));
}

Result<Sketch> Sketch::Create(int precision) {
  if (!ValidPrecision(precision)) {
    return InvalidArgumentError(
        StrCat("HLL precision must be in [", kMinPrecision, ", ",
               kMaxPrecision, "], got ", precision));
  }
  Sketch sketch;
  sketch.precision_ = precision;
  sketch.registers_.assign(size_t{1} << precision, 0);
  return sketch;
}

std::pair<size_t, int> Sketch::SlotFor(uint64_t hash, int precision) {
  // Top p bits index the register; the rank is the position of the first
  // set bit in the remaining 64-p bits (1-based, so an all-zero suffix
  // ranks 64-p+1). Ranks never exceed 61 at p>=4, so uint8_t holds.
  const size_t index = hash >> (64 - precision);
  const uint64_t suffix = hash << precision;
  const int rank =
      suffix == 0 ? 64 - precision + 1 : std::countl_zero(suffix) + 1;
  return {index, rank};
}

void Sketch::AddHash(uint64_t hash) {
  const auto [index, rank] = SlotFor(hash, precision_);
  if (static_cast<uint8_t>(rank) > registers_[index]) {
    registers_[index] = static_cast<uint8_t>(rank);
  }
}

Status Sketch::Merge(const Sketch& other) {
  if (!valid() || !other.valid()) {
    return FailedPreconditionError("cannot merge an invalid HLL sketch");
  }
  if (precision_ != other.precision_) {
    return InvalidArgumentError(
        StrCat("cannot merge HLL sketches of different precisions (",
               precision_, " vs ", other.precision_, ")"));
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
  return Status::OK();
}

int64_t Sketch::Estimate() const {
  if (!valid()) return 0;
  const double m = static_cast<double>(registers_.size());
  double inverse_sum = 0;
  size_t zeros = 0;
  for (uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double estimate = AlphaFor(registers_.size()) * m * m / inverse_sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Linear counting: below ~2.5m the raw estimator is biased and the
    // occupancy-based estimate is far more accurate.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  // With 64-bit hashes no large-range correction is needed. The register
  // contents fully determine the estimate, so any merge order that
  // produces the same registers produces the same integer.
  return std::llround(estimate);
}

std::string Sketch::Serialize() const {
  std::string out;
  out.reserve(8 + 2 * registers_.size());
  out += "HLL1:";
  out.push_back(kHexDigits[(precision_ >> 4) & 0xf]);
  out.push_back(kHexDigits[precision_ & 0xf]);
  out.push_back(':');
  for (uint8_t reg : registers_) {
    out.push_back(kHexDigits[(reg >> 4) & 0xf]);
    out.push_back(kHexDigits[reg & 0xf]);
  }
  return out;
}

namespace {

Result<int> HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return InvalidArgumentError(
      StrCat("invalid hex digit in HLL sketch: '", std::string(1, c), "'"));
}

}  // namespace

Result<Sketch> Sketch::Deserialize(std::string_view bytes) {
  if (bytes.size() < 8 || bytes.substr(0, 3) != "HLL") {
    return InvalidArgumentError(
        "not an HLL sketch (missing 'HLL' magic header)");
  }
  if (bytes[3] != '1' || bytes[4] != ':') {
    return FailedPreconditionError(
        StrCat(kVersionErrorMarker, ": sketch version '",
               std::string(1, bytes[3]),
               "' is not understood by this build (expected 1)"));
  }
  FABRIC_ASSIGN_OR_RETURN(int hi, HexNibble(bytes[5]));
  FABRIC_ASSIGN_OR_RETURN(int lo, HexNibble(bytes[6]));
  const int precision = (hi << 4) | lo;
  if (!ValidPrecision(precision)) {
    return InvalidArgumentError(
        StrCat("HLL sketch header carries invalid precision ", precision));
  }
  if (bytes[7] != ':') {
    return InvalidArgumentError("malformed HLL sketch header");
  }
  const std::string_view payload = bytes.substr(8);
  const size_t m = size_t{1} << precision;
  if (payload.size() != 2 * m) {
    return InvalidArgumentError(
        StrCat("HLL sketch payload holds ", payload.size() / 2,
               " registers, expected ", m));
  }
  FABRIC_ASSIGN_OR_RETURN(Sketch sketch, Create(precision));
  const int max_rank = 64 - precision + 1;
  for (size_t i = 0; i < m; ++i) {
    FABRIC_ASSIGN_OR_RETURN(int rh, HexNibble(payload[2 * i]));
    FABRIC_ASSIGN_OR_RETURN(int rl, HexNibble(payload[2 * i + 1]));
    const int rank = (rh << 4) | rl;
    if (rank > max_rank) {
      return InvalidArgumentError(
          StrCat("HLL register ", i, " holds rank ", rank,
                 ", beyond the maximum ", max_rank, " for precision ",
                 precision));
    }
    sketch.registers_[i] = static_cast<uint8_t>(rank);
  }
  return sketch;
}

std::string Sketch::ToRawState() const {
  std::string raw;
  raw.reserve(1 + registers_.size());
  raw.push_back(static_cast<char>(precision_));
  raw.append(reinterpret_cast<const char*>(registers_.data()),
             registers_.size());
  return raw;
}

Result<Sketch> Sketch::FromRawState(std::string_view raw) {
  if (raw.empty()) {
    return InvalidArgumentError("empty HLL raw state");
  }
  const int precision = static_cast<uint8_t>(raw[0]);
  if (!ValidPrecision(precision) ||
      raw.size() != 1 + (size_t{1} << precision)) {
    return InvalidArgumentError("malformed HLL raw state");
  }
  FABRIC_ASSIGN_OR_RETURN(Sketch sketch, Create(precision));
  for (size_t i = 0; i < sketch.registers_.size(); ++i) {
    sketch.registers_[i] = static_cast<uint8_t>(raw[1 + i]);
  }
  return sketch;
}

Status AddHashToRawState(uint64_t hash, std::string* state) {
  const int precision = static_cast<uint8_t>((*state)[0]);
  const auto [index, rank] = Sketch::SlotFor(hash, precision);
  char* reg = &(*state)[1 + index];
  if (rank > static_cast<uint8_t>(*reg)) *reg = static_cast<char>(rank);
  return Status::OK();
}

Status MergeRawStates(const std::string& other, std::string* state) {
  if (other.empty()) return Status::OK();
  if (state->empty()) {
    *state = other;
    return Status::OK();
  }
  if (other.size() != state->size() || other[0] != (*state)[0]) {
    return InvalidArgumentError(
        StrCat("cannot merge HLL sketches of different precisions (",
               static_cast<int>(static_cast<uint8_t>((*state)[0])), " vs ",
               static_cast<int>(static_cast<uint8_t>(other[0])), ")"));
  }
  for (size_t i = 1; i < state->size(); ++i) {
    if (static_cast<uint8_t>(other[i]) >
        static_cast<uint8_t>((*state)[i])) {
      (*state)[i] = other[i];
    }
  }
  return Status::OK();
}

}  // namespace fabric::hll
