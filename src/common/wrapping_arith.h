#ifndef FABRIC_COMMON_WRAPPING_ARITH_H_
#define FABRIC_COMMON_WRAPPING_ARITH_H_

// Defined INTEGER arithmetic for both SQL evaluators (the row-at-a-time
// interpreter and the compiled pipeline), which must agree bit for bit:
// -x, + - * and ABS wrap modulo 2^64 (two's complement, computed through
// uint64_t, so -INT64_MIN == INT64_MIN), and x % -1 is 0 (the one
// quotient that overflows). Division by zero stays the caller's error.

#include <cstdint>

namespace fabric {

inline int64_t WrapNeg(int64_t x) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(x));
}

inline int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}

inline int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}

inline int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}

inline int64_t WrapAbs(int64_t x) { return x < 0 ? WrapNeg(x) : x; }

// `y` must be non-zero.
inline int64_t WrapMod(int64_t x, int64_t y) { return y == -1 ? 0 : x % y; }

}  // namespace fabric

#endif  // FABRIC_COMMON_WRAPPING_ARITH_H_
