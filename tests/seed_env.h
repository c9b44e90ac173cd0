#ifndef FABRIC_TESTS_SEED_ENV_H_
#define FABRIC_TESTS_SEED_ENV_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

namespace fabric::testing {

// Seeds for the randomized property suites. Every suite starts from the
// same fixed trio so plain local runs are deterministic and fast;
// FABRIC_SEED (unset or empty: none) appends one more seed to every
// suite at once.
inline std::vector<uint64_t> PropertySeeds() {
  std::vector<uint64_t> seeds = {11, 23, 47};
  const char* env = std::getenv("FABRIC_SEED");
  if (env != nullptr && *env != '\0') {
    seeds.push_back(static_cast<uint64_t>(std::strtoull(env, nullptr, 10)));
  }
  return seeds;
}

}  // namespace fabric::testing

#endif  // FABRIC_TESTS_SEED_ENV_H_
