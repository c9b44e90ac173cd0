#ifndef FABRICBENCH_CALIBRATE_H_
#define FABRICBENCH_CALIBRATE_H_

// A fixed probe of how fast the host runs right now, independent of the
// fabric's code. The machine's speed drifts by tens of percent over
// seconds (neighbours on shared cores and caches), and the fabric's host
// time follows it: on the development machine a round's host time and
// the probe time taken around it correlate at about 0.7-0.95. Host times
// are therefore reported at a reference speed: each round's host times
// are scaled by kReferenceMs / (the probe time around that round).
//
// The probe exercises what the simulator spends its host time on:
// condition-variable hand-offs between two threads (one sim process
// switch each), random reads and writes over a few MB, and std::map
// inserts.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace fabricbench {

// The probe's time on the development machine (4 vCPUs, one pinned
// thread pair); scaled host times read as host times on that machine.
inline constexpr double kReferenceMs = 66.0;

inline double CalibrationProbeMs() {
  auto start = std::chrono::steady_clock::now();

  std::vector<uint64_t> buffer(uint64_t{1} << 19);
  uint64_t x = 1;
  for (int pass = 0; pass < 8; ++pass) {
    for (size_t i = 0; i < buffer.size(); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      buffer[(x >> 20) & (buffer.size() - 1)] += x;
    }
  }
  std::map<int, int> tree;
  for (int i = 0; i < 60000; ++i) tree[(i * 7919) % 100003] += i;

  constexpr int kHandOffs = 8000;
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  std::thread peer([&] {
    for (int i = 0; i < kHandOffs; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_all();
    }
  });
  for (int i = 0; i < kHandOffs; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    turn = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return turn == 0; });
  }
  peer.join();

  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  // Keeps the memory walk observable so it is not optimized away.
  return ms + static_cast<double>((x ^ buffer[x & 7] ^ tree.size()) & 1) *
                  1e-12;
}

}  // namespace fabricbench

#endif  // FABRICBENCH_CALIBRATE_H_
