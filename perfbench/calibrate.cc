// Host-speed probe of the end-to-end benchmark (perfbench/run.py runs it).
//
//   calibrate
//       run a fixed hash-join-and-sort kernel over ~20 MB and print its
//       checksum, which is the same on every run
//
// On a shared host the speed of a core drifts by tens of percent over
// minutes, and every tdx_cli command drifts with it. run.py runs this
// kernel between the commands it times and reports each command's median
// wall time over the kernel's median: the drift cancels in that ratio.
// The kernel mixes the same kinds of work the chase does (hash inserts and
// probes, allocation, sorting) and links nothing of tdx, so a change to the
// program cannot change it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <unordered_map>
#include <vector>

int main() {
  constexpr std::size_t kKeys = 400000;
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> keys(kKeys);
  for (std::uint64_t& key : keys) key = rng() % (kKeys * 4);

  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::size_t i = 0; i < kKeys; ++i) {
    table[keys[i]] += static_cast<std::uint32_t>(i);
  }
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto it = table.find(keys[(i * 7919) % kKeys]);
    if (it != table.end()) checksum += it->second;
  }
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  checksum += sorted[kKeys / 2];
  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
