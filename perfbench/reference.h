// A fixed reference kernel timed next to each timed piece of work: each
// measured generation, each piece of a set-up, each recovery.
//
// On a shared host the speed of the benchmark's cores drifts by 1.5x and
// more over minutes (other tenants' cache and memory traffic, not time
// stolen from the process: CPU time drifts with wall time). Timing the same
// fixed work just before and after a piece of work measures the host's
// speed at that moment; the piece's time divided by the reference's time is
// then close to independent of it. The kernel uses no stack code, so no
// change to the stack moves it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  // Builds the kernel's inputs (a 16 MiB random cycle, label keys) and
  // every buffer it works in, once.
  ReferenceKernel();
  // Runs the fixed work once, without allocating; returns its wall time in
  // seconds.
  double run();
  // Depends on every run's results, so the work cannot be optimised away.
  uint64_t checksum() const { return checksum_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t key = 0;
  };
  std::vector<uint32_t> next_;  // one random cycle over all slots
  std::vector<std::string> keys_;
  std::vector<Slot> table_;
  std::vector<const std::string*> sorted_;
  uint64_t checksum_ = 0;
};

}  // namespace perfbench
