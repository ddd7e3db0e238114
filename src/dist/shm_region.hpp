// The cross-process register file (DESIGN.md §12.2).  One POSIX shared
// memory segment holds every node's single-writer register as a seqlock
// cell with the exact layout the threaded backend uses
// (runtime/threaded_executor.hpp):
//
//   cell v = [ version | payload word 0 .. payload word W-1 ]
//
// even version = stable, odd = publish in flight.  Writers (each node
// process, for its own cell only) bump to odd, store the payload, bump
// to even; readers retry on odd/changed versions under a bounded
// attempt budget and degrade to ⊥.  Because the segment is plain shared
// memory, a node SIGKILLed mid-publish physically leaves the odd
// version and half-written payload behind — the torn state the HB
// certifier exists to flag is real here, not simulated.
//
// The segment name is /ftcc-dist-<pid>-<seq> (visible as a /dev/shm
// entry); it is registered with the janitor for unlink-on-signal and
// released by the destructor on every normal path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "graph/graph.hpp"

namespace ftcc::dist {

class ShmRegion {
 public:
  /// Create and map a fresh segment of `n` cells of `1 + payload_words`
  /// 64-bit words each, zero-filled.  Throws nothing; `ok()` reports
  /// whether creation succeeded (it fails only on shm_open/mmap errors,
  /// e.g. an exhausted /dev/shm).
  ShmRegion(NodeId n, std::size_t payload_words);
  ~ShmRegion();

  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;

  [[nodiscard]] bool ok() const { return base_ != nullptr; }
  /// The /dev/shm-relative name ("/ftcc-dist-<pid>-<seq>").
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Full filesystem path of the backing file ("/dev/shm/ftcc-dist-...").
  [[nodiscard]] const std::string& fs_path() const { return fs_path_; }

  /// Atomic view of word `i` of node `v`'s cell (word 0 = version).
  /// Valid in every process that maps the segment.
  [[nodiscard]] std::atomic_ref<std::uint64_t> word(NodeId v, std::size_t i) {
    return std::atomic_ref<std::uint64_t>(
        base_[static_cast<std::size_t>(v) * cell_words_ + i]);
  }

 private:
  std::string name_;
  std::string fs_path_;
  std::size_t cell_words_ = 0;
  std::size_t total_bytes_ = 0;
  std::uint64_t* base_ = nullptr;

  static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free,
                "cross-process seqlock needs lock-free 64-bit atomics");
};

}  // namespace ftcc::dist
