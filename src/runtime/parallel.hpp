// Cross-worker progress aggregation for the fuzz campaigns (DESIGN.md
// §10).  It lives under src/runtime/ because that is where the
// concurrency-confinement lint allows atomics and mutexes; the campaigns
// consume it through a phase-disciplined API that keeps results
// independent of worker count.
//
//   TrialTally — workers bump relaxed atomic tallies per finished trial;
//       the reporting callback fires under a mutex every `every`-th
//       completion with a monotone `done` filter, so a --jobs=8 campaign
//       still prints one coherent, non-regressing progress line.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include <atomic>
#include <mutex>

namespace ftcc {

/// Progress snapshot handed to the tally's callback; field-compatible with
/// the fuzz campaigns' CampaignProgress (runtime cannot depend on fuzz).
struct TallyProgress {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t ok = 0;
  std::uint64_t censored = 0;
  std::uint64_t failures = 0;
};

class TrialTally {
 public:
  TrialTally(std::uint64_t total, std::uint64_t every,
             std::function<void(const TallyProgress&)> callback)
      : total_(total),
        every_(every == 0 ? 1 : every),
        callback_(std::move(callback)) {}

  enum class Outcome : std::uint8_t { ok, censored, failed };

  /// Record one finished trial; fires the callback on every `every`-th
  /// completion and on the last one, exactly like the sequential loop did.
  void record(Outcome outcome) {
    switch (outcome) {
      case Outcome::ok: ok_.fetch_add(1, std::memory_order_relaxed); break;
      case Outcome::censored:
        censored_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::failed:
        failures_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!callback_) return;
    if (done % every_ != 0 && done != total_) return;
    const std::scoped_lock lock(report_mutex_);
    if (done <= last_reported_) return;  // a later snapshot already printed
    last_reported_ = done;
    callback_({done, total_, ok_.load(std::memory_order_relaxed),
               censored_.load(std::memory_order_relaxed),
               failures_.load(std::memory_order_relaxed)});
  }

 private:
  std::uint64_t total_;
  std::uint64_t every_;
  std::function<void(const TallyProgress&)> callback_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> censored_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::mutex report_mutex_;
  std::uint64_t last_reported_ = 0;
};

}  // namespace ftcc
