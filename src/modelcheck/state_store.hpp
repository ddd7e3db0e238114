// Tree-interned compressed state storage for the model checker's visited
// set (ROADMAP item 1; the ltsmin "treedbs" idea rebuilt from first
// principles).  A configuration key — the vector<uint64_t> produced by the
// explorer — is folded into a balanced binary tree whose leaves are
// interned 64-bit words and whose internal nodes are interned (id, id)
// pairs.  Two configurations that differ in one node's block share every
// subtree off the leaf-to-root path, so the marginal cost of a new state
// is a handful of pair-table entries instead of a full key copy: the
// visited set stores one 64-bit handle per state and the word/pair tables
// amortise to a few bytes per state at C₆–C₈ scale (EXPERIMENTS.md E24).
//
// Phase discipline, not locks (DESIGN.md §10): lookup() is a read-only
// walk safe from any number of workers concurrently AS LONG AS no
// intern() is in flight; intern() and reserve() must run single-threaded
// between parallel phases — exactly the explorer's level-synchronised
// BFS alternation, which keeps its handle index under the same contract.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

namespace ftcc {

/// Interns variable-length uint64 keys into 64-bit handles.
///
/// Handle layout: (key length << 32) | root id.  The length disambiguates
/// the id namespace — a length-1 key's root is a word id, longer keys'
/// roots are pair ids, and two keys of different lengths can never alias
/// because the length is part of the handle.  Within one length the tree
/// shape is fixed, so equal handles imply equal keys and vice versa.
class StateStore {
 public:
  using Handle = std::uint64_t;

  /// Sentinel leaf id used to pad keys to a power-of-two leaf count; it
  /// is never a real word id (word ids are dense from 0) and pad×pad
  /// pairs are propagated, not interned, so padding costs nothing.
  static constexpr std::uint32_t kPad = 0xffff'ffffu;

  /// Pre-size the tables for ~`expected_states` interned keys (sized for
  /// 10⁸+ states the up-front reservation is the difference between one
  /// allocation and a cascade of table doublings mid-exploration).
  void reserve(std::size_t expected_states) {
    word_id_.reserve(expected_states / 4 + 16);
    pair_id_.reserve(expected_states * 2 + 16);
    words_.reserve(expected_states / 4 + 16);
    pairs_.reserve(expected_states * 2 + 16);
  }

  /// Intern `key`, returning its handle (single-threaded phases only).
  [[nodiscard]] Handle intern(const std::vector<std::uint64_t>& key) {
    FTCC_EXPECTS(!key.empty());
    FTCC_EXPECTS(key.size() < (std::size_t{1} << 32));
    scratch_.clear();
    for (const std::uint64_t w : key) scratch_.push_back(intern_word(w));
    const std::size_t padded = std::bit_ceil(scratch_.size());
    scratch_.resize(padded, kPad);
    while (scratch_.size() > 1) {
      std::size_t out = 0;
      for (std::size_t i = 0; i < scratch_.size(); i += 2) {
        const std::uint32_t a = scratch_[i];
        const std::uint32_t b = scratch_[i + 1];
        scratch_[out++] =
            (a == kPad && b == kPad) ? kPad : intern_pair(a, b);
      }
      scratch_.resize(out);
    }
    return (static_cast<Handle>(key.size()) << 32) | scratch_[0];
  }

  /// Read-only probe: the handle `key` would intern to, or nullopt if any
  /// word or pair along the fold is not interned yet.  Safe concurrently
  /// with other lookups (but not with intern); `scratch` is caller-owned
  /// so parallel probers don't share state.
  [[nodiscard]] std::optional<Handle> lookup(
      const std::vector<std::uint64_t>& key,
      std::vector<std::uint32_t>& scratch) const {
    FTCC_EXPECTS(!key.empty());
    scratch.clear();
    for (const std::uint64_t w : key) {
      const auto it = word_id_.find(w);
      if (it == word_id_.end()) return std::nullopt;
      scratch.push_back(it->second);
    }
    const std::size_t padded = std::bit_ceil(scratch.size());
    scratch.resize(padded, kPad);
    while (scratch.size() > 1) {
      std::size_t out = 0;
      for (std::size_t i = 0; i < scratch.size(); i += 2) {
        const std::uint32_t a = scratch[i];
        const std::uint32_t b = scratch[i + 1];
        if (a == kPad && b == kPad) {
          scratch[out++] = kPad;
          continue;
        }
        const auto it = pair_id_.find(pack(a, b));
        if (it == pair_id_.end()) return std::nullopt;
        scratch[out++] = it->second;
      }
      scratch.resize(out);
    }
    return (static_cast<Handle>(key.size()) << 32) | scratch[0];
  }

  /// Expand a handle back into the original key (tests and debugging; the
  /// explorer never needs to decode — it keeps frontier configurations
  /// materialised and drops interior ones, which is the memory win).
  void decode(Handle handle, std::vector<std::uint64_t>& out) const {
    const auto len = static_cast<std::size_t>(handle >> 32);
    FTCC_EXPECTS(len > 0);
    std::vector<std::uint32_t> level{
        static_cast<std::uint32_t>(handle & 0xffff'ffffu)};
    const std::size_t padded = std::bit_ceil(len);
    while (level.size() < padded) {
      std::vector<std::uint32_t> next;
      next.reserve(level.size() * 2);
      for (const std::uint32_t id : level) {
        if (id == kPad) {
          next.push_back(kPad);
          next.push_back(kPad);
        } else {
          FTCC_EXPECTS(id < pairs_.size());
          next.push_back(static_cast<std::uint32_t>(pairs_[id] >> 32));
          next.push_back(static_cast<std::uint32_t>(pairs_[id]));
        }
      }
      level = std::move(next);
    }
    out.clear();
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      FTCC_EXPECTS(level[i] != kPad && level[i] < words_.size());
      out.push_back(words_[level[i]]);
    }
  }

  [[nodiscard]] std::uint64_t word_entries() const { return words_.size(); }
  [[nodiscard]] std::uint64_t pair_entries() const { return pairs_.size(); }
  [[nodiscard]] std::uint64_t entries() const {
    return words_.size() + pairs_.size();
  }

  /// Approximate resident bytes: reverse-table payload plus an estimate
  /// of unordered_map node overhead (key + value + next pointer + cached
  /// hash ≈ 28 bytes, rounded to 32) and the bucket arrays.  Good enough
  /// for the bytes/state metric E24 tracks across cycle sizes.
  [[nodiscard]] std::uint64_t bytes() const {
    const std::uint64_t payload =
        words_.capacity() * sizeof(std::uint64_t) +
        pairs_.capacity() * sizeof(std::uint64_t);
    const std::uint64_t nodes = (word_id_.size() + pair_id_.size()) * 32;
    const std::uint64_t buckets =
        (word_id_.bucket_count() + pair_id_.bucket_count()) *
        sizeof(void*);
    return payload + nodes + buckets;
  }

 private:
  static std::uint64_t pack(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::uint32_t intern_word(std::uint64_t w) {
    const auto [it, inserted] =
        word_id_.emplace(w, static_cast<std::uint32_t>(words_.size()));
    if (inserted) {
      FTCC_EXPECTS(words_.size() < kPad);
      words_.push_back(w);
    }
    return it->second;
  }

  std::uint32_t intern_pair(std::uint32_t a, std::uint32_t b) {
    const auto [it, inserted] =
        pair_id_.emplace(pack(a, b),
                         static_cast<std::uint32_t>(pairs_.size()));
    if (inserted) {
      FTCC_EXPECTS(pairs_.size() < kPad);
      pairs_.push_back(pack(a, b));
    }
    return it->second;
  }

  std::unordered_map<std::uint64_t, std::uint32_t> word_id_;
  std::unordered_map<std::uint64_t, std::uint32_t> pair_id_;
  std::vector<std::uint64_t> words_;  // word id -> word
  std::vector<std::uint64_t> pairs_;  // pair id -> packed (left, right)
  std::vector<std::uint32_t> scratch_;  // intern() fold buffer
};

}  // namespace ftcc
