// Recovering<A> — a self-healing wrapper turning any of the paper's cycle
// algorithms into one that survives register corruption and crash-recovery
// faults (the adversaries of runtime/fault_plan.hpp) without ever emitting
// an improper color.
//
// The wrapper defends along two lines:
//
//  1. *Authentication.*  The wrapped register carries the inner register,
//     the node's original identifier x0, and a position-dependent checksum
//     over both.  A reader drops any neighbour register that fails its
//     checksum to ⊥ before the inner algorithm sees the view — a corrupted
//     register is indistinguishable from a neighbour that has never woken,
//     a case every algorithm in this library already tolerates wait-free.
//     (A plain XOR checksum would let two flips of the same bit position in
//     different words cancel; the chained hash does not.)
//
//  2. *Veil-then-adopt.*  A freshly init'ed node — including one whose
//     state the executor wiped in a crash-recovery revival — starts
//     *veiled*: it publishes a register whose checksum is deliberately
//     invalidated, so neighbours read it as ⊥.  Its first activation is an
//     adoption round: it picks an identifier that collides with no valid
//     published neighbour identifier (preferring x0, dodging to hashed
//     alternatives), re-inits the inner algorithm with it, and unveils.
//     Because every inner algorithm refuses to move its own identifier
//     while a neighbour reads ⊥ (DESIGN.md ⊥-semantics decision 3), the
//     identifiers the adoption dodged stay put until the node's next
//     publish makes it visible again — adoption cannot be raced.
//
// A *bounded local reset* closes the loop: if an unveiled node ever sees a
// valid neighbour register carrying its own current identifier (possible
// only after an adversary replayed a stale snapshot — the identifiers of
// Algorithm 3 evolve, so an old register can resurrect an identifier some
// neighbour has since reduced onto), it re-veils and re-adopts instead of
// stepping the inner algorithm on a view that breaks Lemma 4.5.  After
// kMaxResets resets the node stays veiled forever: it stops making
// progress, but it can no longer emit anything — safety over liveness.
//
// What the wrapper does NOT defend against: corruption of a *terminated*
// node's frozen register.  No terminating algorithm can — nobody will ever
// rewrite that register, and every later decision trusts it.  The fault
// generator in src/fuzz/ therefore never targets terminated nodes; see
// DESIGN.md "Fault model" for the boundary argument.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "runtime/algorithm.hpp"
#include "util/rng.hpp"

namespace ftcc {

template <typename A>
concept Recoverable = Algorithm<A> && RegisterCodable<A> &&
                      requires(typename A::Register reg, typename A::State s) {
                        { reg.x } -> std::convertible_to<std::uint64_t>;
                        { s.x } -> std::convertible_to<std::uint64_t>;
                      };

template <Recoverable A>
class Recovering {
 public:
  /// Flipping any checksum bit works; this mask marks veiled registers.
  static constexpr std::uint64_t kVeilMask = 0x5eed5eed5eed5eedULL;
  /// After this many local resets a node stays veiled (and silent) forever.
  static constexpr std::uint64_t kMaxResets = 16;
  /// Adoption dodge attempts before giving up until the next activation.
  static constexpr std::uint64_t kMaxDodges = 64;

  struct Register {
    typename A::Register inner{};
    std::uint64_t x0 = 0;   ///< original identifier, immutable
    std::uint64_t sum = 0;  ///< checksum(inner, x0); invalidated while veiled
    friend bool operator==(const Register&, const Register&) = default;
    void encode(std::vector<std::uint64_t>& out) const {
      inner.encode(out);
      out.insert(out.end(), {x0, sum});
    }
  };

  struct State {
    typename A::State inner{};
    NodeId node = 0;
    std::uint64_t x0 = 0;
    int degree = 0;
    bool veiled = true;
    std::uint64_t resets = 0;  ///< local resets performed so far
  };

  static constexpr std::size_t kRegisterWords = A::kRegisterWords + 2;
  static Register decode_register(std::span<const std::uint64_t> words) {
    Register reg;
    reg.inner = A::decode_register(words.first(A::kRegisterWords));
    reg.x0 = words[A::kRegisterWords];
    reg.sum = words[A::kRegisterWords + 1];
    return reg;
  }

  using Output = typename A::Output;
  static std::uint64_t color_code(const Output& o) { return A::color_code(o); }

  [[nodiscard]] static std::uint64_t checksum(const typename A::Register& inner,
                                              std::uint64_t x0) {
    // Per-thread scratch: checksum runs once per publish and once per
    // neighbour per activation — the wrapper's hot path — and must not
    // allocate in steady state (tests/executor_alloc_test.cpp).
    // thread_local rather than a member because ThreadedExecutor shares
    // one algorithm object across its node threads.
    thread_local std::vector<std::uint64_t> words;
    words.clear();
    inner.encode(words);
    std::uint64_t h = 0x243f6a8885a308d3ULL ^ x0;  // position-dependent chain
    for (std::uint64_t w : words) {
      std::uint64_t s = h ^ w;
      h = splitmix64(s);
    }
    return h;
  }

  [[nodiscard]] static bool authentic(const Register& reg) {
    return checksum(reg.inner, reg.x0) == reg.sum;
  }

  [[nodiscard]] State init(NodeId node, std::uint64_t id, int degree) const {
    State s;
    s.inner = inner_.init(node, id, degree);
    s.node = node;
    s.x0 = id;
    s.degree = degree;
    s.veiled = true;
    return s;
  }

  [[nodiscard]] Register publish(const State& s) const {
    Register reg{inner_.publish(s.inner), s.x0, 0};
    reg.sum = checksum(reg.inner, reg.x0);
    if (s.veiled) reg.sum ^= kVeilMask;
    return reg;
  }

  [[nodiscard]] std::optional<Output> step(State& s,
                                           NeighborView<Register> view) const {
    // Authenticate the view once; everything below sees only inner
    // registers that some node's publish() actually emitted.  The scratch
    // is thread_local, not a member: ThreadedExecutor shares one algorithm
    // object across node threads (each thread gets its own buffer), and
    // the sequential executor reuses the buffer across activations so the
    // steady state stays allocation-free.
    thread_local InnerView inner_view;
    inner_view.assign(view.size(), std::nullopt);
    for (std::size_t i = 0; i < view.size(); ++i)
      if (view[i] && authentic(*view[i])) inner_view[i] = view[i]->inner;

    if (s.veiled) {
      adopt(s, inner_view);
      return std::nullopt;
    }
    // Local reset: a valid neighbour register carrying our identifier
    // contradicts Lemma 4.5 — an adversary replayed a stale snapshot.
    for (const auto& slot : inner_view) {
      if (slot && slot->x == s.inner.x) {
        s.veiled = true;
        ++s.resets;
        return std::nullopt;
      }
    }
    return inner_.step(s.inner,
                       NeighborView<typename A::Register>(inner_view));
  }

 private:
  using InnerView = std::vector<std::optional<typename A::Register>>;

  /// Pick an identifier colliding with no authentic published neighbour
  /// identifier, re-init the inner algorithm with it, and unveil.  While
  /// we are veiled the neighbours read us as ⊥ and therefore keep their
  /// identifiers still (⊥-semantics decision 3), so the dodge is stable.
  void adopt(State& s, const InnerView& inner_view) const {
    if (s.resets >= kMaxResets) return;  // permanently veiled: stay silent
    const auto collides = [&inner_view](std::uint64_t x) {
      for (const auto& slot : inner_view)
        if (slot && slot->x == x) return true;
      return false;
    };
    std::uint64_t candidate = s.x0;
    for (std::uint64_t attempt = 0; collides(candidate); ++attempt) {
      if (attempt == kMaxDodges) return;  // retry at the next activation
      std::uint64_t h = s.x0 ^ (static_cast<std::uint64_t>(s.node) << 32) ^
                        (s.resets << 8) ^ attempt;
      candidate = splitmix64(h);
    }
    s.inner = inner_.init(s.node, candidate, s.degree);
    s.veiled = false;
  }

  A inner_{};
};

/// Is T a Recovering<...> instantiation?  The invariant monitors
/// (analysis/invariants.hpp) use it to see through the wrapper: they read
/// authentic registers and the inner state.
template <typename T>
inline constexpr bool is_recovering_v = false;
template <typename A>
inline constexpr bool is_recovering_v<Recovering<A>> = true;

}  // namespace ftcc
