// Self-test of the benchmark's colouring verdict (verify.hpp): it must
// accept a real Algorithm 4 colouring and reject hand-made colourings that
// are improper, out of palette, or incomplete.  Exit 0 iff every case
// holds; run by selftest.py.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/algo4_general_graph.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "scale/batch_executor.hpp"
#include "scale/graph_gen.hpp"
#include "verify.hpp"

namespace {

using ftcc::PairColor;
using perfbench::Verdict;

/// A completed run with the given outputs (nullopt = did not terminate).
ftcc::ExecutionResult<PairColor> hand_made(
    std::vector<std::optional<PairColor>> outputs) {
  ftcc::ExecutionResult<PairColor> r;
  r.completed = true;
  r.outputs = std::move(outputs);
  return r;
}

int failures = 0;

void expect(const std::string& what, Verdict got, Verdict want) {
  const bool ok = got == want;
  std::cout << (ok ? "ok   " : "FAIL ") << what << ": got "
            << perfbench::verdict_name(got) << ", want "
            << perfbench::verdict_name(want) << "\n";
  if (!ok) ++failures;
}

}  // namespace

int main() {
  // C_4 has Δ = 2, so the palette is {(a, b) : a + b <= 2}.
  const ftcc::Graph c4 = ftcc::make_cycle(4);
  expect("proper in-palette C4 colouring",
         perfbench::check_colouring(
             c4, hand_made({PairColor{0, 0}, PairColor{1, 0},
                            PairColor{0, 0}, PairColor{0, 2}})),
         Verdict::ok);
  expect("adjacent nodes 1 and 2 share (1,0)",
         perfbench::check_colouring(
             c4, hand_made({PairColor{0, 0}, PairColor{1, 0},
                            PairColor{1, 0}, PairColor{0, 1}})),
         Verdict::improper);
  expect("(2,1) has a + b = 3 > Δ",
         perfbench::check_colouring(
             c4, hand_made({PairColor{0, 0}, PairColor{2, 1},
                            PairColor{0, 0}, PairColor{0, 1}})),
         Verdict::out_of_palette);
  expect("component past 2^20 (would alias in PairColor::code)",
         perfbench::check_colouring(
             c4, hand_made({PairColor{0, 0}, PairColor{0, 1},
                            PairColor{std::uint64_t{1} << 20, 0},
                            PairColor{0, 1}})),
         Verdict::out_of_palette);
  expect("node 3 never terminated",
         perfbench::check_colouring(
             c4, hand_made({PairColor{0, 0}, PairColor{0, 1},
                            PairColor{0, 0}, std::nullopt})),
         Verdict::incomplete);
  auto unfinished = hand_made({PairColor{0, 0}, PairColor{0, 1},
                               PairColor{0, 0}, PairColor{0, 1}});
  unfinished.completed = false;
  expect("run reported incomplete", perfbench::check_colouring(c4, unfinished),
         Verdict::incomplete);

  // The engine the workloads time, on both of their graph families.
  const ftcc::Graph torus = ftcc::make_torus_csr(16, 16);
  const ftcc::Graph random = ftcc::make_random_bounded_degree_csr(256, 8, 7);
  for (const ftcc::Graph* g : {&torus, &random}) {
    ftcc::BatchExecutor<ftcc::DeltaSquaredColoring> ex(
        *g, ftcc::permutation_ids(g->node_count(), 3));
    expect("BatchExecutor colouring, max degree " +
               std::to_string(g->max_degree()),
           perfbench::check_colouring(*g, ex.run(1u << 20)), Verdict::ok);
  }

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
