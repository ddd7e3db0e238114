// tools/mc — the exhaustive certification front end (DESIGN.md §11,
// EXPERIMENTS.md E24): run the reduced model checker over one paper
// algorithm (or all five) on C_n with any combination of the three
// reduction layers, and report verdict, counts, and store footprint.
//
//   mc --algo six --n 6 --compress --symmetry --commute   # certify C6
//   mc --algo all --n 6 --compress --symmetry --commute   # all five
//   mc --algo six --n 8 --compress --symmetry --commute --jobs 4
//   mc --algo six --n 5 --census                          # orbit census
//   mc ... --metrics obs/mc.jsonl                         # ftcc-metrics-v1
//
// Exit status: 0 = every requested check passed (wait-free, proper, no
// safety violation), 1 = a check failed or the budget was exhausted,
// 2 = usage error.
#include <iostream>
#include <string>
#include <utility>

#include "fuzz/campaign.hpp"
#include "fuzz/dispatch.hpp"
#include "graph/ids.hpp"
#include "modelcheck/explorer.hpp"
#include "obs/runtime_metrics.hpp"
#include "tool_output.hpp"
#include "util/cli.hpp"

namespace {

using namespace ftcc;

struct Request {
  NodeId n = 5;
  IdAssignment ids;
  ActivationMode mode = ActivationMode::sets;
  Atomicity atomicity = Atomicity::atomic;
  McFaultMode fault_mode = McFaultMode::none;
  std::uint32_t fault_events = 1;
  std::uint64_t max_configs = 0;
  unsigned jobs = 1;
  ReductionOptions reductions;
  bool verbose = false;
};

/// Run one algorithm through run_reduced (which handles the all-layers-off
/// case too) and print a one-line summary.  Returns true iff the verdict
/// is fully green: exploration completed, wait-free, outputs proper.
template <typename A>
bool certify(A algo, const std::string& name, const Request& req,
             const obs::McMetrics* metrics) {
  ModelCheckOptions<A> opt;
  opt.mode = req.mode;
  opt.atomicity = req.atomicity;
  opt.fault_mode = req.fault_mode;
  opt.max_fault_events = req.fault_events;
  opt.reductions = req.reductions;
  if (req.max_configs != 0) opt.max_configs = req.max_configs;
  ModelChecker<A> mc(std::move(algo), make_cycle(req.n), req.ids, opt);
  mc.attach_metrics(metrics);
  const ModelCheckResult r = mc.run_reduced(req.jobs);

  std::cout << "mc algo=" << name << " n=" << static_cast<unsigned>(req.n)
            << " configs=" << r.configs << " transitions=" << r.transitions
            << " terminal=" << r.terminal_configs
            << " completed=" << (r.completed ? 1 : 0)
            << " wait_free=" << (r.wait_free ? 1 : 0)
            << " proper=" << (r.outputs_proper ? 1 : 0);
  if (req.reductions.compress)
    std::cout << " store_entries=" << r.store_entries
              << " store_bytes=" << r.store_bytes;
  if (req.reductions.symmetry) std::cout << " sym_hits=" << r.sym_hits;
  if (req.reductions.commute)
    std::cout << " commute_skipped=" << r.commute_skipped;
  if (req.reductions.census || req.reductions.symmetry)
    std::cout << " classes=" << r.canonical_classes;
  std::cout << "\n";
  if (r.safety_violation)
    std::cout << "  SAFETY VIOLATION: " << *r.safety_violation << "\n";
  if (req.verbose && r.wait_free) {
    std::cout << "  worst_case_steps=" << r.worst_case_steps
              << " worst_case_rounds=" << r.worst_case_rounds()
              << " activations=";
    for (auto a : r.worst_case_activations) std::cout << a << " ";
    std::cout << "\n  colors=";
    for (auto c : r.colors_used) std::cout << c << " ";
    std::cout << "\n";
  }
  return r.completed && r.wait_free && r.outputs_proper &&
         !r.safety_violation;
}

IdAssignment make_ids(const std::string& kind, NodeId n,
                      std::uint64_t seed) {
  if (kind == "random") return random_ids(n, seed);
  if (kind == "sorted") return sorted_ids(n);
  if (kind == "alternating") return alternating_ids(n);
  if (kind == "zigzag") return zigzag_ids(n, 2);
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("algo", std::string("six"),
           "six | five | fast5 | delta2 | fast6 | all")
      .flag("n", std::uint64_t{5}, "cycle length (3..16)")
      .flag("ids", std::string("random"),
            "identifier assignment: random | sorted | alternating | zigzag")
      .flag("seed", std::uint64_t{2026}, "seed for --ids random")
      .flag("mode", std::string("sets"),
            "activation semantics: singletons | sets")
      .flag("atomicity", std::string("atomic"), "atomic | split")
      .flag("faults", std::string("none"),
            "fault model: none | crash-stop | crash-recovery")
      .flag("fault-events", std::uint64_t{1}, "fault budget per execution")
      .flag("jobs", std::uint64_t{1}, "worker threads for the BFS expansion")
      .flag("max-configs", std::uint64_t{0},
            "configuration budget (0 = library default)")
      .flag("compress", false, "tree-interned compressed state store")
      .flag("symmetry", false, "explore the cycle-symmetry quotient")
      .flag("commute", false,
            "prune disconnected activation sets (sets mode only)")
      .flag("census", false,
            "count D_n classes of the unreduced space (symmetry oracle)")
      .flag("metrics", std::string(""), "write ftcc-metrics-v1 JSONL here")
      .flag("verbose", false, "print worst-case details per algorithm");
  if (!cli.parse(argc, argv)) return 2;

  Request req;
  const std::uint64_t n = cli.get_u64("n");
  if (n < 3 || n > 16) {
    std::cerr << "mc: --n must be in 3..16\n";
    return 2;
  }
  req.n = static_cast<NodeId>(n);
  req.ids = make_ids(cli.get_string("ids"), req.n, cli.get_u64("seed"));
  if (req.ids.empty()) {
    std::cerr << "mc: unknown --ids '" << cli.get_string("ids") << "'\n";
    return 2;
  }
  const std::string mode = cli.get_string("mode");
  if (mode == "singletons") {
    req.mode = ActivationMode::singletons;
  } else if (mode == "sets") {
    req.mode = ActivationMode::sets;
  } else {
    std::cerr << "mc: unknown --mode '" << mode << "'\n";
    return 2;
  }
  const std::string atomicity = cli.get_string("atomicity");
  if (atomicity == "split") {
    req.atomicity = Atomicity::split;
  } else if (atomicity != "atomic") {
    std::cerr << "mc: unknown --atomicity '" << atomicity << "'\n";
    return 2;
  }
  const std::string faults = cli.get_string("faults");
  if (faults == "crash-stop") {
    req.fault_mode = McFaultMode::crash_stop;
  } else if (faults == "crash-recovery") {
    req.fault_mode = McFaultMode::crash_recovery;
  } else if (faults != "none") {
    std::cerr << "mc: unknown --faults '" << faults << "'\n";
    return 2;
  }
  ToolOutput output(cli);
  if (!output.probe()) return 2;
  req.fault_events = static_cast<std::uint32_t>(cli.get_u64("fault-events"));
  req.jobs = static_cast<unsigned>(cli.get_u64("jobs"));
  req.max_configs = cli.get_u64("max-configs");
  req.reductions.compress = cli.get_bool("compress");
  req.reductions.symmetry = cli.get_bool("symmetry");
  req.reductions.commute = cli.get_bool("commute");
  req.reductions.census = cli.get_bool("census");
  req.verbose = cli.get_bool("verbose");

  const obs::McMetrics metrics = obs::McMetrics::create(output.registry());

  const std::string algo = cli.get_string("algo");
  if (algo != "all" && !known_algorithm(algo)) {
    std::cerr << "mc: unknown --algo '" << algo << "'\n";
    return 2;
  }
  bool ok = true;
  for (const std::string& name : campaign_algorithms()) {
    if (algo != "all" && algo != name) continue;
    ok &= with_algorithm(name, [&](auto a) {
      return certify(std::move(a), name, req, &metrics);
    });
  }

  if (!output.write({{"tool", "mc"},
                     {"algo", algo},
                     {"n", std::to_string(n)},
                     {"jobs", std::to_string(req.jobs)}}))
    return 2;
  return ok ? 0 : 1;
}
