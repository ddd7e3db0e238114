#include "fuzz/schedule_io.hpp"

#include <sstream>

namespace ftcc {

CrashPlan ScheduleArtifact::crash_plan() const {
  CrashPlan plan(n);
  for (const auto& [v, t] : crash_at_step) plan.crash_at_step(v, t);
  for (const auto& [v, k] : crash_after_acts) plan.crash_after_activations(v, k);
  return plan;
}

FaultPlan ScheduleArtifact::fault_plan() const {
  FaultPlan plan(crash_plan());
  for (const auto& r : recoveries) plan.recover(r.node, r.fault);
  for (const auto& c : corruptions) plan.corrupt(c.node, c.fault);
  return plan;
}

std::string serialize_schedule(const ScheduleArtifact& artifact) {
  std::ostringstream os;
  os << "ftcc-schedule v1\n";
  write_shape_lines(os, artifact);
  for (const auto& [v, t] : artifact.crash_at_step)
    os << "crash at_step " << v << " " << t << "\n";
  for (const auto& [v, k] : artifact.crash_after_acts)
    os << "crash after_acts " << v << " " << k << "\n";
  for (const auto& r : artifact.recoveries)
    os << "recover " << r.node << " " << r.fault.at_step << " "
       << r.fault.down_steps << " " << recovered_register_name(r.fault.reg)
       << "\n";
  for (const auto& c : artifact.corruptions)
    os << "corrupt " << c.node << " " << c.fault.at_step << " "
       << corruption_kind_name(c.fault.kind) << " " << c.fault.word << " "
       << c.fault.value << "\n";
  write_wrapped_line(os, artifact);
  os << "steps " << artifact.sigmas.size() << "\n";
  for (const auto& sigma : artifact.sigmas) {
    os << "sigma";
    if (sigma.empty()) {
      os << " -";
    } else {
      for (NodeId v : sigma) os << " " << v;
    }
    os << "\n";
  }
  os << "seed " << artifact.seed << "\n";
  if (!artifact.violation.empty()) os << "violation " << artifact.violation << "\n";
  return os.str();
}

namespace {

// Returns false (with `error` set) on malformed input; on success fills
// `artifact` and leaves `error` untouched.
bool parse_into(const std::string& text, ScheduleArtifact& artifact,
                std::string* error) {
  const auto fail = [error](const std::string& message) {
    return witness_error(error, message);
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "ftcc-schedule v1")
    return fail("missing 'ftcc-schedule v1' header");
  bool saw_steps = false;
  std::uint64_t declared_steps = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    switch (parse_shape_line(directive, ls, artifact, error)) {
      case ShapeLine::error: return false;
      case ShapeLine::parsed: continue;
      case ShapeLine::other: break;
    }
    if (directive == "crash") {
      std::string kind, node, value;
      if (!(ls >> kind >> node >> value))
        return fail("crash: expected kind, node, value");
      std::uint64_t v = 0, x = 0;
      if (!parse_u64(node, v) || !parse_u64(value, x))
        return fail("crash: bad number");
      if (kind == "at_step") {
        artifact.crash_at_step.emplace_back(static_cast<NodeId>(v), x);
      } else if (kind == "after_acts") {
        artifact.crash_after_acts.emplace_back(static_cast<NodeId>(v), x);
      } else {
        return fail("crash: unknown kind '" + kind + "'");
      }
    } else if (directive == "recover") {
      std::string node, at_step, down_steps, reg;
      if (!(ls >> node >> at_step >> down_steps >> reg))
        return fail("recover: expected node, at_step, down_steps, reg");
      std::uint64_t v = 0;
      RecoveryFault fault;
      if (!parse_u64(node, v) || !parse_u64(at_step, fault.at_step) ||
          !parse_u64(down_steps, fault.down_steps))
        return fail("recover: bad number");
      const auto parsed = parse_recovered_register(reg);
      if (!parsed)
        return fail("recover: unknown register policy '" + reg + "'");
      fault.reg = *parsed;
      artifact.recoveries.push_back({static_cast<NodeId>(v), fault});
    } else if (directive == "corrupt") {
      std::string node, at_step, kind, word, value;
      if (!(ls >> node >> at_step >> kind >> word >> value))
        return fail("corrupt: expected node, at_step, kind, word, value");
      std::uint64_t v = 0;
      CorruptionFault fault;
      if (!parse_u64(node, v) || !parse_u64(at_step, fault.at_step) ||
          !parse_u64(word, fault.word) || !parse_u64(value, fault.value))
        return fail("corrupt: bad number");
      const auto parsed = parse_corruption_kind(kind);
      if (!parsed) return fail("corrupt: unknown kind '" + kind + "'");
      fault.kind = *parsed;
      artifact.corruptions.push_back({static_cast<NodeId>(v), fault});
    } else if (directive == "steps") {
      std::string count;
      if (!(ls >> count) || !parse_u64(count, declared_steps))
        return fail("steps: bad count");
      saw_steps = true;
    } else if (directive == "sigma") {
      std::vector<NodeId> sigma;
      std::string token;
      while (ls >> token) {
        if (token == "-") break;  // explicit empty activation set
        std::uint64_t v = 0;
        if (!parse_u64(token, v))
          return fail("sigma: bad node '" + token + "'");
        sigma.push_back(static_cast<NodeId>(v));
      }
      artifact.sigmas.push_back(std::move(sigma));
    } else if (directive == "seed") {
      std::string token;
      if (!(ls >> token) || !parse_u64(token, artifact.seed))
        return fail("seed: bad value");
    } else if (directive == "violation") {
      artifact.violation = rest_of_line(ls);
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  if (!check_shape(artifact, error)) return false;
  if (!saw_steps) return fail("missing 'steps' line");
  if (artifact.sigmas.size() != declared_steps)
    return fail("truncated schedule: declared " +
                std::to_string(declared_steps) + " steps, found " +
                std::to_string(artifact.sigmas.size()));
  for (const auto& sigma : artifact.sigmas)
    for (NodeId v : sigma)
      if (v >= artifact.n) return fail("sigma: node out of range");
  for (const auto& [v, t] : artifact.crash_at_step)
    if (v >= artifact.n) return fail("crash: node out of range");
  for (const auto& [v, k] : artifact.crash_after_acts)
    if (v >= artifact.n) return fail("crash: node out of range");
  for (const auto& r : artifact.recoveries)
    if (r.node >= artifact.n) return fail("recover: node out of range");
  for (const auto& c : artifact.corruptions)
    if (c.node >= artifact.n) return fail("corrupt: node out of range");
  return true;
}

}  // namespace

std::optional<ScheduleArtifact> parse_schedule(const std::string& text,
                                               std::string* error) {
  ScheduleArtifact artifact;
  if (!parse_into(text, artifact, error)) return std::nullopt;
  return artifact;
}

bool save_schedule(const std::string& path, const ScheduleArtifact& artifact) {
  return write_file(path, serialize_schedule(artifact));
}

std::optional<ScheduleArtifact> load_schedule(const std::string& path,
                                              std::string* error) {
  return load_witness(path, error, parse_schedule);
}

}  // namespace ftcc
