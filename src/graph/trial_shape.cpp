#include "graph/trial_shape.hpp"

#include <limits>

namespace ftcc {

Graph TrialShape::graph() const {
  return graph_kind == "path" ? make_path(n) : make_cycle(n);
}

void write_shape_lines(std::ostream& os, const TrialShape& shape) {
  os << "algo " << shape.algo << "\n";
  os << "graph " << shape.graph_kind << " " << shape.n << "\n";
  os << "ids";
  for (std::uint64_t id : shape.ids) os << " " << id;
  os << "\n";
}

void write_wrapped_line(std::ostream& os, const TrialShape& shape) {
  if (shape.wrapped) os << "wrapped 1\n";
}

bool witness_error(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

ShapeLine parse_shape_line(const std::string& directive, std::istream& rest,
                           TrialShape& shape, std::string* error) {
  const auto fail = [&](const std::string& message) {
    (void)witness_error(error, message);
    return ShapeLine::error;
  };
  if (directive == "algo") {
    if (!(rest >> shape.algo)) return fail("algo: missing name");
  } else if (directive == "graph") {
    std::string kind, count;
    if (!(rest >> kind >> count)) return fail("graph: expected kind and n");
    if (kind != "cycle" && kind != "path")
      return fail("graph: unknown kind '" + kind + "'");
    std::uint64_t n = 0;
    if (!parse_u64(count, n) || n > std::numeric_limits<NodeId>::max())
      return fail("graph: bad node count");
    // The generators' own preconditions (make_cycle, make_path).
    const std::uint64_t least = kind == "cycle" ? 3 : 2;
    if (n < least)
      return fail("graph: a " + kind + " needs n >= " + std::to_string(least));
    shape.graph_kind = kind;
    shape.n = static_cast<NodeId>(n);
  } else if (directive == "ids") {
    std::string token;
    shape.ids.clear();
    while (rest >> token) {
      std::uint64_t id = 0;
      if (!parse_u64(token, id)) return fail("ids: bad value '" + token + "'");
      shape.ids.push_back(id);
    }
  } else if (directive == "wrapped") {
    std::string token;
    std::uint64_t flag = 0;
    if (!(rest >> token) || !parse_u64(token, flag) || flag > 1)
      return fail("wrapped: expected 0 or 1");
    shape.wrapped = flag == 1;
  } else {
    return ShapeLine::other;
  }
  return ShapeLine::parsed;
}

bool check_shape(const TrialShape& shape, std::string* error) {
  if (shape.algo.empty()) return witness_error(error, "missing 'algo' line");
  // A graph line sets n >= 2, so n == 0 means there was none.
  if (shape.n == 0) return witness_error(error, "missing 'graph' line");
  if (shape.ids.size() != shape.n)
    return witness_error(error, "ids: expected " + std::to_string(shape.n) +
                                    " values, got " +
                                    std::to_string(shape.ids.size()));
  return true;
}

std::string rest_of_line(std::istream& rest) {
  std::string line;
  std::getline(rest, line);
  if (!line.empty() && line.front() == ' ') line.erase(0, 1);
  return line;
}

}  // namespace ftcc
