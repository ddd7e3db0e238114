#include "analysis/hb/event_log.hpp"

#include <sstream>

namespace ftcc {

namespace {

void serialize_event(std::ostringstream& os, const HbEvent& e) {
  os << hb_event_kind_name(e.kind) << " " << e.round;
  switch (e.kind) {
    case HbEventKind::publish:
    case HbEventKind::adversary:
      os << " " << e.version;
      for (std::uint64_t w : e.words) os << " " << w;
      break;
    case HbEventKind::stall:
    case HbEventKind::revive:
    case HbEventKind::finish:
      os << " " << e.version;
      break;
    case HbEventKind::read:
      os << " " << e.peer << " " << e.version;
      for (std::uint64_t w : e.words) os << " " << w;
      break;
    case HbEventKind::read_timeout:
      os << " " << e.peer;
      break;
  }
  os << "\n";
}

/// Parse one event line (already split off its directive) for `node`.
bool parse_event(const std::string& directive, std::istringstream& ls,
                 NodeId node, HbEvent& e, std::string* error) {
  const auto fail = [error](const std::string& message) {
    return witness_error(error, message);
  };
  // The next token as a number of out's type (a NodeId peer is range
  // checked before it narrows).
  const auto next = [&](auto& out) {
    std::string token;
    return static_cast<bool>(ls >> token) && parse_uint(token, out);
  };
  e.peer = node;
  if (!next(e.round)) return fail(directive + ": bad round");
  if (directive == "pub" || directive == "adv") {
    e.kind = directive == "pub" ? HbEventKind::publish : HbEventKind::adversary;
    if (!next(e.version)) return fail(directive + ": bad version");
    std::uint64_t w = 0;
    while (next(w)) e.words.push_back(w);
  } else if (directive == "stall" || directive == "rev" ||
             directive == "fin") {
    e.kind = directive == "stall"  ? HbEventKind::stall
             : directive == "rev" ? HbEventKind::revive
                                  : HbEventKind::finish;
    if (!next(e.version)) return fail(directive + ": bad value");
  } else if (directive == "read" || directive == "rdto") {
    if (!next(e.peer)) return fail(directive + ": bad peer");
    if (directive == "rdto") {
      e.kind = HbEventKind::read_timeout;
    } else {
      e.kind = HbEventKind::read;
      if (!next(e.version)) return fail("read: bad version");
      std::uint64_t w = 0;
      while (next(w)) e.words.push_back(w);
    }
  } else {
    return fail("unknown event '" + directive + "'");
  }
  return true;
}

bool parse_into(const std::string& text, EventLogArtifact& artifact,
                std::string* error) {
  const auto fail = [error](const std::string& message) {
    return witness_error(error, message);
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "ftcc-eventlog v1")
    return fail("missing 'ftcc-eventlog v1' header");
  ShapeLinesSeen seen;
  // The node whose declared events are still to come, and how many.
  NodeId open_node = 0;
  std::uint64_t pending_events = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    if (pending_events > 0) {
      HbEvent e;
      if (!parse_event(directive, ls, open_node, e, error)) return false;
      artifact.log.record(open_node, std::move(e));
      --pending_events;
      continue;
    }
    switch (parse_shape_line(directive, ls, artifact, seen, error)) {
      case ShapeLine::error: return false;
      case ShapeLine::parsed:
        if (directive == "graph") artifact.log.reset(artifact.n);
        continue;
      case ShapeLine::other: break;
    }
    if (directive == "max_read_attempts") {
      std::string token;
      if (!(ls >> token) || !parse_u64(token, artifact.max_read_attempts))
        return fail("max_read_attempts: bad value");
    } else if (directive == "fault") {
      std::string node, kind;
      if (!(ls >> node >> kind))
        return fail("fault: expected node and kind");
      ThreadedFault fault;
      if (!parse_uint(node, fault.node)) return fail("fault: bad node");
      std::string after, mask;
      if (kind == "corrupt") {
        fault.kind = ThreadedFault::Kind::corrupt_words;
        if (!(ls >> after >> mask) || !parse_u64(after, fault.after_publishes) ||
            !parse_u64(mask, fault.mask))
          return fail("fault corrupt: expected after_publishes, mask");
      } else if (kind == "stall") {
        fault.kind = ThreadedFault::Kind::stall_mid_publish;
        if (!(ls >> after) || !parse_u64(after, fault.after_publishes))
          return fail("fault stall: expected after_publishes");
      } else {
        return fail("fault: unknown kind '" + kind + "'");
      }
      artifact.faults.push_back(fault);
    } else if (directive == "node") {
      if (artifact.n == 0) return fail("node: before 'graph' line");
      std::string node, count;
      if (!(ls >> node >> count))
        return fail("node: expected id and event count");
      if (!parse_uint(node, open_node) || open_node >= artifact.n)
        return fail("node: id out of range");
      if (!parse_u64(count, pending_events))
        return fail("node: bad event count");
    } else if (directive == "seed") {
      std::string token;
      if (!(ls >> token) || !parse_u64(token, artifact.seed))
        return fail("seed: bad value");
    } else if (directive == "verdict") {
      artifact.verdict = rest_of_line(ls);
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  if (pending_events > 0)
    return fail("truncated log: node " + std::to_string(open_node) +
                " missing " + std::to_string(pending_events) + " events");
  if (!check_shape(artifact, error)) return false;
  for (const ThreadedFault& f : artifact.faults)
    if (f.node >= artifact.n) return fail("fault: node out of range");
  for (NodeId v = 0; v < artifact.n; ++v)
    for (const HbEvent& e : artifact.log.events(v))
      if ((e.kind == HbEventKind::read ||
           e.kind == HbEventKind::read_timeout) &&
          e.peer >= artifact.n)
        return fail("read: peer out of range");
  return true;
}

}  // namespace

std::string serialize_event_log(const EventLogArtifact& artifact) {
  std::ostringstream os;
  os << "ftcc-eventlog v1\n";
  write_shape_lines(os, artifact);
  write_wrapped_line(os, artifact);
  os << "max_read_attempts " << artifact.max_read_attempts << "\n";
  for (const ThreadedFault& f : artifact.faults) {
    os << "fault " << f.node << " ";
    if (f.kind == ThreadedFault::Kind::corrupt_words)
      os << "corrupt " << f.after_publishes << " " << f.mask;
    else
      os << "stall " << f.after_publishes;
    os << "\n";
  }
  for (NodeId v = 0; v < artifact.log.node_count(); ++v) {
    const auto& events = artifact.log.events(v);
    os << "node " << v << " " << events.size() << "\n";
    for (const HbEvent& e : events) serialize_event(os, e);
  }
  os << "seed " << artifact.seed << "\n";
  if (!artifact.verdict.empty()) os << "verdict " << artifact.verdict << "\n";
  return os.str();
}

std::optional<EventLogArtifact> parse_event_log(const std::string& text,
                                                std::string* error) {
  EventLogArtifact artifact;
  if (!parse_into(text, artifact, error)) return std::nullopt;
  return artifact;
}

bool save_event_log(const std::string& path, const EventLogArtifact& artifact) {
  return write_file(path, serialize_event_log(artifact));
}

std::optional<EventLogArtifact> load_event_log(const std::string& path,
                                               std::string* error) {
  return load_witness(path, error, parse_event_log);
}

}  // namespace ftcc
