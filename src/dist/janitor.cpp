#include "dist/janitor.hpp"

#include <csignal>
#include <cstring>

#include <signal.h>
#include <unistd.h>

namespace ftcc::dist {

namespace {

// Fixed-capacity registries.  Slots are independent and a slot is
// "live" iff its first byte / pid is nonzero, so the handler can walk
// them without locks: registration writes the identifying byte last,
// removal clears it first.  A torn observation at worst skips an entry
// that was mid-registration — the owner had not finished acquiring the
// resource either.
constexpr int kMaxPaths = 64;
constexpr int kMaxPathLen = 104;
char g_paths[kMaxPaths][kMaxPathLen];  // zero-initialised (static storage)

constexpr int kMaxChildren = 256;
volatile pid_t g_children[kMaxChildren];

volatile sig_atomic_t g_installed = 0;

}  // namespace

// Async-signal-safe: touches only kill(2), unlink(2), _exit(2) and the
// static registries above.  The "signal_handler" name token is load-
// bearing — the signal-safety lint rule (src/lint/rules.cpp) keys off it
// to audit this function body.
extern "C" void ftcc_dist_fatal_signal_handler(int sig) {
  for (int i = 0; i < kMaxChildren; ++i) {
    const pid_t pid = g_children[i];
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (int i = 0; i < kMaxPaths; ++i) {
    if (g_paths[i][0] != '\0') ::unlink(g_paths[i]);
  }
  ::_exit(128 + sig);
}

void janitor_install() {
  if (g_installed) return;
  g_installed = 1;
  const int signals[] = {SIGINT, SIGTERM, SIGHUP};
  for (int sig : signals) {
    struct sigaction current;
    std::memset(&current, 0, sizeof(current));
    if (::sigaction(sig, nullptr, &current) != 0) continue;
    // Respect harnesses that already trap the signal (ctest drivers,
    // sanitizer runtimes): only replace the default disposition.
    if (current.sa_handler != SIG_DFL) continue;
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = ftcc_dist_fatal_signal_handler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(sig, &action, nullptr);
  }
}

bool janitor_add_path(const char* path) {
  const std::size_t len = std::strlen(path);
  if (len == 0 || len >= kMaxPathLen) return false;
  for (int i = 0; i < kMaxPaths; ++i) {
    if (g_paths[i][0] != '\0') continue;
    // First byte written last so the handler never sees a torn path.
    std::memcpy(g_paths[i] + 1, path + 1, len);  // copies the NUL too
    g_paths[i][0] = path[0];
    return true;
  }
  return false;
}

void janitor_remove_path(const char* path) {
  for (int i = 0; i < kMaxPaths; ++i) {
    if (g_paths[i][0] != '\0' && std::strcmp(g_paths[i], path) == 0) {
      g_paths[i][0] = '\0';
      return;
    }
  }
}

bool janitor_add_child(pid_t pid) {
  if (pid <= 0) return false;
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] == 0) {
      g_children[i] = pid;
      return true;
    }
  }
  return false;
}

void janitor_remove_child(pid_t pid) {
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] == pid) {
      g_children[i] = 0;
      return;
    }
  }
}

int janitor_path_count() {
  int count = 0;
  for (int i = 0; i < kMaxPaths; ++i)
    if (g_paths[i][0] != '\0') ++count;
  return count;
}

}  // namespace ftcc::dist
