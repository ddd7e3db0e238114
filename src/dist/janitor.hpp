// Leak-proofing for the multi-process backend (DESIGN.md §12.5).  A
// supervisor that dies — cleanly, on an assertion, or because the user
// hit Ctrl-C — must not leave /dev/shm segments or orphaned node
// processes behind.  The janitor is a process-wide registry of
// "resources to reap on abnormal exit": shared-memory paths and child
// pids.  On SIGINT/SIGTERM/SIGHUP a handler walks the registry using
// only async-signal-safe calls (unlink, kill, _exit) and terminates.
//
// Normal destruction paths (ShmRegion::~ShmRegion, supervisor teardown)
// unregister their entries as they release them, so the handler only
// ever reaps what is genuinely still live.  Capacities are fixed and
// static — a signal handler cannot allocate.
#pragma once

#include <sys/types.h>

namespace ftcc::dist {

/// Install the cleanup handler for SIGINT/SIGTERM/SIGHUP.  Idempotent;
/// called by ShmRegion and the supervisor on construction.  Handlers
/// that were already non-default (e.g. a test harness's) are left alone.
void janitor_install();

/// Register a filesystem path (a /dev/shm segment file) to unlink when a
/// fatal signal arrives.  Returns false when the table is full (the
/// caller proceeds without crash-coverage rather than failing the run).
bool janitor_add_path(const char* path);
void janitor_remove_path(const char* path);

/// Register a child pid to SIGKILL when a fatal signal arrives.
bool janitor_add_child(pid_t pid);
void janitor_remove_child(pid_t pid);

/// Number of currently registered paths — exposed for tests.
int janitor_path_count();

}  // namespace ftcc::dist
