// Child-process timing for the end-to-end benchmark.
//
// Each timed `hispar` command runs as its own process, exactly as a
// user runs it, and is timed from outside: wall clock around fork +
// wait4 with std::chrono::steady_clock, and the child's rusage (user
// and system CPU, peak RSS). Wall time therefore includes process
// start-up and the world build every CLI call pays.
//
// Linux folds the peak RSS of the process that calls exec into the
// new program's ru_maxrss, so children of a large process would report
// that process's peak. The driver holds worlds, parsed traces and whole
// artifacts in memory, so it spawns through a helper forked while it is
// still small: the helper does the fork/exec/wait4 and reports back over
// a pipe. The helper and each child carry PR_SET_PDEATHSIG, so neither
// outlives the process that started it.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace hispar::bench {

struct ChildRun {
  int exit_code = -1;  // 128 + signal when the child was killed
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double maxrss_mb = 0.0;  // ru_maxrss in MB (10^6 bytes)
};

class Spawner {
 public:
  // Forks the helper. Construct it first thing in main(), before the
  // driver allocates anything large.
  Spawner();
  // Closes the request pipe and waits for the helper to exit.
  ~Spawner();
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  // Runs argv[0] with the rest as arguments, stdout and stderr both
  // redirected to `log_path` (truncated); blocks until the child has
  // ended. A child that cannot be started exits 127. Throws
  // std::runtime_error when the helper is gone.
  ChildRun run(const std::vector<std::string>& argv,
               const std::string& log_path) const;

 private:
  pid_t helper_ = -1;
  int request_fd_ = -1;  // driver -> helper
  int reply_fd_ = -1;    // helper -> driver
};

}  // namespace hispar::bench
