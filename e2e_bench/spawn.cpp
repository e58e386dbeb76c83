#include "spawn.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace hispar::bench {

namespace {

// Full-length pipe I/O. write_all returns false on a broken pipe;
// read_all returns false at end of file.
bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// A request is a count, then that many length-prefixed strings: the
// log path followed by argv.
bool write_request(int fd, const std::vector<std::string>& words) {
  const auto count = static_cast<std::uint32_t>(words.size());
  if (!write_all(fd, &count, sizeof count)) return false;
  for (const std::string& word : words) {
    const auto size = static_cast<std::uint32_t>(word.size());
    if (!write_all(fd, &size, sizeof size) ||
        !write_all(fd, word.data(), word.size()))
      return false;
  }
  return true;
}

bool read_request(int fd, std::vector<std::string>& words) {
  std::uint32_t count = 0;
  if (!read_all(fd, &count, sizeof count)) return false;
  words.assign(count, {});
  for (std::string& word : words) {
    std::uint32_t size = 0;
    if (!read_all(fd, &size, sizeof size)) return false;
    word.resize(size);
    if (!read_all(fd, word.data(), size)) return false;
  }
  return true;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

// In the helper: fork, exec words[1..] with output to words[0], wait.
ChildRun spawn_and_wait(const std::vector<std::string>& words) {
  std::vector<char*> argv;
  for (std::size_t i = 1; i < words.size(); ++i)
    argv.push_back(const_cast<char*>(words[i].c_str()));
  argv.push_back(nullptr);
  const char* log_path = words[0].c_str();
  const pid_t helper = getpid();

  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != helper) _exit(127);
    const int fd = open(log_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0 || dup2(fd, STDERR_FILENO) < 0)
      _exit(127);
    close(fd);
    execv(argv[0], argv.data());
    _exit(127);
  }
  ChildRun run;
  if (pid < 0) return run;
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_s = std::chrono::duration<double>(Clock::now() - started).count();
  run.user_s = seconds(usage.ru_utime);
  run.sys_s = seconds(usage.ru_stime);
  run.maxrss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
  if (WIFEXITED(status))
    run.exit_code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status))
    run.exit_code = 128 + WTERMSIG(status);
  return run;
}

[[noreturn]] void helper_loop(int request_fd, int reply_fd) {
  std::vector<std::string> words;
  while (read_request(request_fd, words)) {
    const ChildRun run = spawn_and_wait(words);
    if (!write_all(reply_fd, &run, sizeof run)) break;
  }
  _exit(0);
}

}  // namespace

Spawner::Spawner() {
  int request[2];
  int reply[2];
  if (pipe2(request, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  if (pipe2(reply, O_CLOEXEC) != 0) {
    close(request[0]);
    close(request[1]);
    throw std::runtime_error("pipe2 failed");
  }
  const pid_t driver = getpid();
  helper_ = fork();
  const int fork_errno = errno;
  if (helper_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != driver) _exit(1);
    close(request[1]);
    close(reply[0]);
    helper_loop(request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  if (helper_ < 0) {
    close(request[1]);
    close(reply[0]);
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(fork_errno));
  }
  // A dead helper must surface as a failed write, not kill the driver.
  signal(SIGPIPE, SIG_IGN);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

Spawner::~Spawner() {
  close(request_fd_);  // the helper reads end of file and exits
  close(reply_fd_);
  int status = 0;
  while (waitpid(helper_, &status, 0) < 0 && errno == EINTR) {
  }
}

ChildRun Spawner::run(const std::vector<std::string>& argv,
                      const std::string& log_path) const {
  if (argv.empty()) throw std::invalid_argument("Spawner::run: empty argv");
  std::vector<std::string> words{log_path};
  words.insert(words.end(), argv.begin(), argv.end());
  ChildRun run;
  if (!write_request(request_fd_, words) ||
      !read_all(reply_fd_, &run, sizeof run))
    throw std::runtime_error("spawn helper exited");
  return run;
}

}  // namespace hispar::bench
