#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.h"

namespace perfbench {

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& stderr_path) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    const int err = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
}

Daemon::~Daemon() { reap(5.0); }

void Daemon::send(const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = write(to_child_, text.data() + done, text.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("admissiond stdin closed");
    }
    done += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> Daemon::read_line(double timeout_sec) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_sec * 1e9);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) return std::nullopt;
    pollfd pfd{from_child_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return std::nullopt;
    char chunk[65536];
    const ssize_t n = read(from_child_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

bool Daemon::quit() {
  bool answered = false;
  try {
    send("QUIT\n");
    answered = read_line(30.0).has_value();
  } catch (const std::exception&) {
    answered = false;
  }
  reap(30.0);
  return answered && exited_ok_;
}

void Daemon::reap(double grace_sec) {
  if (to_child_ >= 0) {
    close(to_child_);
    to_child_ = -1;
  }
  if (pid_ > 0) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(grace_sec * 1e9);
    int status = 0;
    for (;;) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (r < 0 && errno != EINTR) break;
      if (now_ns() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        exited_ok_ = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (from_child_ >= 0) {
    close(from_child_);
    from_child_ = -1;
  }
}

}  // namespace perfbench
