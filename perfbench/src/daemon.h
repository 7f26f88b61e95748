#pragma once

/// \file daemon.h
/// A child `admissiond` process spoken to over its stdin/stdout line
/// protocol (serve/protocol.h).  The destructor always reaps the child:
/// a clean QUIT first, SIGKILL if it does not exit in time.

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary args...`; stderr goes to `stderr_path`.  Throws
  /// std::runtime_error when the process cannot be started.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& stderr_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Writes `text` to the daemon's stdin in full.  Throws on a closed pipe.
  void send(const std::string& text);

  /// Next reply line without its newline; nullopt on EOF or when nothing
  /// arrives within `timeout_sec`.
  [[nodiscard]] std::optional<std::string> read_line(double timeout_sec = 60.0);

  /// The daemon's peak resident set (VmHWM) in MiB; 0 when unreadable.
  [[nodiscard]] double peak_rss_mb() const;

  /// Sends QUIT, closes stdin and waits for the exit.  Returns true when
  /// the daemon answered and exited with status 0.
  bool quit();

 private:
  void reap(double grace_sec);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  bool exited_ok_ = false;
};

}  // namespace perfbench
