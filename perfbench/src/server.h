// ri_server child-process control: spawn pinned to a core set, read its
// port, sample its CPU time, stop it and check the drain.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `binary` on an ephemeral port with `--workers workers` and
  /// `extra` arguments, pinned to `cores`, and waits (up to 30 s) for
  /// its "LISTENING <port>" line. Throws std::runtime_error on failure.
  ServerProcess(const std::string& binary, const CpuSet& cores,
                std::size_t workers, const std::vector<std::string>& extra);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// CPU seconds the server has used so far (all threads).
  double cpu_seconds() const { return process_cpu_seconds(pid_); }
  /// SIGTERM, then wait up to 10 s (SIGKILL after). True when the server
  /// drained and exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
