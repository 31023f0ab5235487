#include "server.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary, const CpuSet& cores,
                             std::size_t workers,
                             const std::vector<std::string>& extra) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
  const std::string workers_str = std::to_string(workers);
  std::vector<std::string> args = {binary, "--port", "0", "--workers",
                                   workers_str};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the generator
    pin(cores);  // inherited by every server thread
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "exec %s: %s\n", binary.c_str(), std::strerror(errno));
    std::_Exit(127);
  }
  ::close(pipefd[1]);
  out_fd_ = pipefd[0];

  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char c = 0;
    if (::read(out_fd_, &c, 1) != 1) break;
    if (c == '\n') break;
    line.push_back(c);
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0) {
    stop();
    throw std::runtime_error("ri_server did not report a port: \"" + line +
                             "\"");
  }
  port_ = static_cast<std::uint16_t>(port);
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 1000; ++i) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
