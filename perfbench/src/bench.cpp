#include "bench.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <stdexcept>

extern char** environ;

namespace pb {

namespace {
std::vector<int> g_children;  // spawned and not yet reaped (main thread only)
}  // namespace

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i)
    std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"t0_ns\":%lld,\"t1_ns\":%lld}%s\n",
                 i, spans_[i].name.c_str(), spans_[i].parent,
                 static_cast<long long>(spans_[i].t0), static_cast<long long>(spans_[i].t1),
                 i + 1 < spans_.size() ? "," : "");
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Child spawn(const std::vector<std::string>& argv, bool capture_stdout) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int fds[2] = {-1, -1};
  if (capture_stdout && ::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (capture_stdout) posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  else posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (capture_stdout) ::close(fds[1]);
  if (rc != 0) {
    if (capture_stdout) ::close(fds[0]);
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
  g_children.push_back(pid);
  return Child{pid, capture_stdout ? fds[0] : -1};
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  ::close(fd);
  return out;
}

int wait_child(int pid) {
  g_children.erase(std::remove(g_children.begin(), g_children.end(), pid), g_children.end());
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void kill_children() {
  for (const int pid : std::vector<int>(g_children)) {
    ::kill(pid, SIGKILL);
    wait_child(pid);
  }
}

double peak_rss_mb(int pid) {
  if (pid == 0) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace pb
