#include "src/obs/metrics.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace fdpcache {
namespace obs {

namespace {

[[noreturn]] void Fail(const std::string& target, const std::string& what, int err) {
  throw std::runtime_error("metrics output " + target + ": " + what +
                           (err != 0 ? std::string(": ") + std::strerror(err) : ""));
}

}  // namespace

std::string RenderPrometheus(std::vector<MetricSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  std::string out;
  out.reserve(4096);
  std::string_view last_family;
  for (const MetricSample& s : samples) {
    const std::string_view family = std::string_view(s.name).substr(0, s.name.find('{'));
    if (family != last_family) {
      out += "# TYPE ";
      out += family;
      out += s.kind == MetricSample::Kind::kCounter ? " counter\n" : " gauge\n";
      last_family = family;
    }
    out += s.name;
    out += ' ';
    if (s.kind == MetricSample::Kind::kCounter) {
      out += std::to_string(s.count);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", s.gauge);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

MetricsPublisher::MetricsPublisher(const std::string& target) {
  if (target.rfind("unix:", 0) != 0) {
    // Prove now, before any run time is spent, that the snapshot can land.
    file_path_ = target;
    const std::string tmp = file_path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      Fail(target, "cannot create the snapshot file", errno);
    }
    std::fclose(f);
    std::remove(tmp.c_str());
    return;
  }
  socket_path_ = target.substr(5);
  sockaddr_un addr{};
  if (socket_path_.empty() || socket_path_.size() >= sizeof(addr.sun_path)) {
    Fail(target,
         "the socket path must be 1 to " + std::to_string(sizeof(addr.sun_path) - 1) + " bytes",
         0);
  }
  struct stat st {};
  if (::lstat(socket_path_.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      Fail(target, "refusing to replace a file that is not a socket", 0);
    }
    ::unlink(socket_path_.c_str());  // A stale socket from an earlier run.
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    Fail(target, "socket", errno);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.data(), socket_path_.size());
  const auto give_up = [&](const char* what, bool bound) {
    const int err = errno;
    ::close(listen_fd_);
    if (bound) {
      ::unlink(socket_path_.c_str());
    }
    Fail(target, what, err);
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    give_up("bind", false);
  }
  if (::listen(listen_fd_, 16) != 0) {
    give_up("listen", true);
  }
}

MetricsPublisher::~MetricsPublisher() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
}

void MetricsPublisher::Publish(const std::string& text) {
  if (!file_path_.empty()) {
    const std::string tmp = file_path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    bool written = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f != nullptr && std::fclose(f) != 0) {
      written = false;
    }
    // rename() is atomic: readers tailing the file never see a torn snapshot.
    if (!written || std::rename(tmp.c_str(), file_path_.c_str()) != 0) {
      Fail(file_path_, "cannot write the snapshot", errno);
    }
    ++snapshots_;
  }
  // The listening socket is non-blocking, so accept() returns -1 once the
  // backlog is empty; each client gets what fits its socket buffer.
  for (int conn; listen_fd_ >= 0 && (conn = ::accept(listen_fd_, nullptr, nullptr)) >= 0;) {
    ::send(conn, text.data(), text.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    ::close(conn);
  }
}

}  // namespace obs
}  // namespace fdpcache
