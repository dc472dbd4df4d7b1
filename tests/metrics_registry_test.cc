// Live exposition tests (src/obs/metrics.h): the Prometheus text renderer
// (name order, one # TYPE line per family, integer counters, round-tripping
// gauges) and the passive publisher (atomic file snapshots, answering
// pending unix-socket clients, replacing only stale sockets).
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fdpcache {
namespace obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(RenderPrometheusTest, SortsByNameAndTypesEachFamilyOnce) {
  const std::string text = RenderPrometheus({
      MetricSample::Counter("fdpcache_qp_writes{qp=\"1\"}", 7),
      MetricSample::Gauge("fdpcache_ssd_dlwa", 1.5),
      MetricSample::Counter("fdpcache_qp_writes{qp=\"0\"}", 5),
      MetricSample::Counter("fdpcache_cache_gets", 3),
  });
  EXPECT_EQ(text,
            "# TYPE fdpcache_cache_gets counter\n"
            "fdpcache_cache_gets 3\n"
            "# TYPE fdpcache_qp_writes counter\n"
            "fdpcache_qp_writes{qp=\"0\"} 5\n"
            "fdpcache_qp_writes{qp=\"1\"} 7\n"
            "# TYPE fdpcache_ssd_dlwa gauge\n"
            "fdpcache_ssd_dlwa 1.5\n");
}

TEST(RenderPrometheusTest, CountersAreExactIntegersAndGaugesRoundTrip) {
  const uint64_t big = (uint64_t{1} << 60) + 1;  // Not representable as a double.
  const std::string text = RenderPrometheus({
      MetricSample::Counter("fdpcache_big", big),
      MetricSample::Gauge("fdpcache_tenth", 0.1),
  });
  EXPECT_NE(text.find("\nfdpcache_big " + std::to_string(big) + "\n"), std::string::npos);
  // %.17g: 17 significant digits, enough to read back the same double.
  EXPECT_NE(text.find("\nfdpcache_tenth 0.10000000000000001\n"), std::string::npos);
  EXPECT_EQ(std::stod("0.10000000000000001"), 0.1);
  EXPECT_EQ(RenderPrometheus({}), "");
}

TEST(MetricsPublisherTest, RewritesTheSnapshotFileWhole) {
  const std::string path = ::testing::TempDir() + "metrics_publisher_test.prom";
  std::remove(path.c_str());
  MetricsPublisher publisher(path);
  // Validation leaves nothing behind until the first snapshot.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  publisher.Publish("fdpcache_snapshot 1\n");
  publisher.Publish("fdpcache_snapshot 2\n");
  EXPECT_EQ(publisher.snapshots_written(), 2u);
  EXPECT_EQ(ReadFile(path), "fdpcache_snapshot 2\n");
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  std::remove(path.c_str());
}

int ConnectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string ReadToEof(int fd) {
  std::string received;
  char buf[1024];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;) {
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return received;
}

TEST(MetricsPublisherTest, AnswersPendingSocketClientsAndRemovesTheSocket) {
  const std::string path = ::testing::TempDir() + "metrics_publisher_test.sock";
  {
    MetricsPublisher publisher("unix:" + path);
    publisher.Publish("nobody is waiting\n");  // Returns at once with no client.
    const int first = ConnectTo(path);
    const int second = ConnectTo(path);
    publisher.Publish("fdpcache_socket 4\n");
    EXPECT_EQ(ReadToEof(first), "fdpcache_socket 4\n");
    EXPECT_EQ(ReadToEof(second), "fdpcache_socket 4\n");
    EXPECT_EQ(publisher.snapshots_written(), 0u);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(MetricsPublisherTest, ReplacesAStaleSocket) {
  const std::string path = ::testing::TempDir() + "metrics_publisher_stale.sock";
  ::unlink(path.c_str());
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(stale);  // A crashed run leaves its socket file behind.
  MetricsPublisher publisher("unix:" + path);
  const int client = ConnectTo(path);
  publisher.Publish("fresh\n");
  EXPECT_EQ(ReadToEof(client), "fresh\n");
}

// The other refused targets (a regular file, an overlong path, a missing
// directory) are covered end to end in harness_test.
TEST(MetricsPublisherTest, RefusesAnEmptySocketPath) {
  // An empty sun_path would bind in the abstract namespace, where no path
  // reaches the socket.
  EXPECT_THROW(MetricsPublisher("unix:"), std::runtime_error);
}

}  // namespace
}  // namespace obs
}  // namespace fdpcache
