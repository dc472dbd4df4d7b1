#include "src/obs/metrics.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace fdpcache {
namespace obs {

namespace {

// Family = metric name with any {label} suffix stripped; one # TYPE line is
// emitted per family.
std::string FamilyOf(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

// Splits "fam{a="b"}" into ("fam", "a=\"b\"") for histogram rendering,
// where the le label has to be merged into the existing label set.
void SplitLabels(const std::string& name, std::string* family, std::string* labels) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  size_t close = name.rfind('}');
  *labels = name.substr(brace + 1, close == std::string::npos ? std::string::npos
                                                              : close - brace - 1);
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

MetricCounter* MetricsRegistry::Counter(const std::string& name) {
  fdp::MutexLock lock(&mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.type == Type::kCounter ? it->second.counter.get() : nullptr;
  }
  Entry entry;
  entry.type = Type::kCounter;
  entry.counter = std::make_unique<MetricCounter>();
  MetricCounter* ptr = entry.counter.get();
  metrics_.emplace(name, std::move(entry));
  return ptr;
}

MetricGauge* MetricsRegistry::Gauge(const std::string& name) {
  fdp::MutexLock lock(&mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.type == Type::kGauge ? it->second.gauge.get() : nullptr;
  }
  Entry entry;
  entry.type = Type::kGauge;
  entry.gauge = std::make_unique<MetricGauge>();
  MetricGauge* ptr = entry.gauge.get();
  metrics_.emplace(name, std::move(entry));
  return ptr;
}

MetricHistogram* MetricsRegistry::Histogram(const std::string& name) {
  fdp::MutexLock lock(&mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    return it->second.type == Type::kHistogram ? it->second.histogram.get() : nullptr;
  }
  Entry entry;
  entry.type = Type::kHistogram;
  entry.histogram = std::make_unique<MetricHistogram>();
  MetricHistogram* ptr = entry.histogram.get();
  metrics_.emplace(name, std::move(entry));
  return ptr;
}

void MetricsRegistry::AddCollector(std::function<void(MetricsRegistry&)> fn) {
  fdp::MutexLock lock(&mu_);
  collectors_.push_back(std::move(fn));
}

void MetricsRegistry::ClearCollectors() {
  fdp::MutexLock lock(&mu_);
  collectors_.clear();
}

std::string MetricsRegistry::RenderPrometheus() {
  // Run collectors outside mu_ so they can call Counter()/Gauge() freely.
  std::vector<std::function<void(MetricsRegistry&)>> collectors;
  {
    fdp::MutexLock lock(&mu_);
    collectors = collectors_;
  }
  for (auto& fn : collectors) {
    fn(*this);
  }

  fdp::MutexLock lock(&mu_);
  std::string out;
  out.reserve(4096);
  std::string last_family;
  for (const auto& [name, entry] : metrics_) {
    std::string family = FamilyOf(name);
    if (family != last_family) {
      out += "# TYPE " + family + " ";
      switch (entry.type) {
        case Type::kCounter:
          out += "counter";
          break;
        case Type::kGauge:
          out += "gauge";
          break;
        case Type::kHistogram:
          out += "histogram";
          break;
      }
      out += "\n";
      last_family = family;
    }
    switch (entry.type) {
      case Type::kCounter:
        out += name + " " + std::to_string(entry.counter->Value()) + "\n";
        break;
      case Type::kGauge:
        out += name + " ";
        AppendDouble(&out, entry.gauge->Value());
        out += "\n";
        break;
      case Type::kHistogram: {
        std::string fam, labels;
        SplitLabels(name, &fam, &labels);
        const std::string sep = labels.empty() ? "" : ",";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
          uint64_t c = entry.histogram->BucketCount(i);
          if (c == 0) {
            continue;  // Sparse output: only buckets that fired.
          }
          cumulative += c;
          // Bucket i holds v with bit_width(v)==i => v <= 2^i - 1.
          double le = i == 0 ? 0.0
                             : static_cast<double>((i >= 64 ? ~0ull : (1ull << i) - 1));
          out += fam + "_bucket{" + labels + sep + "le=\"";
          AppendDouble(&out, le);
          out += "\"} " + std::to_string(cumulative) + "\n";
        }
        out += fam + "_bucket{" + labels + sep + "le=\"+Inf\"} " +
               std::to_string(entry.histogram->Count()) + "\n";
        out += fam + "_sum" + (labels.empty() ? "" : "{" + labels + "}") + " " +
               std::to_string(entry.histogram->Sum()) + "\n";
        out += fam + "_count" + (labels.empty() ? "" : "{" + labels + "}") + " " +
               std::to_string(entry.histogram->Count()) + "\n";
        break;
      }
    }
  }
  return out;
}

MetricsExporter::MetricsExporter(MetricsRegistry* registry, MetricsExporterOptions options)
    : registry_(registry), options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::Start() {
  {
    fdp::MutexLock lock(&mu_);
    if (running_) {
      return;
    }
    running_ = true;
    stop_ = false;
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ >= 0) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(listen_fd_, 4) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }
  }
  thread_ = std::thread([this] { Loop(); });
}

void MetricsExporter::Stop() {
  {
    fdp::MutexLock lock(&mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) {
    thread_.join();
  }
  // Final snapshot so a completed run always leaves fresh numbers on disk.
  WriteSnapshot(registry_->RenderPrometheus());
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  fdp::MutexLock lock(&mu_);
  running_ = false;
}

void MetricsExporter::Loop() {
  for (;;) {
    // Between snapshots: serve socket connections if configured, else sleep.
    if (listen_fd_ >= 0) {
      const int interval = static_cast<int>(options_.interval_ms);
      int waited = 0;
      while (waited < interval) {
        {
          fdp::MutexLock lock(&mu_);
          if (stop_) {
            return;
          }
        }
        pollfd pfd{listen_fd_, POLLIN, 0};
        int slice = std::min(100, interval - waited);
        int rc = ::poll(&pfd, 1, slice);
        waited += slice;
        if (rc > 0 && (pfd.revents & POLLIN) != 0) {
          int conn = ::accept(listen_fd_, nullptr, nullptr);
          if (conn >= 0) {
            std::string text = registry_->RenderPrometheus();
            size_t off = 0;
            while (off < text.size()) {
              ssize_t n = ::write(conn, text.data() + off, text.size() - off);
              if (n <= 0) {
                break;
              }
              off += static_cast<size_t>(n);
            }
            ::close(conn);
          }
        }
      }
    } else {
      fdp::MutexLock lock(&mu_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(options_.interval_ms);
      while (!stop_) {
        if (!cv_.WaitUntil(&mu_, deadline)) {
          break;  // Interval elapsed without a stop signal: snapshot below.
        }
      }
      if (stop_) {
        return;
      }
    }
    WriteSnapshot(registry_->RenderPrometheus());
  }
}

void MetricsExporter::WriteSnapshot(const std::string& text) {
  if (options_.file_path.empty()) {
    return;
  }
  const std::string tmp = options_.file_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  // rename() is atomic: readers tailing the file never see a torn snapshot.
  std::rename(tmp.c_str(), options_.file_path.c_str());
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace fdpcache
