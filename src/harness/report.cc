#include "src/harness/report.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/harness/concurrent_replay.h"

namespace fdpcache {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TextTable::ToString() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out << (c == 0 ? "" : "  ") << cell << std::string(widths[c] - cell.size(), ' ');
    }
    out << "\n";
  };
  emit_row(headers_);
  size_t total = 0;
  for (const size_t w : widths) {
    total += w + 2;
  }
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatPercent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string FormatNsAsUs(uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatDlwaSeries(const std::string& label, const std::vector<double>& series,
                             double max_scale) {
  std::ostringstream out;
  int i = 0;
  for (const double dlwa : series) {
    const int bars =
        static_cast<int>(std::clamp(dlwa, 0.0, max_scale) / max_scale * 40.0);
    out << label << " t" << (i < 10 ? "0" : "") << i << "  dlwa=" << FormatDouble(dlwa, 3)
        << "  |" << std::string(bars, '#') << std::string(40 - bars, ' ') << "|\n";
    ++i;
  }
  return out.str();
}

std::string SummarizeReport(const std::string& label, const MetricsReport& r) {
  std::ostringstream out;
  out << label << ": dlwa=" << FormatDouble(r.final_dlwa, 3)
      << " alwa=" << FormatDouble(r.alwa, 2) << " hit=" << FormatPercent(r.hit_ratio)
      << " nvm_hit=" << FormatPercent(r.nvm_hit_ratio)
      << " kops=" << FormatDouble(r.throughput_kops, 1)
      << " p99r=" << FormatNsAsUs(r.p99_read_ns) << " p99w=" << FormatNsAsUs(r.p99_write_ns)
      << " gc_events=" << r.gc_events;
  return out.str();
}

std::string SummarizeConcurrentReport(const std::string& label,
                                      const ConcurrentReplayReport& r) {
  std::ostringstream out;
  out << label << ": ops=" << r.ops_executed
      << " kops/s=" << FormatDouble(r.throughput_ops_per_sec / 1000.0, 1)
      << " hit=" << FormatPercent(r.cache.HitRatio())
      << " nvm_hit=" << FormatPercent(r.cache.NvmHitRatio())
      << " p50g=" << FormatNsAsUs(r.get_latency_ns.Percentile(50.0))
      << " p99g=" << FormatNsAsUs(r.get_latency_ns.Percentile(99.0))
      << " p99s=" << FormatNsAsUs(r.set_latency_ns.Percentile(99.0))
      << " imbalance=" << FormatDouble(r.shard_imbalance, 2);
  return out.str();
}

namespace {

// The label set of one element of a per-QP, per-lane, per-RUH, ... array.
std::string IndexLabel(const char* key, size_t index) {
  return std::string("{") + key + "=\"" + std::to_string(index) + "\"}";
}

}  // namespace

std::vector<obs::MetricSample> ReportSamples(const MetricsReport& r) {
  std::vector<obs::MetricSample> out;
  const auto counter = [&out](std::string name, uint64_t v) {
    out.push_back(obs::MetricSample::Counter(std::move(name), v));
  };
  const auto gauge = [&out](std::string name, double v) {
    out.push_back(obs::MetricSample::Gauge(std::move(name), v));
  };
  // A percentile is a gauge labelled the way a Prometheus summary labels its
  // quantiles, after the element's own label, if any.
  const auto quantile = [&gauge](const std::string& family, const char* q, uint64_t v,
                                 const std::string& element = "") {
    const std::string head = element.empty() ? "{" : element.substr(0, element.size() - 1) + ",";
    gauge(family + head + "quantile=\"" + q + "\"}", static_cast<double>(v));
  };

  counter("fdpcache_cache_gets", r.gets);
  counter("fdpcache_cache_sets", r.sets);
  counter("fdpcache_cache_ram_hits", r.ram_hits);
  counter("fdpcache_cache_nvm_lookups", r.nvm_lookups);
  counter("fdpcache_cache_nvm_hits", r.nvm_hits);
  counter("fdpcache_cache_misses", r.misses);
  gauge("fdpcache_cache_hit_ratio", r.hit_ratio);
  gauge("fdpcache_cache_nvm_hit_ratio", r.nvm_hit_ratio);
  gauge("fdpcache_cache_alwa", r.alwa);
  gauge("fdpcache_cache_soc_write_share", r.soc_write_share);
  gauge("fdpcache_cache_flash_bytes", static_cast<double>(r.cache_bytes));
  gauge("fdpcache_cache_ram_bytes", static_cast<double>(r.ram_bytes));
  gauge("fdpcache_cache_pending_ops", static_cast<double>(r.pending_ops));
  for (size_t i = 0; i < r.pending_cache_ops.size(); ++i) {
    gauge("fdpcache_tenant_pending_ops" + IndexLabel("tenant", i),
          static_cast<double>(r.pending_cache_ops[i]));
  }
  gauge("fdpcache_epoch_limbo_nodes", static_cast<double>(r.epoch_limbo_nodes));
  gauge("fdpcache_epoch_active_readers", static_cast<double>(r.epoch_active_readers));

  DeviceStats device;
  for (const QueuePairStats& qp : r.device_queue_pairs) {
    device.Merge(qp);
  }
  counter("fdpcache_device_reads", device.reads);
  counter("fdpcache_device_writes", device.writes);
  counter("fdpcache_device_read_bytes", device.read_bytes);
  counter("fdpcache_device_write_bytes", device.write_bytes);
  gauge("fdpcache_device_in_flight", static_cast<double>(r.device_in_flight));
  gauge("fdpcache_device_page_bytes", static_cast<double>(r.device_page_bytes));
  gauge("fdpcache_device_physical_bytes", static_cast<double>(r.device_physical_bytes));
  quantile("fdpcache_device_read_latency_ns", "0.5", r.p50_read_ns);
  quantile("fdpcache_device_read_latency_ns", "0.99", r.p99_read_ns);
  quantile("fdpcache_device_read_latency_ns", "0.999", r.p999_read_ns);
  quantile("fdpcache_device_write_latency_ns", "0.5", r.p50_write_ns);
  quantile("fdpcache_device_write_latency_ns", "0.99", r.p99_write_ns);
  quantile("fdpcache_device_write_latency_ns", "0.999", r.p999_write_ns);
  for (size_t i = 0; i < r.device_queue_pairs.size(); ++i) {
    const QueuePairStats& qp = r.device_queue_pairs[i];
    const std::string l = IndexLabel("qp", i);
    counter("fdpcache_qp_reads" + l, qp.reads);
    counter("fdpcache_qp_writes" + l, qp.writes);
    counter("fdpcache_qp_read_bytes" + l, qp.read_bytes);
    counter("fdpcache_qp_write_bytes" + l, qp.write_bytes);
    counter("fdpcache_qp_dispatched" + l, qp.dispatched);
    // Submissions that parked on the congestion window = window stalls.
    counter("fdpcache_qp_window_stalls" + l, qp.admission_waits);
    counter("fdpcache_qp_conflict_defers" + l, qp.conflict_defers);
    counter("fdpcache_qp_io_errors" + l, qp.io_errors);
    quantile("fdpcache_qp_read_latency_ns", "0.5", qp.read_latency_ns.Percentile(50.0), l);
    quantile("fdpcache_qp_read_latency_ns", "0.99", qp.read_latency_ns.Percentile(99.0), l);
    quantile("fdpcache_qp_write_latency_ns", "0.5", qp.write_latency_ns.Percentile(50.0), l);
    quantile("fdpcache_qp_write_latency_ns", "0.99", qp.write_latency_ns.Percentile(99.0), l);
    quantile("fdpcache_qp_depth", "0.5", qp.queue_depth.Percentile(50.0), l);
    gauge("fdpcache_qp_max_depth" + l, static_cast<double>(qp.queue_depth.Max()));
  }
  for (size_t i = 0; i < r.device_lanes.size(); ++i) {
    const LaneStats& lane = r.device_lanes[i];
    const std::string l = IndexLabel("lane", i);
    counter("fdpcache_lane_dispatches" + l, lane.dispatches);
    counter("fdpcache_lane_conflict_waits" + l, lane.conflict_waits);
    counter("fdpcache_lane_busy_ns" + l, lane.busy_ns);
    quantile("fdpcache_lane_depth", "0.5", lane.queue_depth.Percentile(50.0), l);
    gauge("fdpcache_lane_max_depth" + l, static_cast<double>(lane.queue_depth.Max()));
  }

  gauge("fdpcache_ssd_dlwa", r.final_dlwa);
  counter("fdpcache_ssd_host_bytes_written", r.host_bytes_written);
  counter("fdpcache_ssd_gc_events", r.gc_events);
  counter("fdpcache_ssd_clean_ru_erases", r.clean_ru_erases);
  gauge("fdpcache_ssd_op_energy_uj", r.op_energy_uj);
  gauge("fdpcache_ssd_total_energy_uj", r.total_energy_uj);
  gauge("fdpcache_ssd_wear_max_pe", r.wear_max_pe);
  for (size_t i = 0; i < r.interval_dlwa.size(); ++i) {
    gauge("fdpcache_ssd_interval_dlwa" + IndexLabel("sample", i), r.interval_dlwa[i]);
  }
  for (size_t i = 0; i < r.per_ruh_dlwa.size(); ++i) {
    gauge("fdpcache_ruh_dlwa" + IndexLabel("ruh", i), r.per_ruh_dlwa[i]);
  }
  for (size_t i = 0; i < r.per_die_busy_ns.size(); ++i) {
    counter("fdpcache_die_busy_ns" + IndexLabel("die", i), r.per_die_busy_ns[i]);
  }
  counter("fdpcache_gc_relocated_pages", r.gc_relocated_pages);
  counter("fdpcache_gc_bg_ticks", r.gc_bg_ticks);
  counter("fdpcache_gc_bg_migrated_pages", r.gc_bg_migrated_pages);
  counter("fdpcache_gc_bg_erases", r.gc_bg_erases);
  counter("fdpcache_gc_bg_deferred_ticks", r.gc_bg_deferred_ticks);
  counter("fdpcache_gc_bg_abandoned", r.gc_bg_abandoned);
  counter("fdpcache_gc_erase_suspensions", r.erase_suspensions);
  counter("fdpcache_gc_die_ns", r.gc_die_ns);
  counter("fdpcache_host_stall_ns", r.host_stall_ns);

  counter("fdpcache_run_ops", r.ops_executed);
  counter("fdpcache_run_elapsed_ns", r.elapsed_virtual_ns);
  gauge("fdpcache_run_throughput_kops", r.throughput_kops);
  gauge("fdpcache_run_overwrite_passes", r.overwrite_passes_done);
  counter("fdpcache_run_flush_failures", r.flush_failures);
  counter("fdpcache_run_verify_failures", r.verify_failures);

  if (r.traced) {
    const obs::TraceBreakdown& t = r.trace;
    counter("fdpcache_trace_requests", t.requests);
    counter("fdpcache_trace_events", t.events);
    counter("fdpcache_trace_dropped_events", t.dropped);
    counter("fdpcache_trace_request_ns", t.total_request_ns);
    counter("fdpcache_trace_attributed_ns", t.attributed_ns);
    counter("fdpcache_trace_unattributed_ns", t.unattributed_ns);
    quantile("fdpcache_trace_request_latency_ns", "0.5", t.request_p50_ns);
    for (size_t i = 0; i < obs::kNumTraceStages; ++i) {
      const obs::TraceStageBreakdown& row = t.stages[i];
      const std::string l = std::string("{stage=\"") +
                            obs::TraceStageName(static_cast<obs::TraceStage>(i)) + "\"}";
      counter("fdpcache_trace_stage_spans" + l, row.spans);
      counter("fdpcache_trace_stage_raw_ns" + l, row.raw_ns);
      counter("fdpcache_trace_stage_exclusive_ns" + l, row.exclusive_ns);
    }
  }
  return out;
}

double BenchScale() {
  const char* env = std::getenv("FDPBENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  // Refuse rather than clamp: a NaN would turn every scaled op count into an
  // undefined float-to-integer cast, and text would silently run some other
  // scale.
  const std::string_view text = env;
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || !(v >= 0.1 && v <= 10.0)) {
    std::fprintf(stderr, "FDPBENCH_SCALE=%s: want a number in [0.1, 10]\n", env);
    std::exit(2);
  }
  return v;
}

}  // namespace fdpcache
