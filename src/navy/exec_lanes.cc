#include "src/navy/exec_lanes.h"

namespace fdpcache {

ExecLaneEngine::ExecLaneEngine(uint32_t num_lanes, uint64_t lane_stripe_bytes,
                               uint32_t lane_queue_depth,
                               std::function<IoResult(const IoRequest&)> execute,
                               std::function<void(const LaneTask&, const IoResult&)> complete)
    : stripe_bytes_(lane_stripe_bytes == 0 ? 1 : lane_stripe_bytes),
      lane_queue_depth_(lane_queue_depth),
      execute_(std::move(execute)),
      complete_(std::move(complete)) {
  const uint32_t n = num_lanes == 0 ? 1 : num_lanes;
  lanes_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    lanes_.push_back(std::make_unique<Lane>(i));
  }
  for (auto& lane : lanes_) {
    Lane* raw = lane.get();
    lane->worker = std::thread([this, raw] { WorkerLoop(*raw); });
  }
}

ExecLaneEngine::~ExecLaneEngine() { Stop(); }

void ExecLaneEngine::Dispatch(LaneTask task, bool promoted) {
  Lane& lane = *lanes_[RouteLane(task.request.offset)];
  {
    fdp::MutexLock lock(&lane.mu);
    while (!promoted && lane_queue_depth_ != 0 && lane.queue.size() >= lane_queue_depth_) {
      lane.space_cv.Wait(&lane.mu);
    }
    lane.queue.push_back(std::move(task));
    ++lane.stats.dispatches;
    if (promoted) {
      ++lane.stats.conflict_waits;
    }
    lane.stats.queue_depth.Record(lane.queue.size());
  }
  lane.work_cv.NotifyOne();
}

void ExecLaneEngine::WorkerLoop(Lane& lane) {
  for (;;) {
    LaneTask task;
    {
      fdp::MutexLock lock(&lane.mu);
      while (!lane.stop && lane.queue.empty()) {
        lane.work_cv.Wait(&lane.mu);
      }
      if (lane.queue.empty()) {
        return;  // Stopped, and everything queued here has run.
      }
      task = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    lane.space_cv.NotifyOne();
    const IoResult result = execute_(task.request);
    {
      // Account before publishing: once the completion is out, Drain() can
      // return and the caller may snapshot or reset these stats.
      fdp::MutexLock lock(&lane.mu);
      lane.stats.busy_ns += result.latency_ns;
    }
    complete_(task, result);
  }
}

void ExecLaneEngine::Stop() {
  for (auto& lane : lanes_) {
    {
      fdp::MutexLock lock(&lane->mu);
      lane->stop = true;
    }
    lane->work_cv.NotifyAll();
  }
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) {
      lane->worker.join();
    }
  }
}

std::vector<LaneStats> ExecLaneEngine::Stats() const {
  std::vector<LaneStats> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    fdp::MutexLock lock(&lane->mu);
    out.push_back(lane->stats);
  }
  return out;
}

void ExecLaneEngine::ResetStats() {
  for (auto& lane : lanes_) {
    fdp::MutexLock lock(&lane->mu);
    lane->stats = LaneStats{};
  }
}

}  // namespace fdpcache
