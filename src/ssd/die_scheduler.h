// Die-level service-time scheduler.
//
// Each die is a FIFO server with a busy-until horizon in virtual time. Host
// and garbage-collection operations queue on the die that owns their physical
// page, so background GC directly inflates the tail latency of host commands
// that land behind it — the mechanism the paper measures in Figures 6 and 13.
#ifndef SRC_SSD_DIE_SCHEDULER_H_
#define SRC_SSD_DIE_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace fdpcache {

class DieScheduler {
 public:
  explicit DieScheduler(uint32_t num_dies)
      : busy_until_(num_dies, 0),
        busy_ns_(num_dies, 0),
        suspendable_tail_ns_(num_dies, 0) {}

  // Schedules an operation of `duration` on `die` not earlier than `now`;
  // returns its completion time.
  TimeNs Schedule(uint32_t die, TimeNs now, TimeNs duration) {
    const TimeNs start = std::max(now, busy_until_[die]);
    const TimeNs end = start + duration;
    busy_until_[die] = end;
    busy_ns_[die] += duration;
    suspendable_tail_ns_[die] = 0;  // Anything queued behind an erase pins it.
    return end;
  }

  // Schedules an erase, remembering that the tail of this die's horizon is
  // suspendable: NAND erases (~3 ms) support program/erase suspend, so a
  // later foreground read may preempt the erase instead of waiting it out.
  TimeNs ScheduleErase(uint32_t die, TimeNs now, TimeNs duration) {
    const TimeNs end = Schedule(die, now, duration);
    suspendable_tail_ns_[die] = duration;
    return end;
  }

  // Schedules a read that may suspend an in-progress erase: if the die's
  // horizon ends in a suspendable erase, the read slots in at the erase's
  // start (or `now`, if the erase already began) and the erase resumes after
  // it — total die-busy time grows by `duration` either way, but the read
  // completes early. Falls back to plain FIFO otherwise.
  TimeNs ScheduleSuspendableRead(uint32_t die, TimeNs now, TimeNs duration,
                                 bool* suspended) {
    if (suspendable_tail_ns_[die] > 0 && busy_until_[die] > now) {
      const TimeNs erase_start = busy_until_[die] - suspendable_tail_ns_[die];
      const TimeNs start = std::max(now, erase_start);
      const TimeNs end = start + duration;
      busy_until_[die] += duration;  // Erase remainder resumes after the read.
      busy_ns_[die] += duration;
      ++erase_suspensions_;
      *suspended = true;
      return end;
    }
    *suspended = false;
    return Schedule(die, now, duration);
  }

  // The die with the nearest horizon — the best home for a fresh RU's stripe.
  uint32_t ColdestDie() const {
    return static_cast<uint32_t>(
        std::min_element(busy_until_.begin(), busy_until_.end()) -
        busy_until_.begin());
  }

  uint64_t erase_suspensions() const { return erase_suspensions_; }

  TimeNs busy_until(uint32_t die) const { return busy_until_[die]; }

  // Accumulated active time of one die, for lane-vs-die utilization
  // cross-checks in telemetry.
  TimeNs busy_ns(uint32_t die) const { return busy_ns_[die]; }
  const std::vector<TimeNs>& per_die_busy_ns() const { return busy_ns_; }

  uint32_t num_dies() const { return static_cast<uint32_t>(busy_ns_.size()); }

  // The furthest-out completion across all dies; used for backpressure.
  TimeNs MaxBusyUntil() const { return *std::max_element(busy_until_.begin(), busy_until_.end()); }

  void Reset() {
    std::fill(busy_until_.begin(), busy_until_.end(), 0);
    std::fill(busy_ns_.begin(), busy_ns_.end(), 0);
    std::fill(suspendable_tail_ns_.begin(), suspendable_tail_ns_.end(), 0);
  }

 private:
  std::vector<TimeNs> busy_until_;
  std::vector<TimeNs> busy_ns_;
  // Duration of the suspendable erase at the tail of each die's horizon, or 0
  // when the horizon does not end in one.
  std::vector<TimeNs> suspendable_tail_ns_;
  uint64_t erase_suspensions_ = 0;
};

}  // namespace fdpcache

#endif  // SRC_SSD_DIE_SCHEDULER_H_
