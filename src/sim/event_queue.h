// Discrete-event engine.
//
// A minimal, deterministic future-event list: events at equal times run in
// scheduling order. The timed protocol engine (proto::ProtocolEngine) and
// the examples drive their state changes through this queue. The scenario
// replayer (sim::RunScenario) does not: it walks the scenario's
// time-sorted events and keeps its own re-protection retry heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace drtp::sim {

class EventQueue {
 public:
  /// Schedules `action` at absolute time `t` (>= now).
  void Schedule(Time t, std::function<void()> action) {
    DRTP_CHECK_MSG(t >= now_, "scheduling into the past: " << t << " < "
                                                           << now_);
    heap_.push_back(Item{t, next_seq_++, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Runs the earliest event; false when the queue is empty.
  bool RunNext() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Item item = std::move(heap_.back());
    heap_.pop_back();
    now_ = item.time;
    item.action();
    return true;
  }

  /// Runs every event with time <= t, then advances the clock to t.
  void RunUntil(Time t) {
    while (!heap_.empty() && heap_.front().time <= t) RunNext();
    if (t > now_) now_ = t;
  }

  /// Drains the queue completely.
  void RunAll() {
    while (RunNext()) {
    }
  }

  Time now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Item {
    Time time;
    std::uint64_t seq;
    std::function<void()> action;
  };

  /// Min-heap order on (time, seq): the comparator says "a runs after b",
  /// so std::push_heap/pop_heap keep the earliest event at front().
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // A plain vector managed with the <algorithm> heap primitives instead of
  // std::priority_queue: popping moves the item out of back() — no
  // const_cast of top() required.
  std::vector<Item> heap_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace drtp::sim
