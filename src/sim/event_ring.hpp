#pragma once
// EventRing: the simulator's contiguous calendar queue, and the World's only
// scheduler.
//
// Simulated time is monotone (nothing is ever scheduled in the past), so a
// calendar/bucket queue fits better than a binary heap, whose push and pop
// sift O(log n) elements: events land in flat per-bucket vectors by time
// bucket, buckets are sorted once when their turn comes, and push/pop are
// O(1) amortized appends and index bumps on contiguous storage.
//
// Ordering is ascending (when, tie_rank, seq), with tie_rank and the
// monotone FIFO sequence number packed into one 64-bit `order` key.  Because
// seq is unique the order is total, so the per-bucket std::sort is
// deterministic.  tests/sim/event_ring_test.cpp checks the pop sequence
// against a std::priority_queue ordered on the unpacked (when, tie_rank,
// seq) triple, over randomized interleavings of pushes and pops.
//
// Bucketing works on an integer tick grid: World snaps every event time to a
// multiple of 1/kTickGrid (snap() below), so tick_of() is a monotone map
// from event times to int64 ticks and bucket number = tick / width.  Events
// within the ring horizon (buckets cur..cur+B-1) go straight to their
// bucket; farther events wait and enter the ring as it advances, so
// arbitrarily sparse schedules stay correct (the ring jumps, it never scans
// empty epochs).  Two sources wait beyond the horizon: a min-heap staging
// area for far pushes, and an open-loop plan read in place (set_plan),
// whose calls become events only when their epoch comes near.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "adt/value.hpp"
#include "sim/model_params.hpp"

namespace lintime::sim {

/// Event times are snapped to this grid (resolution 1e-9 time units) by the
/// World; the ring relies on it only for monotone bucketing, never for
/// ordering (ordering compares the exact double).
constexpr double kTickGrid = 1e9;

/// The grid point nearest `t`.  Every event time is snapped so that
/// boundaries that are mathematically equal but computed along different
/// floating-point addition paths (e.g. a response at t0 + (d+eps) + (X+eps)
/// vs. an invocation at (t0 + X+eps) + (d+eps)) compare exactly equal.  The
/// paper's model works over the reals where such boundaries coincide;
/// without snapping, one-ulp differences create spurious real-time
/// precedence edges that contradict the timestamp tie-breaking and make
/// correct runs look non-linearizable.
[[nodiscard]] inline Time snap(Time t) { return std::round(t * kTickGrid) / kTickGrid; }

/// The three event kinds of the model (Section 2.2).
enum class EventKind { kDeliver = 0, kTimer = 1, kInvoke = 2 };

/// One scheduled event.  Payloads live in the World's typed side arenas;
/// the ring entry carries only the dispatch key (`id`) and, for deliveries,
/// the arena slot of the (possibly broadcast-shared) message payload.
struct RingEvent {
  Time when = 0;            ///< snapped event time
  std::uint64_t order = 0;  ///< (tie_rank << 62) | seq -- FIFO tie-break
  EventKind kind = EventKind::kInvoke;
  ProcId proc = 0;
  std::uint64_t id = 0;    ///< invoke id or plan index / message id / timer id
  std::uint64_t slot = 0;  ///< kDeliver: payload arena slot; kInvoke: kPlanSlot or 0
};

/// One open-loop invocation: `op(arg)` at process `proc` at real time
/// `when`.  An open-loop plan is a vector of these, which the World reads in
/// place (World::set_plan); harness::Call is this struct.
struct Call {
  Time when = 0;
  ProcId proc = 0;
  std::string op;
  adt::Value arg;
};

/// RingEvent::slot of a kInvoke whose `id` indexes the open-loop plan; an
/// invocation scheduled by World::invoke_at carries slot 0 and its invoke
/// id.
constexpr std::uint64_t kPlanSlot = 1;

/// Packs the (tie_rank, seq) tie-break into RingEvent::order.
[[nodiscard]] constexpr std::uint64_t ring_order(int tie_rank, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(tie_rank) << 62) | seq;
}

[[nodiscard]] inline bool ring_event_less(const RingEvent& a, const RingEvent& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.order < b.order;
}

class EventRing {
 public:
  /// `bucket_width_ticks` is the time span of one bucket on the tick grid;
  /// `buckets` (a power of two) fixes the ring horizon at width * buckets.
  /// width_for() picks a width putting a handful of buckets per message
  /// delay, which keeps bucket occupancy small for the workloads the World
  /// generates.
  explicit EventRing(std::int64_t bucket_width_ticks = 1 << 22, std::size_t buckets = 1024)
      : width_(bucket_width_ticks) {
    if (width_ <= 0) throw std::invalid_argument("EventRing: bucket width must be positive");
    if (buckets == 0 || (buckets & (buckets - 1)) != 0) {
      throw std::invalid_argument("EventRing: bucket count must be a power of two");
    }
    mask_ = buckets - 1;
  }

  /// Bucket width covering the horizon [now, now + 4d] with the full ring.
  [[nodiscard]] static std::int64_t width_for(double d, std::size_t buckets = 1024) {
    const auto ticks = static_cast<std::int64_t>(std::llround(d * kTickGrid));
    const auto width = ticks / static_cast<std::int64_t>(buckets / 4);
    return width > 0 ? width : 1;
  }

  /// Monotone map from snapped event times to bucket-grid ticks.  Times are
  /// nonnegative in every run; negative inputs clamp to 0, which degrades to
  /// a sorted-merge into the current bucket and never reorders.
  [[nodiscard]] static std::int64_t tick_of(Time when) {
    const auto t = static_cast<std::int64_t>(std::llround(when * kTickGrid));
    return t > 0 ? t : 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(RingEvent ev) {
    const std::int64_t bn = bucket_of(ev.when);
    ++size_;
    if (bn <= cur_num_) {
      // Lands in the bucket being drained (zero-delay timer, same-time
      // invoke from a response hook): merge into the sorted remainder so it
      // pops in key order among the still-pending events, as a priority
      // queue would pop a push made during dispatch.
      const auto it = std::upper_bound(cur_.begin() + static_cast<std::ptrdiff_t>(cur_pos_),
                                       cur_.end(), ev, ring_event_less);
      cur_.insert(it, ev);
      return;
    }
    if (bn <= cur_num_ + static_cast<std::int64_t>(mask_ + 1)) {
      stage(ev, bn);
      return;
    }
    far_.push(ev);  // beyond the horizon
  }

  /// Removes and returns the smallest (when, order) event.  Throws
  /// std::logic_error when empty.
  RingEvent pop() {
    if (size_ == 0) throw std::logic_error("EventRing::pop: empty");
    while (cur_pos_ == cur_.size()) advance();
    --size_;
    return cur_[cur_pos_++];
  }

  /// Schedules the open-loop plan calls[0, size) without copying it.  Call i
  /// pops as the event that pushing it now would make: kInvoke at
  /// snap(when) with order first_order + i, its proc, id i and kPlanSlot.
  /// That event is built only when the horizon reaches its epoch, so until
  /// then the call costs the ring nothing, unless the plan is not sorted by
  /// snapped time: then the ring keeps the plan's time order, 4 bytes per
  /// call.  The calls must stay valid and unchanged until the last of them
  /// pops.  One plan per ring, set before the first pop.
  void set_plan(const Call* calls, std::size_t size, std::uint64_t first_order) {
    if (plan_size_ != 0 || cur_num_ >= 0) {
      throw std::logic_error("EventRing::set_plan: one plan, set before the first pop");
    }
    const auto earlier = [](const Call& a, const Call& b) { return snap(a.when) < snap(b.when); };
    if (!std::is_sorted(calls, calls + size, earlier)) {
      if (size > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("EventRing::set_plan: unsorted plan too large");
      }
      plan_order_.resize(size);
      std::iota(plan_order_.begin(), plan_order_.end(), std::uint32_t{0});
      std::stable_sort(plan_order_.begin(), plan_order_.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return earlier(calls[a], calls[b]);
                       });
    }
    plan_ = calls;
    plan_size_ = size;
    plan_first_order_ = first_order;
    size_ += size;
  }

  /// The plan's call `i`: the call a kPlanSlot event with id i invokes.
  [[nodiscard]] const Call& plan_call(std::uint64_t i) const { return plan_[i]; }

  /// Plan calls that have not yet entered the ring.
  [[nodiscard]] std::size_t plan_unstaged() const { return plan_size_ - plan_pos_; }

 private:
  [[nodiscard]] std::vector<std::vector<RingEvent>>& ring_buckets() {
    if (slots_.empty()) {
      slots_.resize(mask_ + 1);
      occ_.resize((mask_ + 64) / 64, 0);
    }
    return slots_;
  }

  [[nodiscard]] std::int64_t bucket_of(Time when) const { return tick_of(when) / width_; }

  /// Files `ev` under its ring bucket `bn`, within the horizon.
  void stage(const RingEvent& ev, std::int64_t bn) {
    const auto slot = static_cast<std::size_t>(bn) & mask_;
    ring_buckets()[slot].push_back(ev);
    set_occ(slot);
    ++ring_count_;
  }

  void set_occ(std::size_t slot) { occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63); }
  void clear_occ(std::size_t slot) { occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63)); }

  /// First occupied slot at or cyclically after `from`.  Only called with
  /// ring_count_ > 0, so some bit is set.
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const {
    const std::size_t nwords = occ_.size();
    std::size_t w = from >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t i = 0; i <= nwords; ++i) {
      if (word != 0) return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      w = w + 1 == nwords ? 0 : w + 1;
      word = occ_[w];
    }
    throw std::logic_error("EventRing::next_occupied: no occupied bucket");
  }

  /// The plan's call at position `pos` of its time order.
  [[nodiscard]] std::size_t plan_index(std::size_t pos) const {
    return plan_order_.empty() ? pos : plan_order_[pos];
  }

  /// Bucket of the earliest event waiting beyond the horizon (staging heap
  /// or plan), or INT64_MAX when none waits.
  [[nodiscard]] std::int64_t far_bucket() const {
    std::int64_t bn = std::numeric_limits<std::int64_t>::max();
    if (!far_.empty()) bn = bucket_of(far_.top().when);
    if (plan_pos_ < plan_size_) {
      bn = std::min(bn, bucket_of(snap(plan_[plan_index(plan_pos_)].when)));
    }
    return bn;
  }

  void advance() {
    cur_.clear();
    cur_pos_ = 0;
    // Jump straight to the next bucket holding an event instead of crawling
    // epoch by epoch: sparse schedules (open-loop arrival plans spread over
    // millions of ticks) would otherwise pay an advance per EMPTY bucket.
    // The occupancy bitmap gives the next resident ring bucket; the staging
    // area caps the jump so far events are staged before their epoch.
    if (ring_count_ == 0) {
      cur_num_ = far_bucket();
    } else {
      const auto from = static_cast<std::size_t>(cur_num_ + 1) & mask_;
      const std::size_t slot = next_occupied(from);
      const std::size_t distance = (slot + (mask_ + 1) - from) & mask_;
      cur_num_ = std::min(cur_num_ + 1 + static_cast<std::int64_t>(distance), far_bucket());
    }
    // Stage-in: the jump exposed new buckets; move every staged event now in
    // range.  The limit is B-1 (not B) buckets ahead: staging runs before
    // this epoch's bucket is swapped out, so bucket cur_num_ + B would alias
    // the still-occupied slot of bucket cur_num_ and the far event would pop
    // a whole revolution early.  Staged buckets [cur_num_, cur_num_ + B - 1]
    // have distinct slot indices.
    const std::int64_t limit = cur_num_ + static_cast<std::int64_t>(mask_);
    while (!far_.empty() && bucket_of(far_.top().when) <= limit) {
      stage(far_.top(), bucket_of(far_.top().when));
      far_.pop();
    }
    // Plan calls enter in time order, so the first one beyond the limit ends
    // the stage-in.
    for (; plan_pos_ < plan_size_; ++plan_pos_) {
      const std::size_t i = plan_index(plan_pos_);
      RingEvent ev;
      ev.when = snap(plan_[i].when);
      const std::int64_t bn = bucket_of(ev.when);
      if (bn > limit) break;
      ev.order = plan_first_order_ + i;
      ev.kind = EventKind::kInvoke;
      ev.proc = plan_[i].proc;
      ev.id = i;
      ev.slot = kPlanSlot;
      stage(ev, bn);
    }
    const auto cur_slot = static_cast<std::size_t>(cur_num_) & mask_;
    auto& bucket = ring_buckets()[cur_slot];
    if (!bucket.empty()) {
      cur_.swap(bucket);
      clear_occ(cur_slot);
      ring_count_ -= cur_.size();
      std::sort(cur_.begin(), cur_.end(), ring_event_less);
    }
  }

  struct FarGreater {
    bool operator()(const RingEvent& a, const RingEvent& b) const {
      return ring_event_less(b, a);
    }
  };

  std::int64_t width_;
  std::size_t mask_ = 0;
  std::vector<std::vector<RingEvent>> slots_;  ///< lazily sized ring of buckets
  std::vector<std::uint64_t> occ_;             ///< per-slot occupancy bits
  std::vector<RingEvent> cur_;                 ///< sorted events of bucket cur_num_
  std::size_t cur_pos_ = 0;
  std::int64_t cur_num_ = -1;   ///< bucket number loaded into cur_
  std::size_t ring_count_ = 0;  ///< events held in slots_
  /// Pushes beyond the horizon, staged in as the ring advances.
  std::priority_queue<RingEvent, std::vector<RingEvent>, FarGreater> far_;
  const Call* plan_ = nullptr;  ///< the open-loop plan, read in place
  std::size_t plan_size_ = 0;
  std::size_t plan_pos_ = 0;               ///< next position in time order to stage
  std::vector<std::uint32_t> plan_order_;  ///< time order of an unsorted plan; else empty
  std::uint64_t plan_first_order_ = 0;     ///< RingEvent::order of call 0
  std::size_t size_ = 0;  ///< events held, plan calls not yet staged included
};

}  // namespace lintime::sim
