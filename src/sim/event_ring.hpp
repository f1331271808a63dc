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
// multiple of 1/kTickGrid (see world.cpp), so tick_of() is a monotone map
// from event times to int64 ticks and bucket number = tick / width.  Events
// within the ring horizon (buckets cur..cur+B-1) go straight to their
// bucket; farther events wait in a min-heap staging area and enter the ring
// as it advances, so arbitrarily sparse schedules stay correct (the ring
// jumps, it never scans empty epochs).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/model_params.hpp"

namespace lintime::sim {

/// Event times are snapped to this grid (resolution 1e-9 time units) by the
/// World; the ring relies on it only for monotone bucketing, never for
/// ordering (ordering compares the exact double).
constexpr double kTickGrid = 1e9;

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
  std::uint64_t id = 0;    ///< invoke_id / message_id / timer_id
  std::uint64_t slot = 0;  ///< kDeliver: payload arena slot
};

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
    const std::int64_t bn = tick_of(ev.when) / width_;
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
      const auto slot = static_cast<std::size_t>(bn) & mask_;
      ring_buckets()[slot].push_back(ev);
      set_occ(slot);
      ++ring_count_;
      return;
    }
    // Beyond the horizon.  Far pushes that arrive in nondecreasing key order
    // (the common case: a pre-scheduled open-loop arrival plan is generated
    // time-ascending) ride an O(1) append/consume FIFO lane; only the rare
    // out-of-order stragglers pay the staging heap's O(log n).
    if (far_fifo_pos_ == far_fifo_.size() || !ring_event_less(ev, far_fifo_.back())) {
      far_fifo_.push_back(ev);
      return;
    }
    far_.push(ev);
  }

  /// Removes and returns the smallest (when, order) event.  Throws
  /// std::logic_error when empty.
  RingEvent pop() {
    if (size_ == 0) throw std::logic_error("EventRing::pop: empty");
    while (cur_pos_ == cur_.size()) advance();
    --size_;
    return cur_[cur_pos_++];
  }

 private:
  [[nodiscard]] std::vector<std::vector<RingEvent>>& ring_buckets() {
    if (slots_.empty()) {
      slots_.resize(mask_ + 1);
      occ_.resize((mask_ + 64) / 64, 0);
    }
    return slots_;
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

  /// Earliest staged far event across the FIFO lane and the heap, or nullptr.
  [[nodiscard]] const RingEvent* far_front() const {
    const RingEvent* heap = far_.empty() ? nullptr : &far_.top();
    const RingEvent* fifo = far_fifo_pos_ < far_fifo_.size() ? &far_fifo_[far_fifo_pos_] : nullptr;
    if (heap == nullptr) return fifo;
    if (fifo == nullptr) return heap;
    return ring_event_less(*heap, *fifo) ? heap : fifo;
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
      cur_num_ = tick_of(far_front()->when) / width_;
    } else {
      const auto from = static_cast<std::size_t>(cur_num_ + 1) & mask_;
      const std::size_t slot = next_occupied(from);
      const std::size_t distance = (slot + (mask_ + 1) - from) & mask_;
      std::int64_t next = cur_num_ + 1 + static_cast<std::int64_t>(distance);
      const RingEvent* far = far_front();
      if (far != nullptr) next = std::min(next, tick_of(far->when) / width_);
      cur_num_ = next;
    }
    // Stage-in: the jump exposed new buckets; move every staged event now in
    // range.  The limit is B-1 (not B) buckets ahead: staging runs before
    // this epoch's bucket is swapped out, so bucket cur_num_ + B would alias
    // the still-occupied slot of bucket cur_num_ and the far event would pop
    // a whole revolution early.  Staged buckets [cur_num_, cur_num_ + B - 1]
    // have distinct slot indices.
    const std::int64_t limit = cur_num_ + static_cast<std::int64_t>(mask_);
    while (!far_.empty() && tick_of(far_.top().when) / width_ <= limit) {
      const RingEvent& ev = far_.top();
      const auto slot = static_cast<std::size_t>(tick_of(ev.when) / width_) & mask_;
      ring_buckets()[slot].push_back(ev);
      set_occ(slot);
      ++ring_count_;
      far_.pop();
    }
    while (far_fifo_pos_ < far_fifo_.size() &&
           tick_of(far_fifo_[far_fifo_pos_].when) / width_ <= limit) {
      const RingEvent& ev = far_fifo_[far_fifo_pos_];
      const auto slot = static_cast<std::size_t>(tick_of(ev.when) / width_) & mask_;
      ring_buckets()[slot].push_back(ev);
      set_occ(slot);
      ++ring_count_;
      ++far_fifo_pos_;
    }
    if (far_fifo_pos_ == far_fifo_.size() && far_fifo_pos_ > 0) {
      far_fifo_.clear();
      far_fifo_pos_ = 0;
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
  std::priority_queue<RingEvent, std::vector<RingEvent>, FarGreater> far_;
  std::vector<RingEvent> far_fifo_;  ///< nondecreasing far pushes, consumed front-to-back
  std::size_t far_fifo_pos_ = 0;     ///< first unconsumed far_fifo_ index
  std::size_t size_ = 0;
};

}  // namespace lintime::sim
