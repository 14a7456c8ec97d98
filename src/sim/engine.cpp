#include "sim/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ncs::sim {

namespace {

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > kU64Max - b ? kU64Max : a + b;
}

EventId pack_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

// Relative cost of one sorted-insert walk step (a dependent load from a
// scattered event node) versus one find_min empty-bucket probe (a
// streaming read of the bucket array) in the shared wasted_steps_ budget.
constexpr std::uint64_t kWalkWeight = 8;

}  // namespace

Engine::Engine(QueueKind kind) : kind_(kind) {
  if (kind_ == QueueKind::calendar) {
    buckets_.resize(kMinBuckets);
    // Seed width: 1 us. Arbitrary but harmless — the first resize (at 2 *
    // kMinBuckets pending events) replaces it with the measured gap.
    width_ps_ = 1'000'000;
    overflow_limit_ps_ = width_ps_ * static_cast<std::int64_t>(kMinBuckets);
  }
}

Engine::~Engine() = default;

// --- arena ---

Engine::Event* Engine::alloc_event() {
  if (free_head_ == nullptr) {
    auto slab = std::make_unique<Event[]>(kSlabEvents);
    for (std::size_t i = 0; i < kSlabEvents; ++i) {
      Event& e = slab[i];
      e.slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(&e);
      e.next = free_head_;
      free_head_ = &e;
    }
    slabs_.push_back(std::move(slab));
  }
  Event* e = free_head_;
  free_head_ = e->next;
  e->next = nullptr;
  return e;
}

void Engine::free_event(Event* e) {
  e->fn = nullptr;  // run the capture's destructor now, not at slot reuse
  e->queued = false;
  e->in_overflow = false;
  // Bump the generation so every outstanding id for this slot goes stale.
  if (++e->gen == 0) e->gen = 1;
  e->prev = nullptr;
  e->next = free_head_;
  free_head_ = e;
}

// --- bucket list maintenance ---

void Engine::bucket_insert(Event* e) {
  Bucket& b = buckets_[bucket_of(e->time_ps)];
  if (b.tail == nullptr) {
    b.head = b.tail = e;
    e->prev = e->next = nullptr;
    ++n_occupied_;
  } else if (!before(*e, *b.tail)) {
    // Fast path: at-or-after the tail. Same-time events always land here
    // (their seq is the largest yet), which keeps the FIFO tier O(1).
    e->prev = b.tail;
    e->next = nullptr;
    b.tail->next = e;
    b.tail = e;
  } else {
    Event* at = b.head;
    std::uint64_t steps = 0;
    while (before(*at, *e)) {
      at = at->next;  // tail check above bounds this
      ++steps;
    }
    // A couple of steps per insert is healthy; only the excess indicates a
    // too-wide bucket (many distinct instants chained in one list). Each
    // step is a cold pointer chase through scattered nodes — as expensive
    // as a rebuild moving one node — so it weighs kWalkWeight times an
    // empty-bucket probe, which only streams the bucket array. A misfit
    // that shows up as long walks then refits after ~n_pending of them
    // (one rebuild's worth of damage), not after 8x that.
    stats_.insert_steps += steps;
    if (steps > 2) wasted_steps_ += kWalkWeight * (steps - 2);
    e->next = at;
    e->prev = at->prev;
    at->prev = e;
    if (e->prev != nullptr) {
      e->prev->next = e;
    } else {
      b.head = e;
    }
  }
  e->queued = true;
}

void Engine::bucket_unlink(Event* e) {
  Bucket& b = buckets_[bucket_of(e->time_ps)];
  if (e->prev != nullptr) {
    e->prev->next = e->next;
  } else {
    b.head = e->next;
  }
  if (e->next != nullptr) {
    e->next->prev = e->prev;
  } else {
    b.tail = e->prev;
  }
  if (b.head == nullptr) --n_occupied_;
  e->queued = false;
}

// --- far-future overflow bag (unordered, swap-remove) ---

void Engine::overflow_push(Event* e) {
  e->ovf_idx = static_cast<std::uint32_t>(overflow_.size());
  overflow_.push_back(e);
  e->queued = true;
  e->in_overflow = true;
  ++n_overflow_;
}

void Engine::overflow_unlink(Event* e) {
  Event* last = overflow_.back();
  overflow_[e->ovf_idx] = last;
  last->ovf_idx = e->ovf_idx;
  overflow_.pop_back();
  e->queued = false;
  e->in_overflow = false;
  --n_overflow_;
}

void Engine::migrate_overflow() {
  NCS_ASSERT(n_calendar_ == 0 && n_overflow_ != 0);
  // One refit re-fits the geometry to the parked population and re-anchors
  // the year at its earliest event, which always lands in the calendar.
  rebuild();
  NCS_ASSERT(n_calendar_ != 0);
}

// --- scheduling ---

EventId Engine::schedule_at(TimePoint t, EventFn fn) {
  NCS_ASSERT_MSG(t >= now_, "scheduling an event in the past");
  NCS_ASSERT(fn != nullptr);
  const std::uint64_t seq = next_seq_++;
  ++stats_.scheduled;

  if (kind_ == QueueKind::legacy_map) {
    legacy_queue_.emplace(LegacyKey{t, seq}, std::move(fn));
    legacy_by_seq_.emplace(seq, t);
    stats_.peak_pending = std::max(stats_.peak_pending, legacy_queue_.size());
    return seq;
  }

  Event* e = alloc_event();
  e->time_ps = t.ps();
  e->seq = seq;
  e->fn = std::move(fn);
  ++n_pending_;  // before maybe_resize: rebuild() checks it against reality
  stats_.peak_pending = std::max(stats_.peak_pending, n_pending_);
  // pack_id inputs are stable across a rebuild (it moves nodes, not slots),
  // so the id can be formed before the insert triggers one.
  const EventId id = pack_id(e->slot, e->gen);
  if (e->time_ps >= overflow_limit_ps_) {
    overflow_push(e);
  } else {
    bucket_insert(e);
    ++n_calendar_;
    if (cached_min_bucket_ >= 0) {
      const Event* cached = buckets_[static_cast<std::size_t>(cached_min_bucket_)].head;
      // An earlier key than the cached global min is the new min — and is
      // by definition the head of its own bucket.
      if (cached == nullptr || before(*e, *cached))
        cached_min_bucket_ = static_cast<int>(bucket_of(e->time_ps));
    }
    maybe_resize();
  }
  return id;
}

bool Engine::cancel(EventId id) {
  if (kind_ == QueueKind::legacy_map) {
    const auto idx = legacy_by_seq_.find(id);
    if (idx == legacy_by_seq_.end()) return false;  // already fired or cancelled
    const auto it = legacy_queue_.find(LegacyKey{idx->second, id});
    NCS_ASSERT(it != legacy_queue_.end());
    legacy_queue_.erase(it);
    legacy_by_seq_.erase(idx);
    ++stats_.cancelled;
    return true;
  }

  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Event* e = slots_[slot];
  // Fired, already cancelled, or the slot has been reused since: stale.
  if (!e->queued || e->gen != gen) return false;
  --n_pending_;  // before maybe_resize: rebuild() checks it against reality
  ++stats_.cancelled;
  if (e->in_overflow) {
    overflow_unlink(e);
    free_event(e);
  } else {
    if (cached_min_bucket_ >= 0 &&
        buckets_[static_cast<std::size_t>(cached_min_bucket_)].head == e)
      cached_min_bucket_ = -1;
    bucket_unlink(e);
    --n_calendar_;
    free_event(e);  // before maybe_resize: a freed node must not be refiled
    maybe_resize();
  }
  return true;
}

// --- dequeue ---

Engine::Event* Engine::find_min() {
  if (cached_min_bucket_ >= 0) {
    Event* h = buckets_[static_cast<std::size_t>(cached_min_bucket_)].head;
    NCS_ASSERT(h != nullptr);
    return h;
  }
  if (n_calendar_ == 0) {
    if (n_overflow_ == 0) return nullptr;
    migrate_overflow();  // guarantees n_calendar_ > 0: the anchor event moves
  } else if (wasted_steps_ > 256 + kWalkWeight * n_pending_) {
    // Drain phases pop without scheduling, so maybe_resize never runs;
    // check the waste budget here too or a miss-fitted table keeps paying
    // full empty-bucket scans per pop to the end.
    rebuild();
  }

  const auto width = static_cast<std::uint64_t>(width_ps_);
  const std::size_t mask = buckets_.size() - 1;
  std::uint64_t epoch = static_cast<std::uint64_t>(now_.ps()) / width;
  std::size_t b = epoch & mask;
  // Upper time bound of bucket b's current-year window. Events in earlier
  // windows cannot exist (nothing is scheduled in the past), so the first
  // head inside its window is the global minimum.
  std::uint64_t top = saturating_add(epoch, 1) > kU64Max / width
                          ? kU64Max
                          : (epoch + 1) * width;
  for (std::size_t visited = 0; visited < buckets_.size(); ++visited) {
    const Event* h = buckets_[b].head;
    if (h != nullptr && static_cast<std::uint64_t>(h->time_ps) < top) {
      cached_min_bucket_ = static_cast<int>(b);
      stats_.bucket_probes += visited;
      // Skipping a couple of empty buckets per pop is the healthy steady
      // state of a ~half-occupied table; only the excess is waste.
      if (visited > 2) wasted_steps_ += visited - 2;
      return buckets_[b].head;
    }
    b = (b + 1) & mask;
    top = saturating_add(top, width);
  }

  // Sparse tail: nothing within a full year of `now`. Direct-search the
  // bucket heads (each bucket is sorted, so the min is one of them).
  wasted_steps_ += buckets_.size();
  stats_.bucket_probes += 2 * buckets_.size();  // the year scan above + this search
  Event* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    Event* h = buckets_[i].head;
    if (h != nullptr && (best == nullptr || before(*h, *best))) {
      best = h;
      best_bucket = i;
    }
  }
  NCS_ASSERT(best != nullptr);
  cached_min_bucket_ = static_cast<int>(best_bucket);
  return best;
}

void Engine::pop(Event* e) {
  // Same-instant storm fast path: the event right behind the popped min in
  // its FIFO chain carries the identical timestamp, so it *is* the next
  // global min — keep the cache instead of rescanning from `now`.
  const bool next_is_min = e->next != nullptr && e->next->time_ps == e->time_ps;
  bucket_unlink(e);
  --n_pending_;
  --n_calendar_;
  if (!next_is_min) cached_min_bucket_ = -1;
}

// --- geometry adaptation ---

void Engine::maybe_resize() {
  // Refit only when the current geometry has demonstrably wasted as much
  // work as a refit costs. Population- or occupancy-threshold triggers are
  // deliberately absent: they fire on workload phase swings that the
  // geometry handles fine (same-instant ties are O(1) regardless of
  // count), and a trigger that can fire at a fixpoint rebuilds forever.
  if (wasted_steps_ > 256 + kWalkWeight * n_pending_) rebuild();
}

void Engine::rebuild() {
  ++stats_.resizes;

  // Detach every pending node — buckets and overflow both — into one
  // packed (time, seq, node) array and sort it — see Refile in the
  // header. The stride sample the geometry fit reads below then consists
  // of exact population percentiles, and the whole procedure is
  // deterministic: identical runs make identical geometry decisions.
  refile_scratch_.clear();
  for (Bucket& b : buckets_) {
    for (Event* e = b.head; e != nullptr; e = e->next)
      refile_scratch_.push_back({e->time_ps, e->seq, e});
    b.head = b.tail = nullptr;
  }
  for (Event* e : overflow_) {
    e->in_overflow = false;
    refile_scratch_.push_back({e->time_ps, e->seq, e});
  }
  overflow_.clear();
  n_calendar_ = 0;
  n_overflow_ = 0;
  std::sort(refile_scratch_.begin(), refile_scratch_.end(),
            [](const Refile& a, const Refile& b) {
              return a.time_ps != b.time_ps ? a.time_ps < b.time_ps : a.seq < b.seq;
            });
  const std::size_t n = refile_scratch_.size();
  NCS_ASSERT(n == n_pending_);
  const std::size_t stride = n <= kMaxSample ? 1 : n / kMaxSample;
  const std::size_t s = n == 0 ? 0 : (n - 1) / stride + 1;
  const auto sample = [&](std::size_t j) { return refile_scratch_[j * stride].time_ps; };

  // Bucket width: the average gap between the earliest pending events
  // (Brown's estimate, times 3 so a bucket holds a few events), with two
  // refinements for simulation workloads whose timestamps are heavily
  // *quantized* (whole hosts acting at the same microsecond-aligned
  // instant, cell trains on a sub-microsecond lattice):
  //
  //  - The average runs over the earliest ~32 *distinct* instants but is
  //    deflated by the raw events they span, so a bucket targets ~3
  //    events, not 3 tie runs. A raw 32-sample can sit entirely inside one
  //    tie run and see no spacing signal at all (the old `avg_gap <= 0 ->
  //    width 1 ps` fallback then aliased every lattice event into the few
  //    buckets dividing the table size).
  //
  //  - The width is floored at the smallest observed adjacent gap — the
  //    time quantum. On a lattice the deflated average lands far below the
  //    quantum, which would buy nothing (instants cannot be split) and
  //    waste a larger table. Width = quantum makes each bucket one
  //    instant; ties ride the O(1) tail append. For continuous workloads
  //    min-gap < average, so the floor is inert.
  //
  //  - When tie runs are material (>= 2 raw events per distinct instant)
  //    the width *is* the quantum, not 3x the deflated average. "A few
  //    raw events per bucket" is a meaningless target once events arrive
  //    in runs: a bucket then holds a couple of *instants*, and every
  //    insert of the later instant walks the earlier instant's whole run
  //    — cold pointer chases the waste budget duly trips on, whereupon
  //    this fit reproduces the same width and the rebuilds cycle without
  //    converging (measured: a mid-size bimodal mix rebuilt 758 times in
  //    a 200k-event run, ~3x slower than the fixed geometry). Instant
  //    gaps on beat-frequency lattices (cell trains at 3030 ns against
  //    microsecond ticks) are bimodal themselves, so only the quantum —
  //    not any average — separates the instants.
  constexpr std::int64_t kMaxWidth = INT64_MAX / 64;
  std::int64_t new_width = width_ps_;
  std::size_t i = 0;  // index of the last sampled instant the width saw
  if (s >= 2) {
    std::int64_t quantum = 0;
    std::size_t distinct = 1;
    for (i = 1; i < s && distinct < 32; ++i) {
      const std::int64_t gap = sample(i) - sample(i - 1);
      if (gap > 0) {
        // Mode boundary: a population too small to fill the 32-instant
        // sample from its near cluster alone would run the scan across
        // the dead gap to its far timer cluster, inflating the average by
        // the *inter-mode* distance (measured at P=4: width fit ~770 us
        // against a 2 us near lattice — the whole active window in one
        // bucket, a rebuild every ~8 events). A gap two orders beyond the
        // average *instant* spacing so far is that boundary, not spacing
        // signal: cut the sample there and fit the near mode only. The
        // far mode is the overflow bag's job. Instant spacing, not the
        // tie-deflated event average — deflation drives the average to
        // picoseconds under heavy ties, and against that yardstick every
        // ordinary lattice gap reads as a boundary, cutting the sample to
        // a handful of instants (measured to triple the same-instant
        // storm mix's runtime). Exponential inter-arrivals cannot trip
        // this (P[gap > 256x mean] ~ e^-256).
        const std::int64_t span_so_far = sample(i - 1) - sample(0);
        if (distinct >= 4 &&
            gap / 256 > span_so_far / static_cast<std::int64_t>(distinct - 1))
          break;
        ++distinct;
        if (quantum == 0 || gap < quantum) quantum = gap;
      }
    }
    if (quantum > 0) {
      const std::int64_t span = sample(i - 1) - sample(0);
      const auto covered =  // raw events the sampled span stands for
          std::max<std::int64_t>(2, static_cast<std::int64_t>(i * stride));
      if (covered >= static_cast<std::int64_t>(2 * distinct)) {
        new_width = quantum;  // tie runs: one instant per bucket
      } else {
        const std::int64_t avg_gap = std::max<std::int64_t>(1, span / (covered - 1));
        new_width = avg_gap > kMaxWidth / 2 ? kMaxWidth : std::max(quantum, 2 * avg_gap);
      }
    }
  }

  // Table size: enough buckets that the year (width x buckets) covers the
  // sampled population out to its 90th percentile with 2x slack — the
  // slack keeps steady-state traffic from crossing the year edge (and
  // re-parking on overflow) every window, and the percentile keeps one
  // stray far timer from stretching a max-based year arbitrarily. The
  // population cap (~4 buckets per pending event) is the bound that
  // matters for bimodal mixes: a small population with a months-away
  // timer horizon gets a small table plus overflow parking rather than a
  // maximal table it would pay to re-zero on every re-anchor, while a
  // large population is allowed the buckets needed to take its far
  // cluster *inside* the year — a timer mode the year covers costs
  // nothing, but one left outside forces a full migrate-and-rebuild
  // every time the calendar drains to it.
  std::size_t want = kMinBuckets;
  if (s >= 2) {
    const std::int64_t h90 = sample((s * 9) / 10) - sample(0);
    const std::int64_t per_year = h90 / new_width;  // buckets to reach h90
    const std::int64_t span_want = per_year >= static_cast<std::int64_t>(kMaxBuckets) / 2
                                       ? static_cast<std::int64_t>(kMaxBuckets)
                                       : 2 * per_year + 1;
    const auto pop_cap = static_cast<std::int64_t>(4 * n_pending_);
    want = static_cast<std::size_t>(
        std::max<std::int64_t>(static_cast<std::int64_t>(kMinBuckets),
                               std::min(span_want, pop_cap)));
  }
  std::size_t n_buckets = kMinBuckets;
  while (n_buckets < want && n_buckets < kMaxBuckets) n_buckets *= 2;

  // Re-file everything against the new year, in sorted order so every
  // insert takes the tail-append path. The year is anchored at the
  // *earliest pending event*, not at `now`: nothing can be scheduled in
  // the past, so this keeps the next event to fire inside the calendar
  // unconditionally, whatever geometry was chosen.
  buckets_.assign(n_buckets, Bucket{});
  n_occupied_ = 0;
  width_ps_ = new_width;
  const std::int64_t year = new_width * static_cast<std::int64_t>(n_buckets);
  const std::int64_t anchor = n == 0 ? now_.ps() : refile_scratch_.front().time_ps;
  overflow_limit_ps_ = anchor > INT64_MAX - year ? INT64_MAX : anchor + year;
  cached_min_bucket_ = -1;
  for (const Refile& r : refile_scratch_) {
    if (r.time_ps >= overflow_limit_ps_) {
      overflow_push(r.e);
    } else {
      bucket_insert(r.e);
      ++n_calendar_;
    }
  }
  // Reinsertion above is this rebuild's own (already amortized) cost;
  // only post-rebuild waste counts against the next refit.
  wasted_steps_ = 0;
}

// --- execution ---

bool Engine::step() {
  if (kind_ == QueueKind::legacy_map) {
    if (legacy_queue_.empty()) return false;
    auto it = legacy_queue_.begin();
    NCS_ASSERT(it->first.first >= now_);
    now_ = it->first.first;
    legacy_by_seq_.erase(it->first.second);
    EventFn fn = std::move(it->second);
    legacy_queue_.erase(it);
    ++processed_;
    fn();
    return true;
  }

  Event* e = find_min();
  if (e == nullptr) return false;
  NCS_ASSERT(e->time_ps >= now_.ps());
  now_ = TimePoint::from_ps(e->time_ps);
  // Retire the node before firing so a self-cancel from inside the
  // callback sees a stale id — but invoke the closure *in place*: moving
  // an inline-capture EventFn to the stack costs a relocate dispatch per
  // event for nothing. The popped node sits on no list and is freed only
  // after the call, so callback-driven schedules, cancels and even a
  // geometry rebuild cannot touch it.
  pop(e);
  ++processed_;
  e->fn();
  free_event(e);
  maybe_resize();  // shrink after drains, or direct search degrades to O(buckets)
  return true;
}

std::uint64_t Engine::run() {
  const std::uint64_t start = processed_;
  while (step()) {
  }
  return processed_ - start;
}

std::uint64_t Engine::run_until(TimePoint deadline) {
  const std::uint64_t start = processed_;
  if (kind_ == QueueKind::legacy_map) {
    while (!legacy_queue_.empty() && legacy_queue_.begin()->first.first <= deadline) step();
  } else {
    for (Event* e = find_min(); e != nullptr && e->time_ps <= deadline.ps(); e = find_min())
      step();
  }
  if (now_ < deadline) now_ = deadline;
  return processed_ - start;
}

}  // namespace ncs::sim
