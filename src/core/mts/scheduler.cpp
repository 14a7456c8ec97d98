#include "core/mts/scheduler.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::mts {

namespace {
/// The scheduler whose thread is executing right now. A plain global is
/// correct: the whole simulation runs on one OS thread, and dispatches
/// never nest (cross-host interactions go through engine events).
Scheduler* g_active = nullptr;
}  // namespace

Scheduler* Scheduler::active() { return g_active; }

Scheduler::Scheduler(sim::Engine& engine, SchedulerParams params, const obs::Hub& obs)
    : engine_(engine),
      params_(std::move(params)),
      obs_(&obs),
      cores_(params_.smp, params_.name) {
  NCS_ASSERT(params_.cpu_mhz > 0);
}

Scheduler::~Scheduler() {
  // Unlink every thread before the Thread objects (and their hooks) die,
  // and retire any pending sleep timers so no queued event is left holding
  // a pointer into the threads we are about to destroy.
  for (auto& t : threads_) {
    if (t->sleep_timer_ != 0) engine_.cancel(t->sleep_timer_);
  }
  for (int c = 0; c < cores_.size(); ++c) {
    for (auto& q : cores_[c].runnable) q.clear();
  }
  blocked_.clear();
}

int Scheduler::place(const Thread& t) {
  const int n = cores_.size();
  if (t.affinity_ >= 0) {
    NCS_ASSERT_MSG(t.affinity_ < n, "thread pinned to a core the host lacks");
    return t.affinity_;
  }
  if (n == 1) return 0;
  if (t.cls_ == ThreadClass::system) {
    // dedicated_core reserves the last core for the communication planes;
    // the on-demand models start them on core 0 and let progress_hint()
    // pull them to wherever the application is waiting.
    return params_.smp.progress == ProgressModel::dedicated_core ? n - 1 : 0;
  }
  // User threads round-robin across the compute cores (all of them, unless
  // the last one is dedicated to progress).
  const int compute = params_.smp.progress == ProgressModel::dedicated_core ? n - 1 : n;
  const int c = next_user_core_ % compute;
  next_user_core_ = (next_user_core_ + 1) % compute;
  return c;
}

Thread* Scheduler::spawn(std::function<void()> body, ThreadOptions opts) {
  const auto id = static_cast<ThreadId>(threads_.size());
  threads_.push_back(std::make_unique<Thread>(*this, id, std::move(body), std::move(opts)));
  Thread* t = threads_.back().get();
  ++stats_.spawns;
  t->core_ = place(*t);

  mark(t, sim::Activity::idle);

  // Creation cost: charged inline when a thread of this host spawns,
  // otherwise (setup from engine context) pushed onto the new thread's
  // core horizon.
  if (params_.thread_create_cost > Duration::zero()) {
    if (g_active == this && current_ != nullptr) {
      stats_.overhead += params_.thread_create_cost;
      cores_[current_->core_].stats.overhead += params_.thread_create_cost;
      charge(params_.thread_create_cost, sim::Activity::overhead);
    } else {
      reserve_cpu(cores_[t->core_], params_.thread_create_cost, /*as_overhead=*/true);
    }
  }

  t->state_ = ThreadState::runnable;
  make_runnable(t, /*front=*/false);
  return t;
}

void Scheduler::make_runnable(Thread* t, bool front) {
  NCS_ASSERT(t->queue_ == nullptr);
  t->runnable_since_ = engine_.now();
  Core& c = cores_[t->core_];
  Queue& q = c.runnable[static_cast<std::size_t>(t->priority_)];
  if (front) {
    q.push_front(*t);
  } else {
    q.push_back(*t);
  }
  t->queue_ = &q;
  kick(c.index);
  // Idle-kick: a stealable thread that lands behind a busy core is
  // advertised to idle siblings now, instead of waiting for their next
  // natural dispatch pass. No-op on one core (no siblings).
  if (params_.smp.steal == StealPolicy::none) return;
  if (t->cls_ != ThreadClass::user || t->affinity_ >= 0) return;
  const bool busy = c.cpu_owner != nullptr || c.resume_direct != nullptr ||
                    engine_.now() < c.cpu_free_at;
  if (!busy) return;
  for (int s = 0; s < cores_.size(); ++s) {
    if (s != c.index && cores_[s].idle()) kick(s);
  }
}

Thread* Scheduler::pop_runnable(Core& core) {
  for (auto& q : core.runnable) {
    if (!q.empty()) {
      Thread& t = q.pop_front();
      t.queue_ = nullptr;
      if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
        const Duration lat = engine_.now() - t.runnable_since_;
        prof->record(obs::Layer::sched_dispatch, lat);
        if (cores_.size() > 1) prof->record_core(core.prof_key, lat);
      }
      return &t;
    }
  }
  return nullptr;
}

Thread* Scheduler::steal_into(Core& thief) {
  if (thief.victims.empty()) return nullptr;
  // Keep the dedicated progress core dedicated: it never pulls user work.
  if (params_.smp.progress == ProgressModel::dedicated_core &&
      thief.index == cores_.size() - 1)
    return nullptr;
  for (int v : thief.victims) {
    Core& victim = cores_[v];
    for (auto& q : victim.runnable) {
      // The owner pops from the front of a level; the thief scans the same
      // level back-to-front (Chase-Lev discipline, simulated).
      for (auto it = q.end(); it != q.begin();) {
        --it;
        Thread& cand = *it;
        if (cand.cls_ != ThreadClass::user || cand.affinity_ >= 0) continue;
        q.remove(cand);
        cand.queue_ = nullptr;
        cand.core_ = thief.index;
        ++stats_.steals;
        ++thief.stats.steals_in;
        ++victim.stats.steals_out;
        if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
          trace->instant(trace_track(*trace, cand), "steal", "mts", engine_.now());
        if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
          const Duration lat = engine_.now() - cand.runnable_since_;
          prof->record(obs::Layer::sched_dispatch, lat);
          prof->record_core(thief.prof_key, lat);
        }
        return &cand;
      }
    }
  }
  return nullptr;
}

void Scheduler::mark(Thread* t, sim::Activity a) {
  sim::Timeline* timeline = obs_->timeline;
  if (timeline == nullptr) return;
  if (t->timeline_track_ < 0)
    t->timeline_track_ = timeline->add_track(params_.name + "/" + t->name_);
  timeline->transition(t->timeline_track_, engine_.now(), a);
}

int Scheduler::trace_track(obs::TraceLog& trace, Thread& t) {
  if (t.trace_track_ < 0) t.trace_track_ = trace.track(params_.name + "/" + t.name_);
  return t.trace_track_;
}

void Scheduler::reserve_cpu(Core& core, Duration d, bool as_overhead) {
  core.cpu_free_at = ncs::max(engine_.now(), core.cpu_free_at) + d;
  stats_.cpu_busy += d;
  core.stats.cpu_busy += d;
  if (as_overhead) {
    stats_.overhead += d;
    core.stats.overhead += d;
  }
}

void Scheduler::kick() {
  for (int c = 0; c < cores_.size(); ++c) kick(c);
}

void Scheduler::kick(int core) {
  Core& c = cores_[core];
  if (c.dispatch_scheduled || c.in_dispatch) return;
  c.dispatch_scheduled = true;
  engine_.post([this, core] {
    Core& c2 = cores_[core];
    c2.dispatch_scheduled = false;
    if (!c2.in_dispatch) dispatch_loop(core);
  });
}

void Scheduler::dispatch_loop(int core) {
  Core& c = cores_[core];
  NCS_ASSERT(!c.in_dispatch && current_ == nullptr);
  c.in_dispatch = true;
  for (;;) {
    // Overhead window (context switch / spawn cost) still running.
    if (engine_.now() < c.cpu_free_at) {
      if (!c.dispatch_scheduled) {
        c.dispatch_scheduled = true;
        engine_.schedule_at(c.cpu_free_at, [this, core] {
          Core& c2 = cores_[core];
          c2.dispatch_scheduled = false;
          if (!c2.in_dispatch) dispatch_loop(core);
        });
      }
      break;
    }

    Thread* t = nullptr;
    if (c.resume_direct != nullptr) {
      // Continuation of the running thread (post-charge or post-switch-cost):
      // no context switch happens, so no switch cost.
      t = std::exchange(c.resume_direct, nullptr);
    } else if (c.cpu_owner != nullptr) {
      break;  // a charge window is in progress; its timer will resume us
    } else {
      t = pop_runnable(c);
      if (t == nullptr) t = steal_into(c);
      if (t == nullptr) break;
      if (params_.context_switch_cost > Duration::zero()) {
        // Pay the dispatch cost, then resume this thread directly.
        reserve_cpu(c, params_.context_switch_cost, /*as_overhead=*/true);
        c.resume_direct = t;
        continue;
      }
    }
    run_thread(c, t);
  }
  // The loop may leave runnable work behind a charge window or overhead
  // horizon; offer it to idle siblings before going quiet.
  advertise(c);
  c.in_dispatch = false;
}

void Scheduler::advertise(Core& core) {
  if (cores_.size() <= 1 || params_.smp.steal == StealPolicy::none) return;
  bool stealable = false;
  for (auto& q : core.runnable) {
    for (Thread& t : q) {
      if (t.thread_class() == ThreadClass::user && t.affinity() < 0) {
        stealable = true;
        break;
      }
    }
    if (stealable) break;
  }
  if (!stealable) return;
  for (int s = 0; s < cores_.size(); ++s) {
    if (s != core.index && cores_[s].idle()) kick(s);
  }
}

void Scheduler::run_thread(Core& core, Thread* t) {
  NCS_ASSERT(t->queue_ == nullptr);
  NCS_ASSERT(t->state_ == ThreadState::runnable || t->state_ == ThreadState::blocked);
  NCS_ASSERT(t->core_ == core.index);
  t->state_ = ThreadState::running;
  current_ = t;
  ++stats_.dispatches;
  ++core.stats.dispatches;
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->instant(trace_track(*trace, *t), "dispatch", "mts", engine_.now());

  Scheduler* prev_active = g_active;
  g_active = this;
  qt::Context::switch_to(scheduler_context_, t->context_);
  g_active = prev_active;
  current_ = nullptr;
}

void Scheduler::switch_to_scheduler() {
  Thread* t = current_;
  NCS_ASSERT(t != nullptr);
  qt::Context::switch_to(t->context_, scheduler_context_);
  // Resumed: run_thread set current_ = t again before switching here.
  NCS_ASSERT(current_ == t && t->state_ == ThreadState::running);
}

void Scheduler::thread_main(Thread* t) {
  NCS_ASSERT(current_ == t);
  t->body_();
  t->body_ = nullptr;  // release captured resources
  t->state_ = ThreadState::finished;
  mark(t, sim::Activity::idle);
  for (Thread* j : t->joiners_) unblock(j);
  t->joiners_.clear();
  // Switch away forever.
  qt::Context::switch_to(t->context_, scheduler_context_);
  NCS_UNREACHABLE("finished thread resumed");
}

void Scheduler::block(sim::Activity blocked_as) {
  Thread* t = current_;
  NCS_ASSERT_MSG(t != nullptr && g_active == this, "block() outside a thread");
  t->state_ = ThreadState::blocked;
  t->blocked_as_ = blocked_as;
  t->block_began_ = engine_.now();
  blocked_.push_back(*t);
  t->queue_ = &blocked_;
  mark(t, blocked_as);
  switch_to_scheduler();
  mark(t, sim::Activity::idle);
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->complete(trace_track(*trace, *t),
                    std::string("block:") + sim::activity_name(blocked_as), "mts",
                    t->block_began_, engine_.now() - t->block_began_);
}

void Scheduler::unblock(Thread* t) {
  NCS_ASSERT(t != nullptr);
  NCS_ASSERT_MSG(t->state_ == ThreadState::blocked && t->queue_ == &blocked_,
                 "unblock target is not on the blocked queue");
  blocked_.remove(*t);
  t->queue_ = nullptr;
  t->state_ = ThreadState::runnable;
  mark(t, sim::Activity::idle);
  // Sticky wake-up: the thread re-queues on the core it last ran on.
  make_runnable(t, /*front=*/false);
}

void Scheduler::charge(Duration d, sim::Activity a) {
  Thread* t = current_;
  NCS_ASSERT_MSG(t != nullptr && g_active == this, "charge() outside a thread");
  if (d <= Duration::zero()) return;
  // hybrid progress: long user-thread compute bursts are sliced at
  // poll_quantum with a yield point between slices, bounding how long the
  // communication planes can starve behind a busy core.
  if (params_.smp.progress == ProgressModel::hybrid &&
      t->cls_ == ThreadClass::user && params_.smp.poll_quantum > Duration::zero()) {
    while (d > params_.smp.poll_quantum) {
      charge_window(t, params_.smp.poll_quantum, a);
      d = d - params_.smp.poll_quantum;
      yield_to_higher();
    }
  }
  charge_window(t, d, a);
}

void Scheduler::charge_window(Thread* t, Duration d, sim::Activity a) {
  const int core = t->core_;
  Core& c = cores_[core];
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->complete(trace_track(*trace, *t), std::string("charge:") + sim::activity_name(a),
                    "mts", engine_.now(), d);
  mark(t, a);
  stats_.cpu_busy += d;
  c.stats.cpu_busy += d;
  NCS_ASSERT(c.cpu_owner == nullptr);
  c.cpu_owner = t;
  engine_.schedule_after(d, [this, t, core] {
    Core& c2 = cores_[core];
    NCS_ASSERT(c2.cpu_owner == t);
    c2.cpu_owner = nullptr;
    c2.resume_direct = t;
    if (!c2.in_dispatch) dispatch_loop(core);
  });
  t->state_ = ThreadState::blocked;  // parked, but owns the core; not queued
  switch_to_scheduler();
  mark(t, sim::Activity::idle);
}

void Scheduler::yield() {
  Thread* t = current_;
  NCS_ASSERT_MSG(t != nullptr && g_active == this, "yield() outside a thread");
  if (cores_[t->core_].runnable_count() == 0) return;  // nothing to yield to here
  t->state_ = ThreadState::runnable;
  make_runnable(t, /*front=*/false);
  mark(t, sim::Activity::idle);
  switch_to_scheduler();
}

void Scheduler::yield_to_higher() {
  Thread* t = current_;
  NCS_ASSERT_MSG(t != nullptr && g_active == this, "yield_to_higher() outside a thread");
  Core& c = cores_[t->core_];
  bool higher = false;
  for (int p = kHighestPriority; p < t->priority_; ++p) {
    if (!c.runnable[static_cast<std::size_t>(p)].empty()) {
      higher = true;
      break;
    }
  }
  if (!higher) return;
  t->state_ = ThreadState::runnable;
  make_runnable(t, /*front=*/true);
  mark(t, sim::Activity::idle);
  switch_to_scheduler();
}

void Scheduler::sleep_until(TimePoint when) {
  Thread* t = current_;
  NCS_ASSERT_MSG(t != nullptr && g_active == this, "sleep_until() outside a thread");
  if (when <= engine_.now()) return;
  // The thread may be woken before `when` by another path (unblock from a
  // sibling, NCS_unblock, ...). When the block returns we cancel the timer,
  // so it neither fires stale for a later sleep nor sits dead in the event
  // queue until `when`. The token + state checks stay as defense in depth
  // for the one window cancellation cannot close: the thread was woken
  // early but not yet re-dispatched (e.g. a fault pause is monopolising the
  // CPU) when the deadline arrives — the timer still fires there and must
  // not unblock a thread that is already runnable.
  const std::uint64_t token = ++t->sleep_token_;
  t->sleep_timer_ = engine_.schedule_at(when, [this, t, token] {
    t->sleep_timer_ = 0;  // firing retires the id; nothing left to cancel
    if (t->sleep_token_ != token) return;  // a later sleep owns this thread
    if (t->state_ != ThreadState::blocked || t->queue_ != &blocked_) return;
    unblock(t);
  });
  block(sim::Activity::idle);
  ++t->sleep_token_;
  if (t->sleep_timer_ != 0) {
    engine_.cancel(t->sleep_timer_);
    t->sleep_timer_ = 0;
  }
}

void Scheduler::join(Thread* t) {
  NCS_ASSERT(t != nullptr);
  Thread* self = current_;
  NCS_ASSERT_MSG(self != nullptr && g_active == this, "join() outside a thread");
  NCS_ASSERT_MSG(t != self, "thread joining itself");
  if (t->finished()) return;
  t->joiners_.push_back(self);
  block(sim::Activity::idle);
}

void Scheduler::set_priority(Thread* t, int priority) {
  NCS_ASSERT(t != nullptr);
  NCS_ASSERT(priority >= kHighestPriority && priority <= kLowestPriority);
  if (t->priority_ == priority) return;
  const bool requeue = t->state_ == ThreadState::runnable && t->queue_ != nullptr &&
                       t->queue_ != &blocked_;
  if (requeue) {
    t->queue_->remove(*t);
    t->queue_ = nullptr;
  }
  t->priority_ = priority;
  if (requeue) make_runnable(t, /*front=*/false);
}

void Scheduler::progress_hint() {
  if (cores_.size() <= 1) return;
  if (params_.smp.progress != ProgressModel::on_demand &&
      params_.smp.progress != ProgressModel::hybrid)
    return;
  Thread* self = current_;
  NCS_ASSERT_MSG(self != nullptr && g_active == this, "progress_hint() outside a thread");
  Core& here = cores_[self->core_];
  for (int ci = 0; ci < cores_.size(); ++ci) {
    if (ci == here.index) continue;
    Core& other = cores_[ci];
    for (auto& q : other.runnable) {
      for (auto it = q.begin(); it != q.end();) {
        Thread& cand = *it;
        ++it;  // advance before a possible unlink
        if (cand.cls_ != ThreadClass::system || cand.affinity_ >= 0) continue;
        q.remove(cand);
        cand.queue_ = nullptr;
        cand.core_ = here.index;
        ++here.stats.migrations_in;
        if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
          trace->instant(trace_track(*trace, cand), "migrate", "mts", engine_.now());
        make_runnable(&cand, /*front=*/false);
      }
    }
  }
}

void Scheduler::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/dispatches", &stats_.dispatches);
  reg.counter(prefix + "/spawns", &stats_.spawns);
  reg.duration(prefix + "/cpu_busy", &stats_.cpu_busy);
  reg.duration(prefix + "/overhead", &stats_.overhead);
  if (cores_.size() > 1) {
    reg.counter(prefix + "/steals", &stats_.steals);
    for (int c = 0; c < cores_.size(); ++c) {
      const std::string p = prefix + "/core" + std::to_string(c);
      const CoreStats& s = cores_[c].stats;
      reg.counter(p + "/dispatches", &s.dispatches);
      reg.counter(p + "/steals_in", &s.steals_in);
      reg.counter(p + "/steals_out", &s.steals_out);
      reg.counter(p + "/migrations_in", &s.migrations_in);
      reg.duration(p + "/cpu_busy", &s.cpu_busy);
      reg.duration(p + "/overhead", &s.overhead);
    }
  }
}

bool Scheduler::quiescent() const {
  if (current_ != nullptr) return false;
  for (int c = 0; c < cores_.size(); ++c) {
    if (!cores_[c].idle()) return false;
  }
  return true;
}

std::size_t Scheduler::runnable_count() const {
  std::size_t n = 0;
  for (int c = 0; c < cores_.size(); ++c) n += cores_[c].runnable_count();
  return n;
}

std::size_t Scheduler::runnable_count_on(int core) const {
  return cores_[core].runnable_count();
}

Thread* Scheduler::thread_by_id(ThreadId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= threads_.size()) return nullptr;
  return threads_[static_cast<std::size_t>(id)].get();
}

}  // namespace ncs::mts
