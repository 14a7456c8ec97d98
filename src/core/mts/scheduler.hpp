// NCS_MTS scheduler — the per-host user-space thread runtime.
//
// Implements the paper's Section 4.1 on top of qt contexts and the
// discrete-event clock:
//
//  - 16 priority levels, round-robin within a level, via one intrusive
//    doubly-linked queue per level (Fig 9);
//  - a blocked queue with O(1) unblocking;
//  - non-preemptive dispatch: a running thread keeps the (single, simulated)
//    CPU until it blocks, yields or finishes — user-space threading on a
//    1995 UNIX workstation had no other option;
//  - virtual-time integration: charge() performs its caller's computation
//    cost by reserving the CPU for a window of simulated time. Sibling
//    threads may become runnable meanwhile but are not dispatched, which is
//    exactly the overlap behaviour the paper's Fig 16 illustrates — the
//    *network* makes progress during a compute window, other threads do not;
//  - a per-dispatch context-switch cost, the "overhead of maintaining
//    threads" the paper cites to explain NCS losing slightly to p4 at one
//    node (Table 1).
//
// One Scheduler == one simulated host. The host has SmpParams::n_cores
// virtual CPUs (core/mts/smp.hpp): each core has its own run queues,
// dispatch state and busy horizon, while the thread table, blocked queue
// and fiber machinery stay host-wide. With one core (the default) the
// behaviour is bit-identical to the original single-CPU scheduler. All
// schedulers in a simulation interleave deterministically through the
// shared engine.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/mts/smp.hpp"
#include "core/mts/thread.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"

namespace ncs::mts {

struct SchedulerParams {
  std::string name = "host";
  /// Host CPU clock; compute costs are expressed in cycles (the paper's
  /// ELCs run ~33 MHz, IPXs ~40 MHz).
  double cpu_mhz = 40.0;
  /// CPU cost of one thread dispatch (context switch + queue maintenance).
  /// QuickThreads-era user-space switches were a few microseconds.
  Duration context_switch_cost = Duration::microseconds(8);
  /// CPU cost of creating a thread.
  Duration thread_create_cost = Duration::microseconds(25);
  /// Multi-core layout, stealing and progress model (core/mts/smp.hpp).
  SmpParams smp;
};

class Scheduler {
 public:
  /// Observability through `obs`: each thread gets a "<host>/<thread>"
  /// activity-timeline track (from spawn when the timeline is on) and trace
  /// track (dispatch instants, charge and block spans); dispatch latency
  /// feeds Layer::sched_dispatch — the time work sits queued behind the
  /// non-preemptive CPU, the scheduling share of the paper's "overhead of
  /// maintaining threads".
  Scheduler(sim::Engine& engine, SchedulerParams params, const obs::Hub& obs = obs::Hub::off());
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  sim::Engine& engine() { return engine_; }
  const SchedulerParams& params() const { return params_; }
  const std::string& name() const { return params_.name; }

  /// Converts a cycle count on this host's CPU to simulated time.
  Duration cycles(double n) const { return Duration::seconds(n / (params_.cpu_mhz * 1e6)); }

  // --- thread management (engine context or thread context) ---

  /// Creates a thread; it becomes runnable immediately (dispatch happens
  /// via the engine). The scheduler owns the Thread.
  Thread* spawn(std::function<void()> body, ThreadOptions opts = {});

  /// Moves a blocked thread to its core's runnable queue and kicks dispatch.
  void unblock(Thread* t);

  /// Schedules a dispatch pass on every core that has none pending.
  void kick();

  // --- primitives callable only from a running thread of this scheduler ---

  /// Blocks the current thread until someone unblocks it. `blocked_as`
  /// tags the blocked interval on the timeline (communicate for message
  /// waits, idle for joins/barriers).
  void block(sim::Activity blocked_as = sim::Activity::idle);

  /// Reserves the CPU for `d` of simulated time, tagged `a` on the
  /// timeline. The thread resumes — still running, never re-queued —
  /// when the window elapses. This is how all computation and protocol
  /// processing spends virtual time.
  void charge(Duration d, sim::Activity a = sim::Activity::compute);

  /// Cycle-count convenience for charge().
  void charge_cycles(double n, sim::Activity a = sim::Activity::compute) {
    charge(cycles(n), a);
  }

  /// Re-queues the current thread behind its priority peers and dispatches.
  void yield();

  /// Yields only if a strictly higher-priority thread is runnable (and then
  /// re-queues at the *front* of this thread's level, preserving
  /// run-to-completion order among peers). The idiom for long computations:
  /// give the system threads their dispatch points without timesharing
  /// against sibling compute threads.
  void yield_to_higher();

  /// Blocks the current thread until `t` (CPU free — unlike charge()).
  void sleep_until(TimePoint t);
  void sleep_for(Duration d) { sleep_until(engine_.now() + d); }

  /// Blocks until `t` finishes (returns immediately if it already has).
  void join(Thread* t);

  /// Changes a thread's priority level. A runnable thread is re-queued at
  /// the back of its new level; running/blocked threads take the new level
  /// at their next queueing.
  void set_priority(Thread* t, int priority);

  /// On-demand communication progress (ProgressModel::on_demand): pulls
  /// runnable, unpinned system-class threads from sibling cores onto the
  /// calling thread's core, so the protocol planes run here while the
  /// caller waits. The NCS_recv path calls this before blocking; a no-op
  /// on one core or under the other progress models.
  void progress_hint();

  /// The running thread, or nullptr from engine context.
  Thread* current() { return current_; }

  /// Scheduler of the thread currently executing, set only while a thread
  /// runs. Free functions (mps API) use this to find "my host".
  static Scheduler* active();

  // --- introspection ---
  bool quiescent() const;  // no runnable or running threads
  std::size_t runnable_count() const;
  std::size_t runnable_count_on(int core) const;
  Thread* thread_by_id(ThreadId id);

  int n_cores() const { return cores_.size(); }
  const CoreStats& core_stats(int core) const { return cores_[core].stats; }

  struct Stats {
    std::uint64_t dispatches = 0;
    std::uint64_t spawns = 0;
    std::uint64_t steals = 0;  // cross-core steals (0 on one core)
    Duration cpu_busy;      // total charged time incl. switch overhead
    Duration overhead;      // context-switch + spawn portion of cpu_busy
  };
  const Stats& stats() const { return stats_; }

  /// Registers this host's counters under `prefix` (e.g. "p0/mts").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  friend class Thread;

  using Queue = Thread::Queue;

  void kick(int core);
  void dispatch_loop(int core);
  void run_thread(Core& core, Thread* t);
  void switch_to_scheduler();
  void thread_main(Thread* t);  // called from trampoline
  void make_runnable(Thread* t, bool front);
  Thread* pop_runnable(Core& core);
  Thread* steal_into(Core& thief);
  void advertise(Core& core);  // offer leftover stealable work to idle siblings
  int place(const Thread& t);  // initial core for a newly spawned thread
  void mark(Thread* t, sim::Activity a);
  int trace_track(obs::TraceLog& trace, Thread& t);
  void reserve_cpu(Core& core, Duration d, bool as_overhead);
  void charge_window(Thread* t, Duration d, sim::Activity a);

  sim::Engine& engine_;
  SchedulerParams params_;
  const obs::Hub* obs_;

  std::vector<std::unique_ptr<Thread>> threads_;
  /// Per-core run contexts (queues, dispatch state, busy horizons). The
  /// blocked queue stays host-wide: a blocked thread belongs to no core's
  /// run state, only its `core_` field remembers where it will wake.
  CoreSet cores_;
  Queue blocked_;

  /// One fiber context suffices for all cores: the whole simulation runs
  /// on one OS thread and dispatch loops never nest, so at most one core
  /// is mid-dispatch at any host at any real instant.
  qt::Context scheduler_context_;
  Thread* current_ = nullptr;
  /// Round-robin cursor for placing new user threads across compute cores.
  int next_user_core_ = 0;

  Stats stats_;
};

}  // namespace ncs::mts
