// Pinned inference replicas (ROADMAP "batched inference serving").
//
// Before this existed, every pooled `DlAttack::attack()` call cloned a
// fresh network replica per worker — a full weight copy plus a full
// random re-initialization, repeated for every validation pass and every
// victim design. A `ReplicaSet` instead pins replicas for the lifetime of
// the attack object: each replica is an `AttackNet::clone_shared()` that
// *reads the master's weight tensors* (one weight copy total, zero
// synchronization — a master weight update is immediately visible to all
// replicas) while keeping private activation caches, so concurrent
// workers never race.
//
// Concurrency model: replicas are handed out through exclusive leases,
// and a lease never waits for another to end. Sequential `attack()` calls
// reuse the same pinned replicas; concurrent calls (e.g. parallel
// per-design evaluation) lease disjoint ones, and the set grows by
// cloning whenever every pinned replica is already on loan, so it holds
// at most as many replicas as were ever on loan at once.
// Determinism is untouched: shared weights make all replicas numerically
// identical, and outputs land in index-addressed slots, so *which*
// replica serves a chunk never matters.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "nn/arena.hpp"
#include "nn/attack_net.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::attack {

class ReplicaSet;

/// Exclusive use of `nets` until destruction (returns them to the set).
class ReplicaLease {
 public:
  ReplicaLease(ReplicaSet* set, std::vector<nn::AttackNet*> nets,
               std::vector<std::size_t> indices, double start_us);
  ~ReplicaLease();
  ReplicaLease(const ReplicaLease&) = delete;
  ReplicaLease& operator=(const ReplicaLease&) = delete;

  const std::vector<nn::AttackNet*>& nets() const { return nets_; }

 private:
  ReplicaSet* set_;
  std::vector<nn::AttackNet*> nets_;
  std::vector<std::size_t> indices_;
  double start_us_;  ///< when the lease was granted (obs::now_us)
};

class ReplicaSet {
 public:
  /// Lease-lifecycle accounting for the run report: how often replicas
  /// were leased, how long callers waited to acquire the set (mutex
  /// contention between concurrent attack() calls), and the summed
  /// lease lifetimes (occupancy — replica-seconds on loan).
  struct LeaseStats {
    long leases = 0;            ///< lease() calls completed
    long replicas_leased = 0;   ///< replicas handed out, summed over leases
    long clones_created = 0;    ///< replicas ever constructed
    std::size_t max_on_loan = 0;  ///< peak concurrently leased replicas
    double wait_seconds = 0.0;    ///< summed time to acquire the set
    /// Summed replica-seconds on loan over released leases: a lease adds
    /// its hold time times its replica count when it is released.
    double occupancy_seconds = 0.0;
  };

  /// Lease `n` replicas of `master` for exclusive use. Never blocks on
  /// other leases: grows the set (via `master.clone_shared()`) when fewer
  /// than `n` replicas are free. The master is passed per call rather
  /// than stored so the owning object stays movable (pinned replicas
  /// reference the master's layer objects, which live behind stable heap
  /// storage).
  ReplicaLease lease(std::size_t n, nn::AttackNet& master)
      SMA_EXCLUDES(mutex_);

  /// Lease-lifecycle stats since construction (see LeaseStats).
  /// `max_on_loan` counts leases still live; `occupancy_seconds` counts
  /// released ones.
  LeaseStats lease_stats() const SMA_EXCLUDES(mutex_);

  /// Aggregate activation-arena stats over every pinned replica. Each
  /// replica owns one arena for its lifetime, so repeated attack() calls
  /// over already-seen query shapes leave `allocs` unchanged — the
  /// serving-side half of the alloc-free steady-state contract. Arenas
  /// are single-owner: call this between attack() calls, not while a
  /// lease is live (a working replica mutates its arena unsynchronized).
  nn::ArenaStats arena_stats() const SMA_EXCLUDES(mutex_);

 private:
  friend class ReplicaLease;
  void release(const std::vector<std::size_t>& indices, double start_us)
      SMA_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  /// Deque: growth keeps addresses stable for live leases.
  std::deque<nn::AttackNet> replicas_ SMA_GUARDED_BY(mutex_);
  std::vector<bool> on_loan_ SMA_GUARDED_BY(mutex_);
  LeaseStats stats_ SMA_GUARDED_BY(mutex_);
  std::size_t on_loan_now_ SMA_GUARDED_BY(mutex_) = 0;
};

}  // namespace sma::attack
