#include "attack/replica_set.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace sma::attack {

ReplicaLease::ReplicaLease(ReplicaSet* set, std::vector<nn::AttackNet*> nets,
                           std::vector<std::size_t> indices, double start_us)
    : set_(set),
      nets_(std::move(nets)),
      indices_(std::move(indices)),
      start_us_(start_us) {}

ReplicaLease::~ReplicaLease() { set_->release(indices_, start_us_); }

ReplicaLease ReplicaSet::lease(std::size_t n, nn::AttackNet& master) {
  const double wait_start_us = obs::now_us();
  util::MutexLock lock(mutex_);
  // sma-lint: allow(fp-contract) diagnostic stat; never feeds an output
  stats_.wait_seconds += (obs::now_us() - wait_start_us) * 1e-6;
  std::vector<nn::AttackNet*> nets;
  std::vector<std::size_t> indices;
  nets.reserve(n);
  indices.reserve(n);
  for (std::size_t i = 0; i < replicas_.size() && nets.size() < n; ++i) {
    if (!on_loan_[i]) {
      on_loan_[i] = true;
      nets.push_back(&replicas_[i]);
      indices.push_back(i);
    }
  }
  while (nets.size() < n) {
    replicas_.push_back(master.clone_shared());
    on_loan_.push_back(true);
    ++stats_.clones_created;
    SMA_COUNT("replica.clones_created");
    nets.push_back(&replicas_.back());
    indices.push_back(replicas_.size() - 1);
  }
  ++stats_.leases;
  stats_.replicas_leased += static_cast<long>(n);
  on_loan_now_ += indices.size();
  stats_.max_on_loan = std::max(stats_.max_on_loan, on_loan_now_);
  SMA_COUNT("replica.leases");
  SMA_COUNT_N("replica.replicas_leased", n);
  return ReplicaLease(this, std::move(nets), std::move(indices),
                      obs::now_us());
}

void ReplicaSet::release(const std::vector<std::size_t>& indices,
                         double start_us) {
  const double held_seconds = (obs::now_us() - start_us) * 1e-6;
  {
    util::MutexLock lock(mutex_);
    for (std::size_t i : indices) on_loan_[i] = false;
    on_loan_now_ -= indices.size();
    stats_.occupancy_seconds +=
        held_seconds * static_cast<double>(indices.size());
  }
  SMA_HISTOGRAM("replica.lease_held_us",
                static_cast<std::uint64_t>(held_seconds * 1e6));
}

ReplicaSet::LeaseStats ReplicaSet::lease_stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

nn::ArenaStats ReplicaSet::arena_stats() const {
  util::MutexLock lock(mutex_);
  nn::ArenaStats total;
  for (const nn::AttackNet& replica : replicas_) {
    const nn::ArenaStats s = replica.arena().stats();
    total.bytes_pinned += s.bytes_pinned;
    total.slots += s.slots;
    total.allocs += s.allocs;
    total.requests += s.requests;
  }
  return total;
}

}  // namespace sma::attack
