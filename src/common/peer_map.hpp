// Per-peer state created on first contact.
//
// Every protocol module keeps some record per remote rank: sequence
// counters, flow-control windows, eager batches, RMA credits and caches.
// Sizing those tables by P makes each rank's footprint O(P) and the
// cluster's O(P^2), although a rank usually talks to a handful of peers.
// A PeerMap holds a record only for the peers a module has actually
// touched, so memory follows the communication pattern.
//
// Rules every user relies on:
//   - lookups are O(1) expected (hash on the rank);
//   - only operator[] creates a record; find() never does, so a const
//     probe of a peer never seen leaves the table as it was;
//   - references stay valid until the map is destroyed (records are never
//     erased and node-based storage does not move them on rehash), so a
//     thread may block while holding one;
//   - there is no iteration: hash order is not rank order. Where a walk
//     over peers is observable (it decides event insertion order), keep
//     its key set apart and sorted, as ProtoEngine's pending list does.
#pragma once

#include <cstddef>
#include <unordered_map>

namespace ncs {

template <typename T>
class PeerMap {
 public:
  /// The record for `peer`, value-initialized on first use.
  T& operator[](int peer) { return map_[peer]; }

  /// The record for `peer`, or nullptr when it was never created.
  T* find(int peer) {
    const auto it = map_.find(peer);
    return it == map_.end() ? nullptr : &it->second;
  }
  const T* find(int peer) const {
    const auto it = map_.find(peer);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Peers that hold a record.
  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<int, T> map_;
};

}  // namespace ncs
