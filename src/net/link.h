#ifndef REDY_NET_LINK_H_
#define REDY_NET_LINK_H_

#include <cstdint>

#include "net/fabric_params.h"
#include "sim/simulation.h"

namespace redy::net {

/// Serialization model of one NIC port direction. A transfer occupies
/// the link for its wire time; back-to-back transfers queue behind each
/// other, which is where load-dependent network latency (the light-blue
/// bars growing with queue depth in Fig. 7) comes from.
class Link {
 public:
  explicit Link(const FabricParams* params) : params_(params) {}

  /// Reserves the link for `bytes` starting no earlier than `now`.
  /// Returns the time the last bit has been put on the wire.
  sim::SimTime Reserve(sim::SimTime now, uint64_t bytes) {
    const sim::SimTime start = now > next_free_ ? now : next_free_;
    const sim::SimTime end = start + params_->WireTimeNs(bytes);
    next_free_ = end;
    bytes_sent_ += bytes;
    return end;
  }

  /// Time at which the link next becomes idle.
  sim::SimTime next_free() const { return next_free_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  const FabricParams* params_;
  sim::SimTime next_free_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace redy::net

#endif  // REDY_NET_LINK_H_
