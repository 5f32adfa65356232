#pragma once

#include <cstdint>
#include <string_view>

namespace sensrep::metrics {

/// Taxonomy of wireless transmissions, matching the paper's messaging
/// breakdown (§4.3.2): initialization, failure detection (beacons), failure
/// report, and robot location update; plus the repair-request forwarding leg
/// that exists only in the centralized algorithm and bookkeeping categories.
enum class MessageCategory : std::uint8_t {
  kInitialization,    // location broadcasts / floods during setup
  kBeacon,            // periodic failure-detection beacons
  kGuardianConfirm,   // guardee -> guardian relationship confirmation
  kFailureReport,     // guardian -> manager failure report (all hops)
  kRepairRequest,     // manager -> robot forwarding (centralized only)
  kLocationUpdate,    // robot location updates (unicast hops + flood relays)
  kReplacement,       // new-node announcement and neighbor repair traffic
  kData,              // application sensing reports (data-collection workload)
  kFaultTolerance,    // robot liveness: manager heartbeats, task-complete, failover
  kOther,
  kCount,
};

/// Human-readable name for a category (stable; used in CSV headers and
/// metric labels): its entry in obs::kCategoryLabel.
[[nodiscard]] std::string_view to_string(MessageCategory c) noexcept;

}  // namespace sensrep::metrics
