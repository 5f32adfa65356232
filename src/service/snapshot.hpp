#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "service/options.hpp"
#include "service/protocol.hpp"

namespace sensrep::service {

/// One journaled mutation: the command and the absolute virtual time it was
/// in effect by. For fail/crash-robot/repair-robot `t` is the clock at
/// application; for advance it is the clock actually *reached* (an advance
/// interrupted by a signal journals the partial progress). Replay runs the
/// clock to `t`, then applies the injection — see Daemon's restore ctor.
struct JournalEntry {
  double t = 0.0;
  Command command;

  friend bool operator==(const JournalEntry&, const JournalEntry&) = default;
};

/// A restorable image of a service-mode run.
///
/// The event queue holds arbitrary callbacks and cannot be serialized, so a
/// snapshot is not a memory dump: it is the *recipe* — genesis options, the
/// ordered journal of injected mutations, and the final clock. Restoring
/// reconstructs the Simulation from the options and deterministically
/// replays the journal; the embedded digest then proves (or refutes, by
/// throwing) that the replayed run reconverged bit-for-bit on the one that
/// was snapshotted. docs/SERVICE.md §4 specifies the text format.
struct Snapshot {
  /// Format version. v2: the digest's event counts come from one delivery
  /// event per broadcast frame, so a v1 image cannot replay to its digest.
  static constexpr const char* kMagic = "sensrep-snapshot v2";

  DaemonOptions options;
  std::vector<JournalEntry> journal;
  double clock = 0.0;
  core::StateDigest digest;

  void write(std::ostream& out) const;
  [[nodiscard]] bool save(const std::string& path) const;

  /// Throws std::runtime_error on bad magic (naming the wanted version when
  /// the header is another format version), unknown keys, or malformed
  /// values — a snapshot either loads exactly or not at all.
  static Snapshot read(std::istream& in);
  static Snapshot load(const std::string& path);
};

/// Parses a digest line as produced by core::StateDigest::to_string().
/// Throws std::runtime_error on unknown or missing keys.
[[nodiscard]] core::StateDigest parse_digest(const std::string& line);

}  // namespace sensrep::service
