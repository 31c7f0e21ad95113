#pragma once
/// \file ledger_reference.hpp
/// Round/message accounting for the synchronous message-passing model of
/// §1.1: time is divided into rounds; per round every node may exchange one
/// message with each neighbor and compute arbitrarily. The test references
/// (the lockstep network, the k-hop gather and the message-level Luby MIS)
/// charge it; the library's distributed algorithm tallies its rounds in
/// core::DistributedStats.

#include <map>
#include <string>

namespace localspan::runtime {

/// Accumulates rounds and messages, per named algorithm section.
class RoundLedger {
 public:
  /// Charge `rounds` communication rounds and `messages` messages to a section.
  void charge(const std::string& section, long long rounds, long long messages);

  [[nodiscard]] long long rounds() const noexcept { return rounds_; }
  [[nodiscard]] long long messages() const noexcept { return messages_; }
  [[nodiscard]] const std::map<std::string, long long>& rounds_by_section() const noexcept {
    return section_rounds_;
  }

 private:
  long long rounds_ = 0;
  long long messages_ = 0;
  std::map<std::string, long long> section_rounds_;
};

}  // namespace localspan::runtime
