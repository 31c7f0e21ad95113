#include "ledger_reference.hpp"

#include <stdexcept>

namespace localspan::runtime {

void RoundLedger::charge(const std::string& section, long long rounds, long long messages) {
  if (rounds < 0 || messages < 0) throw std::invalid_argument("RoundLedger: negative charge");
  rounds_ += rounds;
  messages_ += messages;
  section_rounds_[section] += rounds;
}

}  // namespace localspan::runtime
